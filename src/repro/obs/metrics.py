"""Typed metrics: counters, time-weighted gauges, histograms.

Hot components keep named, typed instruments in a
:class:`MetricsRegistry`; ``get_counter`` reads a counter by name, and
``summary`` flattens every instrument for the run result.

Histogram percentiles reuse :func:`repro.sim.monitor.percentile`, the
dependency-free linear-interpolation implementation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.monitor import TimeWeightedStat, percentile

__all__ = [
    "Counter",
    "TimeWeightedGauge",
    "Histogram",
    "WindowedHistogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by {amount})")
        self.value += amount


class TimeWeightedGauge:
    """A gauge whose mean is weighted by how long each value held.

    Wraps :class:`~repro.sim.monitor.TimeWeightedStat` with the
    registry's clock, so callers just ``set()`` and read ``mean()``.
    """

    __slots__ = ("name", "_stat", "_now")

    def __init__(self, name: str, now: Callable[[], float], initial: float = 0.0) -> None:
        self.name = name
        self._now = now
        self._stat = TimeWeightedStat(start_time=now(), initial=initial)

    @property
    def value(self) -> float:
        """Present value of the signal."""
        return self._stat.current

    def set(self, value: float) -> None:
        self._stat.update(self._now(), value)

    def mean(self) -> float:
        """Time-weighted mean from registry creation to now."""
        return self._stat.mean(self._now())


class Histogram:
    """Raw-sample distribution with percentile readout.

    Stores every observation — simulation runs are small enough that
    exact percentiles beat bucketing error.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"empty histogram {self.name!r}")
        return self.sum / len(self.values)

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def snapshot(self) -> Dict[str, float]:
        """Summary stats for export (empty histograms export count=0)."""
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "sum": self.sum,
            "mean": self.mean(),
            "min": min(self.values),
            "max": max(self.values),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class WindowedHistogram:
    """Percentiles over the last ``window`` observations only.

    A bounded ring buffer, so long-lived online estimators (the
    client-side per-server latency trackers) track the *recent*
    distribution and forget a server's bad spell once it recovers,
    at O(window) memory regardless of run length.
    """

    __slots__ = ("name", "window", "count", "_ring", "_next")

    def __init__(self, name: str, window: int = 64) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = name
        self.window = window
        #: Total observations ever (not just those still in the window).
        self.count = 0
        self._ring: List[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        self.count += 1
        if len(self._ring) < self.window:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self.window

    def __len__(self) -> int:
        """Observations currently inside the window."""
        return len(self._ring)

    def percentile(self, q: float) -> float:
        return percentile(self._ring, q)

    def snapshot(self) -> Dict[str, float]:
        if not self._ring:
            return {"count": 0}
        return {
            "count": self.count,
            "window": len(self._ring),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments for one component (e.g. one I/O server).

    ``now`` supplies the clock for time-weighted gauges — pass
    ``lambda: env.now`` when attached to a simulation component.  A
    name identifies exactly one instrument; asking for it under a
    different type raises ``ValueError``.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        self._now = now or (lambda: 0.0)
        self._counters: Dict[str, Counter] = {}
        self._time_gauges: Dict[str, TimeWeightedGauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, within: Dict[str, Any]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("time_gauge", self._time_gauges),
            ("histogram", self._histograms),
        ):
            if table is not within and name in table:
                raise ValueError(f"metric {name!r} already registered as a {kind}")

    # -- get-or-create accessors -------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_free(name, self._counters)
            c = self._counters[name] = Counter(name)
        return c

    def time_gauge(self, name: str, initial: float = 0.0) -> TimeWeightedGauge:
        g = self._time_gauges.get(name)
        if g is None:
            self._check_free(name, self._time_gauges)
            g = self._time_gauges[name] = TimeWeightedGauge(name, self._now, initial)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_free(name, self._histograms)
            h = self._histograms[name] = Histogram(name)
        return h

    # -- conveniences -------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` (created on demand)."""
        self.counter(name).inc(amount)

    def get_counter(self, name: str) -> float:
        """Counter value, 0 if never incremented."""
        c = self._counters.get(name)
        return c.value if c is not None else 0.0

    # -- export --------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Flat view: counters plus derived stats."""
        out: Dict[str, Any] = {
            n: self._counters[n].value for n in sorted(self._counters)
        }
        for n in sorted(self._time_gauges):
            g = self._time_gauges[n]
            out[f"{n}.mean"] = g.mean()
            out[f"{n}.last"] = g.value
        for n in sorted(self._histograms):
            for k, v in self._histograms[n].snapshot().items():
                out[f"{n}.{k}"] = v
        return out
