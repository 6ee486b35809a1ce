"""Windowed latency percentiles for the client-side latency board.

:class:`WindowedHistogram` keeps the last ``window`` observations of
one latency series; the straggler dispatcher's
:class:`~repro.straggler.latency.LatencyBoard` holds one per server.
The I/O servers' counts, queue length and service times are plain
fields of :class:`~repro.pvfs.server.IOServer` (see its ``summary``).

Percentiles reuse :func:`repro.sim.monitor.percentile`, the
dependency-free linear-interpolation implementation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.monitor import percentile

__all__ = ["WindowedHistogram"]


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
