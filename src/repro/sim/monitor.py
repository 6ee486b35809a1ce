"""Statistics helpers for simulation runs.

:class:`TimeWeightedStat` accumulates the time-weighted area of a
piecewise-constant signal; it is each I/O server's time-weighted
queue length (``IOServer.queue_length``).  :func:`percentile` serves
the latency reports.
"""

from __future__ import annotations

import math
from typing import Iterable


class TimeWeightedStat:
    """Online time-weighted average of a piecewise-constant signal.

    Keeps only the running area, not the samples.
    """

    __slots__ = ("_last_time", "_last_value", "_area", "_start")

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._start = start_time
        self._last_time = start_time
        self._last_value = initial
        self._area = 0.0

    @property
    def current(self) -> float:
        """The signal's present value."""
        return self._last_value

    def update(self, time: float, value: float) -> None:
        """Advance the signal to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(f"time went backwards: {time} < {self._last_time}")
        self._area += self._last_value * (time - self._last_time)
        self._last_time = time
        self._last_value = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over ``[start, now]``."""
        if now < self._last_time:
            raise ValueError("now precedes the last update")
        span = now - self._start
        if span <= 0:
            return self._last_value
        return (self._area + self._last_value * (now - self._last_time)) / span


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) without numpy.

    Provided so the lightweight stats path has no array dependency;
    heavy analyses use numpy directly.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty data")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac
