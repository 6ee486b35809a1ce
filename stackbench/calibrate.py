"""Host-speed calibration for the timed metrics.

On a shared host the same pass can take 1.5x to 2x longer while a
neighbour loads the sibling hardware thread, and such episodes last
tens of seconds, longer than a run.  Every host time the benchmark
reports is therefore taken relative to a fixed pure-stdlib loop timed
right before and right after it, and scaled back to seconds by
:data:`NOMINAL_S`::

    reported = measured * NOMINAL_S / mean(loop times around it)

so a reported time is what the measured work would take while the
loop runs at its nominal speed.  Inside a timed pass the loop is also
sampled between runs (:class:`PassClock`), so the samples follow speed
changes that happen while the pass runs.  The loop imports nothing from
``repro``: no change to the program under test can speed it up.  It
exercises what the simulator's interpreter time goes to: pointer
chasing over a few MB of small slotted objects, a binary heap, dict
updates and generator resumption.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Generator, List, Optional, Sequence

#: Seconds :data:`STEPS` loop steps take on an uncontended core of a
#: 2-core x86-64 container (CPython 3.11); the scale that turns
#: calibrated times into seconds.
NOMINAL_S = 0.0095

#: Loop runs before and after each measurement.
SAMPLES = 3

#: Objects in the loop's working set.
POOL = 60_000

#: Steps in one timed loop.
STEPS = 6000

#: Seconds of pass work between two loop samples inside a pass.
INTERVAL_S = 0.2


class _Node:
    __slots__ = ("key", "hits", "peer")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.peer: Optional["_Node"] = None


def _counter(limit: int) -> Generator[int, Optional[int], int]:
    total = 0
    for i in range(limit):
        total += (yield i) or 0
    return total


class Calibrator:
    """Owns the loop's working set; times the loop on demand."""

    def __init__(self) -> None:
        self._pool = [_Node(i) for i in range(POOL)]
        for i, node in enumerate(self._pool):
            node.peer = self._pool[(i * 7919) % POOL]

    def loop_seconds(self) -> float:
        """Time one fixed batch of interpreter work."""
        pool = self._pool
        start = time.perf_counter()
        x = 12345
        heap: List[tuple] = []
        table: dict = {}
        gens = [_counter(50) for _ in range(64)]
        for gen in gens:
            next(gen)
        for i in range(STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = pool[x % POOL].peer
            node.hits += 1
            table[node.key & 4095] = i
            heapq.heappush(heap, (x & 1023, i, node))
            if len(heap) > 512:
                heapq.heappop(heap)
            slot = i & 63
            try:
                gens[slot].send(i)
            except StopIteration:
                gens[slot] = _counter(50)
                next(gens[slot])
        return time.perf_counter() - start

    def sample(self) -> List[float]:
        """:data:`SAMPLES` loop times, to take before or after a measurement."""
        return [self.loop_seconds() for _ in range(SAMPLES)]


def calibrated(measured: float, loops: Sequence[float]) -> float:
    """``measured`` seconds rescaled to the nominal loop speed."""
    return measured * NOMINAL_S / statistics.fmean(loops)


class PassClock:
    """Times one pass, sampling the loop between the pass's runs.

    The pass calls :meth:`tick` after every run; at most once per
    :data:`INTERVAL_S` the clock times the loop once.  The samples
    spread evenly over the pass, and their time is left out of it.
    """

    def __init__(self, cal: Calibrator) -> None:
        self._cal = cal
        self._loops: List[float] = []
        self._paused = 0.0
        self._start = self._last = 0.0
        #: Raw and calibrated seconds of the pass, set on exit.
        self.elapsed = self.calibrated = 0.0

    def __enter__(self) -> "PassClock":
        self._loops.append(self._cal.loop_seconds())
        self._start = self._last = time.perf_counter()
        return self

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        self._loops.append(self._cal.loop_seconds())
        self._last = time.perf_counter()
        self._paused += self._last - now

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start - self._paused
        self._loops.append(self._cal.loop_seconds())
        self.calibrated = calibrated(self.elapsed, self._loops)
