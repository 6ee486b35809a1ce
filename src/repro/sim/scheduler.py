"""The engine's pending-event queue.

The engine processes events in ``(when, priority, eid)`` order — time
first, then scheduling priority (resource bookkeeping before user
events), then insertion order.  :class:`HeapScheduler` keeps that
order in one binary heap of ``(when, priority, eid, event)`` tuples,
where ``eid`` is a monotonic push counter, so ties at equal ``(when,
priority)`` pop in push order and a run is deterministic per seed.

Every push goes through :meth:`HeapScheduler.push` (the engine caches
the bound method); the engine's ``run()`` pops the heap inline.

Lazy deletion: cancelled :class:`~repro.sim.events.Timer`\\ s and
events explicitly abandoned via ``Event.abandon()`` (decided-race
deadlines, defused hedge timers) stay queued but are counted.  Once
the dead set is at least ``COMPACT_MIN_DEAD`` strong *and* makes up
half the pending set, a single O(n) sweep drops the corpses, so long
soaks no longer carry thousands of decided deadline timers all the way
to their timestamps.  Only membership tests ever touch the dead set —
it is never iterated, so object hash order cannot leak into simulation
behavior.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.events import Event

Infinity = float("inf")

#: Compaction trigger: sweep once at least this many dead entries are
#: pending *and* they make up at least half the pending set.  The
#: floor keeps tiny models from sweeping constantly; the ratio bounds
#: the amortized cost at O(1) per dead entry.
COMPACT_MIN_DEAD = 64


class HeapScheduler:
    """One binary heap of ``(when, priority, eid, event)`` entries."""

    __slots__ = ("env", "max_depth", "compactions", "_queue", "_n", "_dead")

    def __init__(self, env: Any) -> None:
        self.env = env
        #: High-water mark of the pending set, sampled on every push.
        self.max_depth = 0
        #: Number of lazy-deletion sweeps performed.
        self.compactions = 0
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Monotonic sequence number: the heap's eid tie-break.
        self._n = 0
        self._dead: Set[Event] = set()

    def push(self, when: float, prio: int, event: Event) -> None:
        """Enqueue ``event`` at ``when``; equal ``(when, prio)`` pop FIFO."""
        self._n += 1
        heappush(self._queue, (when, prio, self._n, event))
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)

    def pop(self) -> Optional[Event]:
        """The next event, setting ``env._now`` to its time; None if empty."""
        queue = self._queue
        if not queue:
            return None
        when, _prio, _eid, event = heappop(queue)
        self.env._now = when
        return event

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` when empty."""
        return self._queue[0][0] if self._queue else Infinity

    def mark_dead(self, event: Event) -> None:
        """Register a queued event whose processing is known to be a no-op."""
        dead = self._dead
        dead.add(event)
        if len(dead) >= COMPACT_MIN_DEAD and 2 * len(dead) >= len(self._queue):
            self.compact()

    def compact(self) -> None:
        dead = self._dead
        if not dead:
            return
        kept: List[Tuple[float, int, int, Event]] = []
        for entry in self._queue:
            if entry[3] in dead:
                # Equivalent to processing with no callbacks attached.
                entry[3].callbacks = None
            else:
                kept.append(entry)
        kept.sort()
        # In place: the engine's inlined hot loop holds a reference to
        # this list while dispatching, so rebinding would strand it on
        # a stale snapshot.
        self._queue[:] = kept
        # Entries already popped naturally would otherwise linger in
        # the set forever; clearing wholesale keeps the count honest.
        dead.clear()
        self.compactions += 1

    def __len__(self) -> int:
        return len(self._queue)

    def stats(self) -> Dict[str, Any]:
        """Queue statistics for benches and debugging (stable keys)."""
        return {
            "pending": len(self),
            "max_depth": self.max_depth,
            "compactions": self.compactions,
        }


def make_event_scheduler(name: str, env: Any) -> HeapScheduler:
    """The engine's event queue; ``"heap"`` is the only name.

    ``Environment`` builds its queue through this module-level call so
    that ``stackbench/traced.py`` can wrap it (two arguments) to read
    each queue's ``max_depth`` and ``compactions``.
    """
    if name != "heap":
        raise ValueError(f"unknown scheduler {name!r} (expected 'heap')")
    return HeapScheduler(env)
