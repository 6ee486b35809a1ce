"""Pluggable event schedulers for the discrete-event engine.

The engine processes events in ``(when, priority, eid)`` order — time
first, then scheduling priority (resource bookkeeping before user
events), then insertion order.  Historically that order came from one
global binary heap; at large client counts the O(log n) per-operation
cost dominates the run loop.  This module puts the pending-event set
behind a small :class:`EventScheduler` interface with two
implementations:

``heap``
    The reference implementation: one binary heap of ``(when,
    priority, eid, event)`` tuples — exactly the historical engine
    order, kept as the oracle the calendar scheduler is tested against.

``calendar``
    A queue of *distinct timestamps* with slotted same-timestamp batch
    execution.  All events sharing a timestamp form one *slot*: a pair
    of urgent/normal FIFO queues in insertion order — which **is** eid
    order, because event ids are handed out monotonically and every
    push follows an id increment.  An event landing on the currently
    open slot appends straight to it (the common case — zero-delay
    triggers dominate scheme runs); an event at an already pending
    timestamp appends to that slot through one dict lookup.  Only a
    new timestamp pays a ``heappush`` onto the binary heap of pending
    timestamps, and only opening a slot pays a ``heappop``, so the
    heap's O(log n) is paid once per distinct timestamp, not per
    event.

Both schedulers produce the *identical* pop order for any push
sequence — pinned by the ``tests/sim/test_scheduler.py`` property
tests and the heap-vs-calendar byte-identity tests on full scheme and
soak reports — so the simulation is deterministic per seed whichever
scheduler is active.

Lazy deletion: cancelled :class:`~repro.sim.events.Timer`\\ s and
events explicitly abandoned via ``Event.abandon()`` (decided-race
deadlines, defused hedge timers) stay queued, as in the heap days, but
are counted.  Once the dead set is at least ``COMPACT_MIN_DEAD``
strong *and* makes up half the pending set, a single O(n) sweep drops
the corpses, so long soaks no longer carry thousands of decided
deadline timers all the way to their timestamps.  Only membership
tests ever touch the dead set — it is never iterated, so object hash
order cannot leak into simulation behavior.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.events import Event, PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.exceptions import SimulationError
from repro.sim.hotstate import FlyweightPool

Infinity = float("inf")

#: Registered scheduler names, in preference order.
SCHEDULERS: Tuple[str, ...] = ("calendar", "heap")

#: Compaction trigger: sweep once at least this many dead entries are
#: pending *and* they make up at least half the pending set.  The
#: floor keeps tiny models from sweeping constantly; the ratio bounds
#: the amortized cost at O(1) per dead entry.
COMPACT_MIN_DEAD = 64

_SlotPair = Tuple[Deque[Event], Deque[Event]]


def _make_slot_pair() -> _SlotPair:
    return (deque(), deque())


class EventScheduler:
    """Interface between :class:`~repro.sim.engine.Environment` and the
    pending-event set.

    The contract mirrors the historical heap exactly:

    - ``push(when, prio, event)`` enqueues; ties at equal ``(when,
      prio)`` pop in push order.
    - ``pop(stop)`` returns the next event — setting ``env._now`` to
      its timestamp as a side effect — or ``None`` when the queue is
      empty or the next event lies at/after ``stop`` (events at
      exactly the horizon stay queued, simpy semantics).
    - ``mark_dead(event)`` registers a queued event whose processing
      is known to be a no-op, for lazy-deletion compaction.
    """

    __slots__ = ("env", "max_depth", "compactions")

    name = "abstract"

    def __init__(self, env: Any) -> None:
        self.env = env
        #: High-water mark of the pending set (queue stats).
        self.max_depth = 0
        #: Number of lazy-deletion sweeps performed.
        self.compactions = 0

    def push(self, when: float, prio: int, event: Event) -> None:
        raise NotImplementedError

    def pop(self, stop: float = Infinity) -> Optional[Event]:
        raise NotImplementedError

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` when empty."""
        raise NotImplementedError

    def mark_dead(self, event: Event) -> None:
        raise NotImplementedError

    def compact(self) -> None:
        raise NotImplementedError

    def slot_blocked(self, stop: float) -> bool:
        """True if a half-drained slot sits at/after ``stop``.

        A previous ``run(until=event)`` can exit mid-slot; a later
        bounded run whose horizon equals that timestamp must not
        process the remainder.  Schedulers without slot state always
        return False.
        """
        return False

    def __len__(self) -> int:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Queue statistics for benches and debugging (stable keys)."""
        return {
            "scheduler": self.name,
            "pending": len(self),
            "max_depth": self.max_depth,
            "compactions": self.compactions,
        }


class HeapScheduler(EventScheduler):
    """The reference binary-heap scheduler (historical engine order)."""

    __slots__ = ("_queue", "_n", "_dead")

    name = "heap"

    def __init__(self, env: Any) -> None:
        super().__init__(env)
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Monotonic sequence number: the heap's eid tie-break.
        self._n = 0
        self._dead: Set[Event] = set()

    def push(self, when: float, prio: int, event: Event) -> None:
        self._n += 1
        heappush(self._queue, (when, prio, self._n, event))
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)

    def pop(self, stop: float = Infinity) -> Optional[Event]:
        queue = self._queue
        if not queue:
            return None
        when = queue[0][0]
        if when >= stop:
            return None
        event = heappop(queue)[3]
        self.env._now = when
        return event

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else Infinity

    def mark_dead(self, event: Event) -> None:
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


class CalendarScheduler(EventScheduler):
    """Binary heap of distinct timestamps with slotted batches.

    Structure: ``_groups`` maps each pending timestamp to its slot
    pair (urgent deque, normal deque); ``_times`` is a binary heap of
    exactly those timestamps, one entry each.  The currently executing
    timestamp lives outside both in ``_cur_when`` / ``_cur_urgent`` /
    ``_cur_normal`` so the two hot paths — push-at-now and
    pop-from-slot — touch no dict and no heap at all.

    Pop order: the open slot serves its urgent deque before its normal
    deque, re-checking urgent first on every pop so an URGENT event
    pushed *mid-slot* (e.g. a resource release fired from a callback)
    still overtakes queued NORMAL events, exactly as the heap orders
    ``(when, 0, eid) < (when, 1, eid')``.  Within one deque, append
    order is eid order (event ids are monotonic), so FIFO pop
    reproduces the heap's eid tie-break without ever sorting.
    """

    __slots__ = (
        "_groups",
        "_times",
        "_size",
        "_cur_when",
        "_cur_urgent",
        "_cur_normal",
        "_cur_pair",
        "_pool",
        "_dead",
    )

    name = "calendar"

    def __init__(self, env: Any) -> None:
        super().__init__(env)
        #: Distinct timestamp -> (urgent deque, normal deque).
        self._groups: Dict[float, _SlotPair] = {}
        #: Heap of the keys of ``_groups``.
        self._times: List[float] = []
        #: Events pending in ``_groups`` (excludes the open slot).
        self._size = 0
        #: The open slot: its timestamp and live deques.  ``-inf``
        #: means "no slot has ever opened" (also makes the push
        #: fast-path comparison false before the first pop).
        self._cur_when = -Infinity
        self._cur_pair = _make_slot_pair()
        self._cur_urgent, self._cur_normal = self._cur_pair
        #: Recycles drained slot pairs (flyweight hot state).
        self._pool: FlyweightPool[_SlotPair] = FlyweightPool(_make_slot_pair)
        self._dead: Set[Event] = set()

    # -- enqueue ----------------------------------------------------------
    def push(self, when: float, prio: int, event: Event) -> None:
        # No sequence counter: deque append order *is* eid order
        # (every historical eid increment preceded exactly one push),
        # so the tie-break comes for free.
        if when == self._cur_when:
            # Fast path: lands on the open slot.  No heap, no dict,
            # no size bookkeeping (the slot was already debited from
            # ``_size`` when it opened).
            if prio:
                if prio != PRIORITY_NORMAL:
                    raise SimulationError(f"unsupported priority {prio!r}")
            else:
                self._cur_urgent.append(event)
                return
            self._cur_normal.append(event)
            return
        if prio != PRIORITY_URGENT and prio != PRIORITY_NORMAL:
            raise SimulationError(f"unsupported priority {prio!r}")
        groups = self._groups
        group = groups.get(when)
        if group is None:
            group = self._pool.take()
            groups[when] = group
            heappush(self._times, when)
        group[prio].append(event)
        self._size += 1

    # -- dequeue ----------------------------------------------------------
    def pop(self, stop: float = Infinity) -> Optional[Event]:
        # Slot fast path: batch-drain the open timestamp.  No clock
        # write, no queue probe — `env._now` was set once when the
        # slot opened and every event here shares it.
        urgent = self._cur_urgent
        if urgent:
            return urgent.popleft()
        normal = self._cur_normal
        if normal:
            # Urgent is checked first on *every* pop so a mid-slot
            # URGENT push overtakes the remaining NORMAL backlog.
            return normal.popleft()
        return self._open_slot(stop)

    def _open_slot(self, stop: float) -> Optional[Event]:
        times = self._times
        if not times:
            return None
        when = times[0]
        if when >= stop:
            return None
        heappop(times)
        # Queue-depth high-water mark, sampled once per distinct
        # timestamp instead of per push (events already drained from
        # the open slot are excluded — a stat, not an invariant).
        if self._size > self.max_depth:
            self.max_depth = self._size
        # Promote the earliest timestamp group to the open slot.
        group = self._groups.pop(when)
        old_pair = self._cur_pair
        self._cur_when = when
        self._cur_pair = group
        self._cur_urgent, self._cur_normal = group
        self._size -= len(group[0]) + len(group[1])
        # The previous slot's deques drained to empty; recycle them.
        self._pool.give(old_pair)
        self.env._now = when
        urgent, normal = group
        if urgent:
            return urgent.popleft()
        return normal.popleft()

    def peek(self) -> float:
        if self._cur_urgent or self._cur_normal:
            return self._cur_when
        return self._times[0] if self._times else Infinity

    def slot_blocked(self, stop: float) -> bool:
        return self._cur_when >= stop and bool(
            self._cur_urgent or self._cur_normal
        )

    # -- lazy deletion ----------------------------------------------------
    def mark_dead(self, event: Event) -> None:
        dead = self._dead
        dead.add(event)
        if len(dead) >= COMPACT_MIN_DEAD and 2 * len(dead) >= len(self):
            self.compact()

    def compact(self) -> None:
        dead = self._dead
        if not dead:
            return
        # Sweep the open slot in place (membership tests only — the
        # dead set is never iterated, so object hash order cannot
        # influence anything observable).
        for queue in (self._cur_urgent, self._cur_normal):
            if queue:
                kept = []
                for e in queue:
                    if e in dead:
                        # Indistinguishable from processing with no
                        # callbacks attached.
                        e.callbacks = None
                    else:
                        kept.append(e)
                if len(kept) != len(queue):
                    queue.clear()
                    queue.extend(kept)
        # Sweep the pending groups; drop timestamps that empty out.
        emptied = False
        removed = 0
        for group in self._groups.values():
            for queue in group:
                if queue:
                    kept = []
                    for e in queue:
                        if e in dead:
                            e.callbacks = None
                        else:
                            kept.append(e)
                    if len(kept) != len(queue):
                        removed += len(queue) - len(kept)
                        queue.clear()
                        queue.extend(kept)
            if not group[0] and not group[1]:
                emptied = True
        self._size -= removed
        if emptied:
            self._groups = {
                when: group
                for when, group in self._groups.items()
                if group[0] or group[1]
            }
            self._times = list(self._groups)
            heapify(self._times)
        # Anything still in the set was already popped naturally (and
        # processed) before the sweep; clearing wholesale keeps the
        # dead count honest for the next threshold check.
        dead.clear()
        self.compactions += 1

    # -- stats ------------------------------------------------------------
    def __len__(self) -> int:
        return self._size + len(self._cur_urgent) + len(self._cur_normal)

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            {
                "slot_pairs_created": self._pool.created,
                "slot_pairs_recycled": self._pool.recycled,
            }
        )
        return base


def make_event_scheduler(name: str, env: Any) -> EventScheduler:
    """Instantiate the scheduler registered under ``name``."""
    if name == "calendar":
        return CalendarScheduler(env)
    if name == "heap":
        return HeapScheduler(env)
    raise ValueError(
        f"unknown scheduler {name!r} (expected one of {', '.join(SCHEDULERS)})"
    )
