"""The simulation event loop.

:class:`Environment` owns simulated time and the queue of triggered
events (a binary heap, see :mod:`repro.sim.scheduler`).  ``run()`` pops
events in ``(time, priority, insertion order)`` order, advances the
clock, and fires callbacks — which resume waiting processes.

Determinism: ties at equal timestamps are broken first by the event's
scheduling priority (resource bookkeeping before user events) and then
by a monotonically increasing sequence number, so two runs of the same
model produce identical traces.  This matters for the reproduction:
the paper's Table IV compares scheduler decisions against empirically
best choices, and nondeterministic tie-breaking would make that
comparison flaky.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Dict, Generator, Iterable, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    Timeout,
)
from repro.sim.exceptions import SimulationError
from repro.sim.process import Process
from repro.sim.scheduler import HeapScheduler, make_event_scheduler

Infinity = float("inf")


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds by convention
        throughout this codebase).
    """

    __slots__ = ("_now", "_sched", "_push", "_active_process", "tracer")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._sched = make_event_scheduler("heap", self)
        #: Bound push method, cached so the inlined trigger paths in
        #: events.py/process.py/resources.py pay one attribute load.
        self._push = self._sched.push
        self._active_process: Optional[Process] = None
        #: Request-lifecycle tracer (see ``repro.obs``).  Components
        #: read this at call time, so swapping in a real ``Tracer``
        #: before the run instruments the whole stack; the default
        #: no-op tracer costs one ``enabled`` check per site.
        self.tracer: Tracer = NULL_TRACER

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def scheduler(self) -> HeapScheduler:
        """The pending-event queue (for stats and introspection)."""
        return self._sched

    def scheduler_stats(self) -> Dict[str, Any]:
        """Queue statistics of the pending-event queue (stable keys)."""
        return self._sched.stats()

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that waits for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that waits for the first of ``events``."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: int = PRIORITY_NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Queue ``event`` to be processed ``delay`` units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._push(self._now + delay, priority, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._sched.peek()

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        event = self._sched.pop()
        if event is None:
            raise SimulationError("no scheduled events")

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks is not None:
            for callback in callbacks:
                callback(event)

        if event._ok is False and not event._defused:
            # An unhandled failure: crash the run so errors are loud.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted.
            a number — run until the clock reaches that time.  The
            boundary follows simpy: the run stops *before* processing
            events scheduled at exactly ``until``; they fire on the
            next ``run()``/``step()`` call.
            an :class:`Event` — run until that event is processed and
            return its value (re-raising its exception on failure).
        """
        at_event: Optional[Event] = None
        stop_time = Infinity

        if until is not None:
            if isinstance(until, Event):
                at_event = until
                if at_event.callbacks is None:
                    # Already processed.
                    if at_event.ok:
                        return at_event.value
                    raise at_event.value
            else:
                stop_time = float(until)
                if stop_time < self._now:
                    raise SimulationError(
                        f"until={stop_time} lies in the past (now={self._now})"
                    )

        # Inlined hot loops: the ``heappop`` sits in the loop itself,
        # so the per-event cost is the heap touch, not method calls.
        # ``step()``/``peek()`` remain for single-stepping callers.
        # The bounded (until=<time>) and unbounded (until=None /
        # until=<event>) runs get a loop each, so the unbounded one
        # skips the stop-time comparison entirely.
        # ``compact()`` filters ``queue`` in place, so the local stays
        # valid across sweeps.
        queue = self._sched._queue
        if stop_time < Infinity:
            while queue:
                if queue[0][0] >= stop_time:
                    # Events at exactly `stop_time` stay queued
                    # (simpy semantics).
                    break
                when, _prio, _eid, event = heappop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    # Unhandled failure: crash loudly.
                    raise event._value
            # Whether the horizon cut the run short or the queue
            # drained, the clock ends exactly at the horizon.
            self._now = stop_time
        else:
            while True:
                if at_event is not None and at_event.callbacks is None:
                    break
                if not queue:
                    if at_event is not None:
                        raise SimulationError(
                            "run(until=event) exhausted the event queue "
                            "before the event triggered — the model "
                            "deadlocked"
                        )
                    break
                when, _prio, _eid, event = heappop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    # Unhandled failure: crash loudly.
                    raise event._value

        if at_event is not None:
            if at_event.ok:
                return at_event.value
            at_event.defuse()
            raise at_event.value
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} queued={len(self._sched)}>"
