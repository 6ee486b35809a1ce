"""Waitable event primitives for the DES engine.

Every object a simulation process can ``yield`` derives from
:class:`Event`.  An event has a *value* (delivered to waiting
processes), an ordered list of callbacks, and a tri-state lifecycle:

``pending``  — not yet triggered; ``value`` is the sentinel ``PENDING``.
``triggered`` — scheduled on the environment's event queue.
``processed`` — callbacks have run; waiting processes were resumed.

Events may *succeed* (normal value) or *fail* (carry an exception that
is re-raised inside each waiting process).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.sim.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.sim.process import Process


class _Pending:
    """Sentinel for the value of an event that has not triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities.  Lower values run first at equal timestamps.
#: URGENT is used for resource bookkeeping (releases must precede the
#: requests they unblock), NORMAL for ordinary events.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot waitable.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked with the event when it is processed.  Set
        #: to ``None`` once processed — appending afterwards is an error.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled or processed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure has been marked as handled.

        An un-defused failed event that nobody waits on crashes the
        simulation at processing time, so errors cannot pass silently.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failure as handled (suppresses crash-on-unhandled)."""
        self._defused = True

    def abandon(self) -> None:
        """Declare this *triggered* event dead weight for the scheduler.

        Caller contract: no process will ever yield on or inspect this
        event again, and processing it would be a no-op (every
        attached condition is already decided).  The scheduler may
        then sweep it from the pending set early instead of carrying
        it to its timestamp — the lazy-deletion path that keeps
        decided-race deadlines and defused hedge timers from bloating
        the queue during long soaks.  Safe to call more than once; a
        no-op on events that were never queued or already processed.
        """
        if self.callbacks is not None and self._value is not PENDING:
            self.env._sched.mark_dead(self)

    # -- triggering -------------------------------------------------------
    # Triggering is the engine's hottest write path (every grant,
    # resume and completion lands here), so the zero-delay NORMAL
    # schedule is inlined rather than routed through env.schedule().

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push(env._now, PRIORITY_NORMAL, self)
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Trigger the event successfully, to be processed at time ``when``.

        :meth:`succeed` at an absolute time no earlier than now: a
        process already waiting on the event resumes at ``when``.
        """
        env = self.env
        if when < env._now:
            raise ValueError(f"time {when} lies in the past (now={env._now})")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env._push(when, PRIORITY_NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed, carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._push(env._now, PRIORITY_NORMAL, self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (triggered) event onto this one.

        Used as a callback target so condition events can chain.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._push(env._now, PRIORITY_NORMAL, self)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts dominate event creation, so Event.__init__ and
        # env.schedule() (which would re-check the delay) are inlined.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._push(env._now + delay, PRIORITY_NORMAL, self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Timer(Event):
    """A cancellable one-shot timer that runs a callback when it fires.

    Unlike :class:`Timeout`, a Timer is not meant to be yielded on: it
    carries a zero-argument callback that the event loop invokes at
    ``now + delay`` unless :meth:`cancel` ran first.  Cancellation is
    O(1): the timer stays queued but is reported dead to the
    scheduler, whose lazy-deletion sweep reclaims the entry once
    enough corpses accumulate (see ``repro.sim.scheduler``) — so long
    soaks no longer carry every cancelled deadline to its timestamp.

    Used for server-side deadline enforcement, where most timers are
    cancelled by normal completion long before they fire.
    """

    __slots__ = ("delay", "cancelled", "_fn")

    def __init__(self, env: "Environment", delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = [self._fire]
        self._ok = True
        self._value: Any = None
        self._defused = False
        self.delay = delay
        self.cancelled = False
        self._fn: Optional[Callable[[], None]] = fn
        env._push(env._now + delay, PRIORITY_NORMAL, self)

    def cancel(self) -> None:
        """Suppress the callback; safe to call after the timer fired."""
        if not self.cancelled:
            self.cancelled = True
            self._fn = None
            if self.callbacks is not None:
                # Still queued: nobody yields on a Timer, so once the
                # callback is suppressed the pending entry is pure dead
                # weight — eligible for the compaction sweep.
                self.env._sched.mark_dead(self)

    def _fire(self, event: "Event") -> None:
        fn = self._fn
        self._fn = None
        if fn is not None and not self.cancelled:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer delay={self.delay} ({state}) at {id(self):#x}>"


class Initialize(Event):
    """Internal event that kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        env._push(env._now, PRIORITY_URGENT, self)


class Condition(Event):
    """Waits for a boolean combination of other events.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value, in trigger order — a simplified analogue of
    SimPy's ``ConditionValue``.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List["Event"], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Immediately check already-processed events.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        # An empty condition is trivially satisfied.
        if not self._events and self._value is PENDING:
            self.succeed({})

    def _collect_values(self) -> Dict["Event", Any]:
        """Values of the constituent events that have fired so far.

        ``processed`` (not ``triggered``) is the right test: a Timeout
        carries its value from construction and is therefore always
        "triggered", but it has only *fired* once the event loop
        processed it.
        """
        return {e: e._value for e in self._events if e.processed}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already decided

        self._count += 1
        if not event._ok:
            # Any failure fails the whole condition.
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Evaluate to True when all events have triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """Evaluate to True when at least one event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition satisfied when *all* of ``events`` have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition satisfied when *any* of ``events`` has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
