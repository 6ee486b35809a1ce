"""Generator-coroutine processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until the event triggers and is then resumed with the event's value
(``gen.send(value)``) or, for failed events, has the exception thrown
into it (``gen.throw(exc)``).

Processes are themselves events: they trigger when the generator
returns (value = the ``return`` value) or raises.  Other processes can
therefore ``yield proc`` to join on completion.

``interrupt(cause)`` injects :class:`~repro.sim.exceptions.Interrupt`
into the generator at its current suspension point.  This is the
mechanism the Active I/O Runtime uses to preempt a processing kernel
mid-execution so it can be demoted to client-side processing (paper
Sec. III-C: "record and interrupt current active I/O being serviced").
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING, Type

from repro.sim.events import (
    Event,
    Initialize,
    PENDING,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.exceptions import Interrupt, SimulationError, StopProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Process(Event):
    """A running simulation process wrapping a generator coroutine."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when
        #: it has not started or is being resumed).
        self._target: Optional[Event] = None
        # ``str(generator)`` only when there is no name: it costs ten
        # times the lookup, on every process start.
        name = getattr(generator, "__name__", None)
        self.name: str = name if name is not None else str(generator)
        Initialize(env, self)

    # -- introspection ------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is waiting on, if any."""
        return self._target

    # -- interruption -------------------------------------------------------
    def interrupt(self, cause: Any = None, exc_type: Type[Interrupt] = Interrupt) -> None:
        """Throw :class:`Interrupt` (or a subclass) into this process.

        The interrupt is delivered asynchronously via an urgent
        zero-delay event so that an interrupter running at the same
        timestamp does not re-enter the target's frame directly.
        Interrupting a dead process raises ``SimulationError``;
        interrupting yourself is forbidden (it could not be delivered).

        ``exc_type`` selects the exception class — pass
        :class:`~repro.sim.exceptions.Failure` to signal a component
        failure rather than a scheduling decision.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        if not (isinstance(exc_type, type) and issubclass(exc_type, Interrupt)):
            raise TypeError(f"exc_type must be an Interrupt subclass, got {exc_type!r}")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = exc_type(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env.schedule(interrupt_event, priority=PRIORITY_URGENT)

    # -- engine callback ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self

        # Detach from the previous target: if we are resumed by an
        # interrupt while still waiting on another event, that event's
        # callback must no longer resume us.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed or carries an Interrupt: deliver
                    # the exception into the generator.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                outcome, ok = stop.value, True
                break
            except StopProcess as stop:
                outcome, ok = stop.value, True
                break
            except BaseException as exc:
                outcome, ok = exc, False
                break

            # The generator yielded: validate and hook the next event.
            if not isinstance(next_event, Event):
                outcome = RuntimeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                ok = False
                break
            if next_event.env is not env:
                outcome = SimulationError(
                    f"process {self.name!r} yielded an event from another environment"
                )
                ok = False
                break

            if next_event.callbacks is not None:
                # Not yet processed: subscribe and go to sleep.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                env._active_process = None
                return

            # Already processed: loop and deliver its outcome at once.
            event = next_event

        # The generator finished (or died).
        env._active_process = None
        self._ok = ok
        self._value = outcome
        env._push(env._now, PRIORITY_NORMAL, self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name} ({state}) at {id(self):#x}>"
