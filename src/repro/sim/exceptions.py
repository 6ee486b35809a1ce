"""Exception types used by the simulation engine."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine itself.

    Raised for misuse of the API (e.g. triggering an event twice,
    running an environment with no scheduled events and an ``until``
    bound that can never be reached).
    """


class StopProcess(Exception):
    """Raised internally to terminate a process early with a value.

    Processes normally finish by returning from their generator; code
    that needs to end a process from a non-generator helper can raise
    ``StopProcess(value)`` instead.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised *inside* a process when another process interrupts it.

    In the DOSAS architecture the Active I/O Runtime interrupts a
    processing kernel that is executing on a storage node when the
    Contention Estimator demotes its request to a normal I/O (paper
    Sec. III-C).  The kernel catches ``Interrupt`` — the paper's
    terminate signal — checkpoints its state as (name, type, value)
    records, and the computation migrates to the requesting compute
    node.

    Parameters
    ----------
    cause:
        Arbitrary payload describing why the interrupt happened.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The payload passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt({self.cause!r})"


class Failure(Interrupt):
    """An interrupt whose cause is a *component failure*, not a
    scheduling decision.

    The fault-injection subsystem (``repro.faults``) delivers node
    crashes, degradation signals and client-side cancellations into
    running processes as ``Failure`` so handlers can distinguish "the
    policy demoted you — checkpoint and migrate" (plain
    :class:`Interrupt`) from "the component you were running on broke"
    and react accordingly (drop silently on crash, checkpoint and
    migrate on degrade, abort on cancel).

    ``cause`` carries the failure kind — by convention one of the
    string constants used by ``repro.core.runtime`` ("node-crash",
    "node-degrade", "client-cancel", "kernel-stall") or a richer
    payload from the injector.
    """

    @property
    def kind(self) -> Any:
        """Alias of :attr:`cause` — the failure kind."""
        return self.args[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Failure({self.cause!r})"
