"""Node models: CPU cores.

A storage node in the paper owns two cores shared by all offloaded
processing kernels; compute nodes run client-side kernels on their own
cores.  ``CpuCores`` is the shared execution engine: it models a pool
of cores, tracks utilisation for the Contention Estimator, and exposes
an interruptible ``compute()`` process used by kernels (so the Active
I/O Runtime can preempt them mid-execution and migrate the work).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.engine import Environment
from repro.sim.exceptions import Failure, Interrupt
from repro.sim.resources import PriorityResource
from repro.cluster.config import NodeSpec


class CpuCores:
    """A pool of CPU cores.

    Kernels call :meth:`compute` inside their own process:

    .. code-block:: python

        done_bytes = yield from cores.compute(nbytes, rate)

    ``rate`` is the kernel's calibrated single-core processing rate in
    bytes/second (paper Table III); ``core_speed`` scales it.  The call
    occupies exactly one core — matching the paper's per-request
    execution model, where each active I/O's kernel runs on one core
    and concurrency comes from multiple requests.

    If the owning process is interrupted while computing, the core is
    released and the :class:`~repro.sim.exceptions.Interrupt`
    propagates to the caller, which is expected to checkpoint (see
    ``repro.kernels.base``).  ``compute`` reports how many bytes were
    finished before the interrupt through the exception's ``cause``
    augmentation — callers use :func:`partial_progress`.
    """

    def __init__(self, env: Environment, spec: NodeSpec, name: str = "cpu") -> None:
        self.env = env
        self.spec = spec
        self.name = name
        self._pool = PriorityResource(env, capacity=spec.cores, name=name)
        #: Straggler model: fraction of nominal per-core speed currently
        #: delivered, in (0, 1].  Applies to computations that *start*
        #: while derated; in-flight work keeps its original rate (the
        #: injector interrupts running kernels so they re-enter
        #: scheduling at the new speed).
        self._derate = 1.0

    @property
    def cores(self) -> int:
        """Total cores."""
        return self._pool.capacity

    @property
    def busy_cores(self) -> int:
        """Cores currently executing."""
        return self._pool.count

    @property
    def queued(self) -> int:
        """Computations waiting for a core."""
        return self._pool.queue_length

    def utilization(self) -> float:
        """Instantaneous fraction of busy cores in [0, 1]."""
        return self._pool.count / self._pool.capacity

    @property
    def derate_factor(self) -> float:
        """Current straggler slowdown factor (1.0 = healthy)."""
        return self._derate

    def derate(self, factor: float) -> None:
        """Slow every core to ``factor`` × nominal speed (failure hook)."""
        if not 0 < factor <= 1:
            raise ValueError(f"derate factor must lie in (0, 1], got {factor}")
        self._derate = float(factor)

    def restore(self) -> None:
        """Return cores to nominal speed."""
        self._derate = 1.0

    def effective_rate(self, base_rate: float) -> float:
        """Single-core processing rate for a kernel on this node."""
        return base_rate * self.spec.core_speed * self._derate

    def compute(
        self,
        nbytes: float,
        rate: float,
        priority: int = 0,
        already_done: float = 0.0,
    ) -> Generator:
        """Process ``nbytes - already_done`` bytes at ``rate`` B/s/core.

        A plain generator to be driven with ``yield from`` inside the
        calling process, so interrupts land in the caller's frame.
        Returns the total bytes completed (== ``nbytes`` normally).

        On interrupt, re-raises with the cause wrapped in
        :class:`ComputeInterrupted` carrying the bytes completed so
        far, so kernels can checkpoint precisely.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        remaining = nbytes - already_done
        if remaining <= 0:
            return nbytes

        req = self._pool.request(priority=priority)
        try:
            yield req
        except Interrupt as intr:
            req.cancel()
            raise _wrap_interrupt(intr, already_done) from None

        started = self.env.now
        speed = self.effective_rate(rate)
        try:
            yield self.env.timeout(remaining / speed)
        except Interrupt as intr:
            progressed = (self.env.now - started) * speed
            done = min(nbytes, already_done + progressed)
            req.cancel()
            raise _wrap_interrupt(intr, done) from None

        req.cancel()
        return nbytes


class ComputeInterrupted(Interrupt):
    """Interrupt enriched with the bytes completed before preemption."""

    def __init__(self, cause, bytes_done: float) -> None:
        super().__init__(cause)
        self.bytes_done = bytes_done


class FailedCompute(ComputeInterrupted, Failure):
    """A compute preempted by a component *failure*, not a scheduler.

    Inherits both :class:`ComputeInterrupted` (bytes done) and
    :class:`~repro.sim.exceptions.Failure` so handlers can distinguish
    demotion (checkpoint + migrate) from failure (checkpoint or drop).
    """


def _wrap_interrupt(intr: Interrupt, bytes_done: float) -> ComputeInterrupted:
    """Preserve failure-ness when enriching an interrupt with progress."""
    cls = FailedCompute if isinstance(intr, Failure) else ComputeInterrupted
    return cls(intr.cause, bytes_done)


class Node:
    """Base node: identity and cores."""

    def __init__(self, env: Environment, name: str, spec: NodeSpec) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        self.cpu = CpuCores(env, spec, name=f"{name}.cpu")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} cores={self.spec.cores}>"


class ComputeNode(Node):
    """A client node running application processes and the ASC."""


class StorageNode(Node):
    """A server node, home of the I/O request queue of Figure 1.

    The actual queue object is attached by the PVFS server
    (``repro.pvfs.server``); the node only supplies hardware.
    """
