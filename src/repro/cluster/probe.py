"""System-state probes for the Contention Estimator.

Paper Sec. III-A: "A Contention Estimator (CE) periodically probes the
system state, including CPU utilization, memory utilization and I/O
queue."  :class:`SystemProbe` is the snapshot; :class:`NodeProber`
produces one from a storage node plus its attached I/O queue.

The snapshot carries what the estimator reads: CPU utilisation, the
core derate and the queue (n, k, D, D_A).  Memory is not modelled —
no modelled component allocates any, and paper Eq. 1–11 do not use it.

Every probe period builds one snapshot, so :class:`SystemProbe` is a
slotted dataclass rather than a frozen one: a frozen constructor sets
each field through ``object.__setattr__`` and costs nearly three times
as much.  Nothing mutates or hashes a snapshot; the probe-loss replay
derives a new one with :func:`dataclasses.replace`, which runs the
same range checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.cluster.node import StorageNode


@dataclass(slots=True)
class SystemProbe:
    """One snapshot of a storage node's state.

    Attributes
    ----------
    time:
        Simulated time of the probe.
    cpu_utilization:
        Fraction of the node's cores busy, in [0, 1].
    io_queue_length:
        n — total I/O requests queued (paper Table II notation).
    active_queue_length:
        k — active I/O requests among them.
    queued_bytes:
        D — total request data size in the queue.
    active_bytes:
        D_A — data requested by active I/Os.
    running_kernels:
        Kernels presently executing on the node's cores.
    stale:
        True when this snapshot is a *replay* of an older probe because
        the live probe was lost (node unreachable / prober suppressed).
        Estimators should treat stale state as degradation.
    cpu_derate:
        Fraction of nominal core speed the node currently delivers,
        in (0, 1] — below 1.0 the node is a straggler and its
        processing capability must be scaled down accordingly.
    """

    time: float
    cpu_utilization: float
    io_queue_length: int
    active_queue_length: int
    queued_bytes: float
    active_bytes: float
    running_kernels: int = 0
    stale: bool = False
    cpu_derate: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.cpu_utilization <= 1 + 1e-9:
            raise ValueError(f"cpu_utilization out of range: {self.cpu_utilization}")
        if self.io_queue_length < 0 or self.active_queue_length < 0:
            raise ValueError("queue lengths must be non-negative")
        if self.active_queue_length > self.io_queue_length:
            raise ValueError("active queue cannot exceed total queue")

    @property
    def normal_bytes(self) -> float:
        """D_N — data requested by normal I/Os (D = D_A + D_N)."""
        return self.queued_bytes - self.active_bytes

    @property
    def is_saturated(self) -> bool:
        """True when every core is busy — new offloads will queue."""
        return self.cpu_utilization >= 1.0 - 1e-9


class NodeProber:
    """Samples a :class:`StorageNode` and its I/O queue.

    Parameters
    ----------
    node:
        The storage node to observe.
    queue_inspector:
        Zero-argument callable returning
        ``(n, k, total_bytes, active_bytes)`` for the node's I/O queue.
        Supplied by the PVFS server, which owns the queue.
    """

    def __init__(
        self,
        node: StorageNode,
        queue_inspector: Optional[Callable[[], tuple]] = None,
    ) -> None:
        self.node = node
        self.queue_inspector = queue_inspector or (lambda: (0, 0, 0.0, 0.0))
        #: The most recent live snapshot (the probe-loss replay source).
        self._last: Optional[SystemProbe] = None
        #: Until this simulated time, live probes are lost (fault
        #: injection): :meth:`probe` replays the last snapshot marked
        #: ``stale`` instead of sampling the node.
        self._suppressed_until = float("-inf")

    def suppress_until(self, time: float) -> None:
        """Drop live probes until ``time`` (probe-loss fault)."""
        self._suppressed_until = max(self._suppressed_until, time)

    def probe(self) -> SystemProbe:
        """Take and keep a snapshot now.

        While suppressed, returns a ``stale`` replay of the last real
        snapshot (or an empty stale snapshot if none exists yet) and
        keeps the last real one — the estimator sees old state exactly
        as it would if the probe message were dropped.
        """
        node = self.node
        now = node.env.now
        tr = node.env.tracer
        if now < self._suppressed_until:
            if self._last is not None:
                snap = replace(self._last, stale=True)
            else:
                snap = SystemProbe(
                    time=now,
                    cpu_utilization=0.0,
                    io_queue_length=0,
                    active_queue_length=0,
                    queued_bytes=0.0,
                    active_bytes=0.0,
                    stale=True,
                )
            if tr.enabled:
                tr.instant(
                    now,
                    "probe",
                    f"probe:{node.name}",
                    stale=True,
                    n=snap.io_queue_length,
                    k=snap.active_queue_length,
                )
            return snap
        n, k, total_bytes, active_bytes = self.queue_inspector()
        cpu = node.cpu
        snap = SystemProbe(
            time=now,
            cpu_utilization=min(1.0, cpu.utilization()),
            io_queue_length=int(n),
            active_queue_length=int(k),
            queued_bytes=float(total_bytes),
            active_bytes=float(active_bytes),
            running_kernels=cpu.busy_cores,
            cpu_derate=cpu.derate_factor,
        )
        self._last = snap
        if tr.enabled:
            tr.instant(
                now,
                "probe",
                f"probe:{node.name}",
                n=snap.io_queue_length,
                k=snap.active_queue_length,
                D=snap.queued_bytes,
                D_A=snap.active_bytes,
                cpu=snap.cpu_utilization,
                derate=snap.cpu_derate,
            )
        return snap

    def latest(self) -> Optional[SystemProbe]:
        """Most recent probe, or None before the first probe."""
        return self._last
