"""The fault injector: turns a :class:`FaultSchedule` into failures.

One :class:`FaultInjector` owns one deployment's I/O servers.  Its
timeline process sleeps until each scheduled :class:`FaultEvent` and
applies it through the failure hooks the rest of the stack exposes:

========================  ====================================================
kind                      mechanism
========================  ====================================================
``CRASH`` / ``RESTART``   :meth:`IOServer.crash` / :meth:`IOServer.restart`
``CPU_DEGRADE``           :meth:`CpuCores.derate`, then the active
                          handler's ``on_degrade`` checkpoint-and-migrate
                          sweep
``CPU_RESTORE``           :meth:`CpuCores.restore` + the handler's
                          ``refresh_policy``
``LINK_DEGRADE``/…        :meth:`Link.degrade` / ``restore`` /
                          ``partition`` / ``heal``
``KERNEL_STALL``          the handler's ``stall_running`` (kernels die
                          silently; client timeouts recover the work)
``PROBE_LOSS``            :meth:`NodeProber.suppress_until` on the
                          prober of the node's DOSAS estimator
``SLOWDOWN`` / …``_END``  CPU derate *and* link degrade together (a
                          whole-box straggler), undone as a pair; a
                          server restart also clears both derates
========================  ====================================================

The handler hooks are the ones :class:`~repro.pvfs.server.ActiveHandler`
declares; a server without an active handler (TS) takes only the
machine-level half of each fault.  An event whose kind has no
application rule raises :class:`UnknownFaultKind` — schedules cannot
half-apply silently.

Everything applied is recorded in :attr:`FaultInjector.log` for the
analysis layer.

:func:`run_with_watchdog` bounds a simulation in *virtual* time so a
recovery bug shows up as a :class:`WatchdogTimeout`, never as a hung
test run.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.sim.engine import Environment
from repro.sim.events import AnyOf, Event
from repro.sim.exceptions import SimulationError
from repro.cluster.probe import NodeProber
from repro.pvfs.server import IOServer
from repro.core.estimator import DOSASEstimator
from repro.core.runtime import ActiveIORuntime
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule


class WatchdogTimeout(SimulationError):
    """The simulation failed to finish inside the virtual-time budget."""


class UnknownFaultKind(SimulationError):
    """The injector met a fault kind it has no application rule for.

    Raised instead of a bare ``ValueError`` so schedule/injector version
    skew (a schedule serialised by a newer library, say) fails with a
    catchable, named error rather than falling through silently.
    """

    def __init__(self, kind: object) -> None:
        super().__init__(
            f"unhandled fault kind {kind!r}; the injector knows "
            f"{sorted(k.value for k in FaultKind)}"
        )
        self.kind = kind


class FaultInjector:
    """Applies a schedule's events to a set of I/O servers."""

    def __init__(
        self,
        env: Environment,
        servers: Sequence[IOServer],
        schedule: FaultSchedule,
    ) -> None:
        if not servers:
            raise ValueError("need at least one I/O server to inject into")
        self.env = env
        self.servers = list(servers)
        self.schedule = schedule
        #: Applied events: dicts with time/kind/target/detail.
        self.log: List[Dict[str, Any]] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Launch the timeline process (idempotent)."""
        if not self._started:
            self._started = True
            self.env.process(self._timeline())
        return self

    def _timeline(self) -> Generator[Event, Any, None]:
        for ev in self.schedule.timeline():
            if ev.at > self.env.now:
                yield self.env.timeout(ev.at - self.env.now)
            self._apply(ev)

    # -- application ---------------------------------------------------------
    def _server(self, ev: FaultEvent) -> IOServer:
        return self.servers[ev.target % len(self.servers)]

    @staticmethod
    def _prober(server: IOServer) -> Optional[NodeProber]:
        """The prober of the node's DOSAS estimator, if it has one."""
        runtime = server.active_handler
        if isinstance(runtime, ActiveIORuntime) and isinstance(
            runtime.estimator, DOSASEstimator
        ):
            return runtime.estimator.prober
        return None

    def _apply(self, ev: FaultEvent) -> None:
        server = self._server(ev)
        handler = server.active_handler
        detail: Optional[str] = None
        kind = ev.kind

        if kind is FaultKind.CRASH:
            server.crash()
        elif kind is FaultKind.RESTART:
            server.restart()
        elif kind is FaultKind.CPU_DEGRADE:
            server.node.cpu.derate(ev.factor)
            detail = f"factor={ev.factor}"
            if handler is not None:
                handler.on_degrade("node-degrade")
        elif kind is FaultKind.CPU_RESTORE:
            server.node.cpu.restore()
            if handler is not None:
                handler.refresh_policy()
        elif kind is FaultKind.LINK_DEGRADE:
            server.link.degrade(ev.factor)
            detail = f"factor={ev.factor}"
        elif kind is FaultKind.LINK_RESTORE:
            server.link.restore()
        elif kind is FaultKind.PARTITION:
            server.link.partition()
        elif kind is FaultKind.HEAL:
            server.link.heal()
        elif kind is FaultKind.KERNEL_STALL:
            stalled = handler.stall_running() if handler is not None else 0
            detail = f"stalled={stalled}"
        elif kind is FaultKind.PROBE_LOSS:
            prober = self._prober(server)
            if prober is not None:
                prober.suppress_until(self.env.now + float(ev.duration))
                detail = f"until={self.env.now + float(ev.duration):.3f}"
            else:
                detail = "no-prober"
        elif kind is FaultKind.SLOWDOWN:
            # Whole-box straggler: compute and NIC degrade together.
            server.node.cpu.derate(ev.factor)
            server.link.degrade(ev.factor)
            detail = f"factor={ev.factor}"
            if handler is not None:
                handler.on_degrade("slowdown")
        elif kind is FaultKind.SLOWDOWN_END:
            server.node.cpu.restore()
            server.link.restore()
            if handler is not None:
                handler.refresh_policy()
        else:
            raise UnknownFaultKind(kind)

        entry: Dict[str, Any] = {
            "time": self.env.now,
            "kind": kind.value,
            "target": ev.target % len(self.servers),
        }
        if detail:
            entry["detail"] = detail
        self.log.append(entry)
        tr = self.env.tracer
        if tr.enabled:
            if detail:
                tr.instant(
                    self.env.now, "fault", "faults",
                    fault=kind.value, target=server.node.name, detail=detail,
                )
            else:
                tr.instant(
                    self.env.now, "fault", "faults",
                    fault=kind.value, target=server.node.name,
                )


def run_with_watchdog(env: Environment, done: Event, deadline: float) -> Any:
    """Run until ``done`` or declare a deadlock after ``deadline``.

    The deadline is *virtual* seconds.  Returns ``done``'s value on
    success; raises :class:`WatchdogTimeout` when the deadline passes
    first — which is how the recovery-invariant tests turn a lost
    reply or a stuck retry loop into a crisp failure instead of a
    simulation that silently runs out of events.
    """
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    timer = env.timeout(deadline)
    env.run(until=AnyOf(env, [done, timer]))
    if not done.processed:
        raise WatchdogTimeout(
            f"simulation did not complete within {deadline} virtual seconds "
            f"(now={env.now})"
        )
    return done.value
