"""Contention Estimators.

Paper Sec. III-D: "The Contention Estimator is an implementation of
the algorithm.  It monitors current system status, including I/O
queue, memory usage and CPU usage, and generates the scheduling policy
for all active I/O requests in current I/O queue by using the probed
system information and the scheduling algorithm.  It then sends its
decision to R component for execution."

``DOSASEstimator`` is that component.  It solves over the queued and
running active requests and reads the probe's CPU utilisation, core
derate and queue (n, k, D, D_A); memory is not modelled (see
:mod:`repro.cluster.probe`).  ``AlwaysOffloadEstimator`` and
``NeverOffloadEstimator`` express the AS and TS baselines through the
same interface so every scheme runs on identical machinery (only the
policy generator differs).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.cluster.probe import NodeProber, SystemProbe
from repro.core.model import CostModel, RequestCost, SchedulingInstance
from repro.core.policy import Decision, SchedulingPolicy
from repro.core.scheduler import Scheduler, ThresholdScheduler
from repro.kernels.costs import KernelCostModel
from repro.pvfs.requests import IORequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import ActiveIORuntime


class ContentionEstimator(abc.ABC):
    """Interface: produce scheduling policies for a runtime."""

    @abc.abstractmethod
    def evaluate(
        self,
        requests: List[IORequest],
        running: List[IORequest],
    ) -> SchedulingPolicy:
        """Produce a policy for queued (+ running) active requests.

        ``requests`` is the runtime's live pending list: read it, but
        neither keep nor change it.
        """

    def start(self, env: Environment, runtime: "ActiveIORuntime") -> None:
        """Hook for estimators that run a periodic probe process."""

    def wake(self) -> bool:
        """Hook: re-arm a periodic probe parked on an idle node.

        The runtime calls it on every arrival; True means the probe
        was parked, so the standing policy is as old as the park.
        """
        return False


class AlwaysOffloadEstimator(ContentionEstimator):
    """The AS baseline: every active request executes on storage."""

    def evaluate(
        self,
        requests: List[IORequest],
        running: List[IORequest],
    ) -> SchedulingPolicy:
        policy = SchedulingPolicy(generated_at=0.0, default=Decision.ACTIVE)
        for req in requests:
            policy.decisions[req.rid] = Decision.ACTIVE
        return policy


class NeverOffloadEstimator(ContentionEstimator):
    """Degenerate estimator demoting everything (TS expressed as policy)."""

    def evaluate(
        self,
        requests: List[IORequest],
        running: List[IORequest],
    ) -> SchedulingPolicy:
        policy = SchedulingPolicy(generated_at=0.0, default=Decision.NORMAL)
        for req in requests:
            policy.decisions[req.rid] = Decision.NORMAL
        return policy


class DOSASEstimator(ContentionEstimator):
    """The paper's dynamic estimator.

    Parameters
    ----------
    prober:
        Probe source for the storage node (CPU, core derate, I/O queue).
    kernel_models:
        op name → :class:`KernelCostModel`.
    bandwidth:
        bw in bytes/s.
    scheduler:
        The 0/1 solver (default: exact threshold solver).
    probe_period:
        Seconds between periodic probes; each probe regenerates the
        policy.  A probe that finds nothing queued or running and
        leaves the ACTIVE default parks the periodic process until
        the next arrival (:meth:`wake`).  ``None`` disables the
        periodic process — policies are then generated on demand only.
    degrade_by_cpu:
        When True, S_{C,op} is scaled by the fraction of cores *not*
        already busy with other work — the paper's "estimated by the
        CE according to its max value ... and the current system
        environment".  Off by default because in the reproduced
        experiments kernels are the only CPU consumers.
    client_speed_factor:
        Compute-node core speed relative to storage ("the storage node
        and the compute node have the same processing capability" ⇒ 1);
        C_{C,op} is the kernel's rate scaled by it.
    stale_probe_timeout:
        Seconds of probe staleness the CE tolerates before treating
        the node as unreachable.  When probes are being lost (fault
        injection) the prober replays old snapshots marked ``stale``;
        once the newest real data is older than this, the CE stops
        trusting the node and demotes everything to client-side
        processing — lost telemetry reads as degradation, never as
        health.  A parked probe takes no snapshot, so after a park the
        age counts from the parking probe.  ``None`` (default)
        disables the check.
    account_normal_traffic:
        Extension (off by default — the paper's Eq. 4 ignores D_N):
        when the probe shows queued normal-I/O bytes, demoted requests
        will wait behind them on the NIC.  That wait is a constant
        g(D_N) charge on *any* solution with ≥ 1 demotion, so the
        exact adjustment compares the solver's optimum (+ charge) with
        the all-active assignment and keeps the cheaper.  Fixes the
        model's heavy-background misjudgment (see the background
        ablation bench).
    """

    def __init__(
        self,
        prober: NodeProber,
        kernel_models: Dict[str, KernelCostModel],
        bandwidth: float,
        scheduler: Optional[Scheduler] = None,
        probe_period: Optional[float] = 0.1,
        degrade_by_cpu: bool = False,
        client_speed_factor: float = 1.0,
        account_normal_traffic: bool = False,
        stale_probe_timeout: Optional[float] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.prober = prober
        self.kernel_models = dict(kernel_models)
        self.bandwidth = float(bandwidth)
        self.scheduler = scheduler or ThresholdScheduler()
        self.probe_period = probe_period
        self.degrade_by_cpu = degrade_by_cpu
        self.client_speed_factor = float(client_speed_factor)
        self.account_normal_traffic = account_normal_traffic
        if stale_probe_timeout is not None and stale_probe_timeout <= 0:
            raise ValueError("stale_probe_timeout must be positive")
        self.stale_probe_timeout = stale_probe_timeout
        #: Objective value of every policy generated, in order; the
        #: run summary reports them as ``policy_values``.
        self.objective_values: List[float] = []
        #: While the periodic probe is parked: the event it waits on,
        #: and the time of the probe that parked it.
        self._parked: Optional[Event] = None
        self._parked_at = 0.0

    # -- capability estimation -------------------------------------------------
    def storage_capability(self, op: str, probe: SystemProbe) -> float:
        """S_{C,op}: max rate, optionally degraded by probed CPU load.

        Always scaled by the probed core speed fraction: a straggler
        node honestly advertises less processing capability, which is
        what steers DOSAS away from offloading to degraded nodes.
        """
        model = self._model(op)
        rate = model.rate * probe.cpu_derate
        if self.degrade_by_cpu:
            # Cores busy with *other* work reduce the share available
            # to a newly scheduled kernel; never below 10 % of max so
            # the estimate stays finite under full load.
            rate *= max(0.1, 1.0 - probe.cpu_utilization)
        return rate

    def compute_capability_for(self, op: str) -> float:
        """C_{C,op} for the requesting compute node."""
        return self._model(op).rate * self.client_speed_factor

    def _model(self, op: str) -> KernelCostModel:
        try:
            return self.kernel_models[op]
        except KeyError:
            raise KeyError(
                f"no cost model for operation {op!r}; known: "
                f"{sorted(self.kernel_models)}"
            ) from None

    # -- policy generation ---------------------------------------------------------
    def evaluate(
        self,
        requests: List[IORequest],
        running: List[IORequest],
    ) -> SchedulingPolicy:
        """Solve Eq. 8 over the queued+running active requests.

        Running kernels participate with their *remaining* bytes so
        the solver can decide whether finishing them on storage still
        pays off; a running request demoted by the solution triggers
        ``interrupt_running``.
        """
        probe = self.prober.probe()
        if self._node_unreachable(probe):
            # Telemetry loss reads as degradation: demote everything so
            # clients stop depending on a node whose state is unknown.
            policy = SchedulingPolicy(
                generated_at=self.prober.node.env.now,
                default=Decision.NORMAL,
                probe=probe,
            )
            for req in running + requests:
                policy.decisions[req.rid] = Decision.NORMAL
            policy.interrupt_running = bool(running)
            self.objective_values.append(policy.objective_value)
            return policy
        if not (running or requests):
            # Most probe periods find the queue idle: nothing to solve.
            policy = SchedulingPolicy(
                generated_at=probe.time, default=Decision.ACTIVE, probe=probe
            )
            self.objective_values.append(policy.objective_value)
            return policy

        # Mixed-operation queues are solved *jointly*: all offloaded
        # kernels share the storage executor (Σ x_i) and the NIC
        # (Σ y_i), and the parallel-client term is the max of the
        # per-request client compute times w_i = d_i / C_{C,op_i}.
        # For a single op this is exactly the paper's Eq. 4; for
        # mixes it is strictly tighter than per-op subproblems (which
        # would double-charge the max term) — an extension documented
        # in DESIGN.md.
        everything = running + requests
        policy = SchedulingPolicy(
            generated_at=probe.time, default=Decision.ACTIVE, probe=probe
        )
        # S_{C,op} and C_{C,op} depend on the operation and the probe
        # only: one cost model per operation serves every request.
        models: Dict[str, CostModel] = {}
        costs: List[RequestCost] = []
        for req in everything:
            op = req.operation or ""
            model = models.get(op)
            if model is None:
                model = models[op] = CostModel(
                    kernel=self._model(op),
                    storage_capability=self.storage_capability(op, probe),
                    compute_capability=self.compute_capability_for(op),
                    bandwidth=self.bandwidth,
                )
            d = self._remaining_bytes(req)
            costs.append(
                RequestCost(
                    rid=req.rid,
                    d_i=d,
                    x_i=model.x_i(d),
                    y_i=model.y_i(d),
                    w_i=d / model.compute_capability,
                )
            )
        instance = SchedulingInstance.from_costs(costs)
        decision = self.scheduler.solve(instance)
        if (
            self.account_normal_traffic
            and probe.normal_bytes > 0
            and decision.n_demoted > 0
        ):
            # g(D_N) is a constant charge on every ≥1-demotion
            # solution; the only alternative class is all-active.
            from repro.core.scheduler import SchedulerDecision

            all_active = tuple([1] * instance.k)
            v_active = instance.value(list(all_active))
            charged = decision.value + probe.normal_bytes / self.bandwidth
            if v_active < charged:
                decision = SchedulerDecision(
                    assignment=all_active,
                    value=v_active,
                    evaluations=decision.evaluations + 1,
                )
        for req, a_i in zip(everything, decision.assignment):
            policy.decisions[req.rid] = (
                Decision.ACTIVE if a_i else Decision.NORMAL
            )

        policy.objective_value = decision.value
        running_demoted = any(
            policy.decisions.get(r.rid) is Decision.NORMAL for r in running
        )
        policy.interrupt_running = running_demoted
        # New arrivals between probes inherit the majority verdict —
        # under overload (everything demoted) they are demoted on
        # arrival, matching the paper's new-arrival rule.
        policy.default = (
            Decision.NORMAL if policy.n_demoted > policy.n_active else Decision.ACTIVE
        )
        self.objective_values.append(policy.objective_value)
        return policy

    def _node_unreachable(self, probe: SystemProbe) -> bool:
        """True when probe loss has outlasted the staleness budget."""
        if self.stale_probe_timeout is None or not probe.stale:
            return False
        age = self.prober.node.env.now - probe.time
        return age > self.stale_probe_timeout

    @staticmethod
    def _remaining_bytes(req: IORequest) -> float:
        done = req.resume_from.bytes_done if req.resume_from is not None else 0
        return float(max(0, req.size - done))

    # -- periodic probing ---------------------------------------------------------
    def start(self, env: Environment, runtime: "ActiveIORuntime") -> None:
        """Launch the periodic probe/refresh process."""
        if self.probe_period is not None:
            env.process(self._periodic(env, runtime, self.probe_period))

    def wake(self) -> bool:
        """Re-arm a parked probe at the next time of its unparked grid.

        The grid is the parking probe's time plus whole periods, added
        one at a time as the unparked loop adds them, so busy-phase
        probes keep their times to the last bit.
        """
        parked = self._parked
        if parked is None:
            return False
        self._parked = None
        period = self.probe_period
        assert period is not None  # only the periodic process parks
        due = self._parked_at + period
        now = parked.env.now
        while due < now:
            due += period
        parked.succeed_at(due)
        return True

    def _periodic(
        self,
        env: Environment,
        runtime: "ActiveIORuntime",
        period: float,
    ) -> Generator[Event, Any, None]:
        tick: Event = env.timeout(period)
        while True:
            yield tick
            policy = runtime.refresh_policy()
            if (
                policy.default is Decision.ACTIVE
                and not runtime.pending
                and not runtime.running
            ):
                # Nothing to decide until work arrives: park, and let
                # the next arrival wake us.  A NORMAL default (stale
                # probes) keeps probing, so it can lift.
                self._parked_at = env.now
                tick = self._parked = Event(env)
            else:
                tick = env.timeout(period)
