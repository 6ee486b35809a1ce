"""End-to-end TS / AS / DOSAS workload runs (paper Sec. IV-A.3).

"We tested three schemes:

- Traditional Storage (TS): the servers are responsible for normal I/O
  operations.  The analysis kernels are executed at the clients.
- Normal Active Storage (AS): the kernels are always executed at
  server side.
- Dynamic Operation Scheduling Active Storage (DOSAS): the I/O
  operations are dynamically scheduled according to the system
  situation of storage nodes."

This module holds the one run driver.  :func:`build_system` assembles
the machine (cluster, PVFS, runtimes/ASCs, protection stack) from a
:class:`WorkloadSpec`; :func:`drive` runs an ordered list of
:class:`ClientProcess` records on it; :func:`summarise` folds the run
into a :class:`SchemeResult` — total execution time, per-request latencies,
achieved bandwidth and the decision trace, the raw material for every
evaluation figure.  ``run_scheme`` lowers a homogeneous batch onto
that driver; :func:`repro.core.planrun.run_plan` lowers a multi-app
:class:`~repro.workload.generator.RequestPlan`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Environment
from repro.sim.events import AllOf, Event
from repro.cluster.config import ClusterConfig, MB, NodeSpec, discfarm_config
from repro.cluster.network import FairShareLink, SerialLink
from repro.cluster.probe import NodeProber
from repro.cluster.topology import ClusterTopology
from repro.kernels.base import Kernel
from repro.kernels.costs import KernelCostModel
from repro.kernels.registry import KernelRegistry, default_registry
from repro.pvfs.client import PVFSClient
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.metadata import MetadataServer, PVFSError
from repro.pvfs.server import IOServer
from repro.qos import (
    AdmissionController,
    BreakerBoard,
    QoSConfig,
    RetryBudget,
    TenantSpec,
    TokenBucket,
    interleave,
)
from repro.core.asc import ActiveStorageClient, RetryPolicy
from repro.straggler import LatencyBoard, StragglerConfig, StragglerDispatcher
from repro.workload.generator import PlannedRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.obs.tracer import Tracer
from repro.core.estimator import (
    AlwaysOffloadEstimator,
    ContentionEstimator,
    DOSASEstimator,
)
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.core.scheduler import make_scheduler


class Scheme(enum.Enum):
    """The three evaluated analysis schemes."""

    TS = "ts"
    AS = "as"
    DOSAS = "dosas"


#: Seed used when a spec leaves ``seed=None`` (the paper's submission
#: date).  An explicit ``seed=0`` is honoured as-is — historically it
#: was silently aliased to this default by an ``or`` expression.
DEFAULT_SEED = 20120924


def resolve_seed(seed: Optional[int]) -> int:
    """The spec's seed with the ``None`` sentinel resolved, exactly once."""
    return DEFAULT_SEED if seed is None else seed


@dataclass(frozen=True)
class WorkloadSpec:
    """One experiment point.

    Mirrors the paper's sweep dimensions: requests per storage node
    (1–64), per-request data size (128 MB–1 GB), the kernel, and the
    machine knobs the ablations vary.
    """

    kernel: str = "gaussian2d"
    n_requests: int = 8
    request_bytes: int = 128 * MB
    n_storage: int = 1
    arrival_spacing: float = 0.0
    jitter: bool = False
    #: ``None`` means "use :data:`DEFAULT_SEED`".  ``seed=0`` is a real
    #: seed, distinct from the default.
    seed: Optional[int] = None
    execute_kernels: bool = False
    scheduler_name: str = "threshold"
    probe_period: Optional[float] = 0.25
    kernel_slots: int = 1
    storage_cores: int = 2
    compute_cores: int = 8
    image_width: int = 1024
    degrade_by_cpu: bool = False
    allow_migration: bool = True
    #: Real-system effects the scheduling algorithm does not model
    #: (paper Sec. IV-B.2's two misjudgment causes).  Defaults are 0
    #: so analytic expectations hold exactly; the Table IV driver and
    #: ablations turn them on.
    kernel_overhead: float = 0.0
    network_latency: float = 0.0
    #: Background normal-I/O traffic per storage node (Figure 1 shows
    #: normal and active requests mixing in one queue): this many
    #: plain readers of ``background_bytes`` each run alongside the
    #: active workload, consuming NIC bandwidth (the model's D_N).
    background_readers: int = 0
    background_bytes: int = 128 * MB
    #: Let the DOSAS estimator charge g(D_N) for demotion decisions
    #: (extension; the paper's Eq. 4 ignores queued normal traffic).
    account_normal_traffic: bool = False
    #: NIC sharing discipline: "serial" (the paper's g(x)=x/bw FIFO
    #: model) or "fair" (fluid processor sharing) — an ablation.
    link_sharing: str = "serial"
    #: DOSAS estimator variant: "base" or "hysteresis" (the extended
    #: estimator of ``repro.core.estimators_ext``).
    estimator_variant: str = "base"
    #: Straggler-aware client dispatch (see repro.straggler): when on,
    #: clients rank replica candidates by observed latency and hedge
    #: slow reads.  Takes effect only with a retry policy (routing
    #: lives in the per-piece recovery path).
    straggler_scheduler: bool = False
    #: Servers able to serve each byte (1 = the classic single home).
    n_replicas: int = 1
    #: Straggler-policy knobs (flat so the result cache can round-trip
    #: the spec through ``asdict``/``WorkloadSpec(**...)``).
    hedge_delay_floor: float = 0.5
    hedge_quantile: float = 95.0
    #: Multi-tenant mix (see ``repro.qos.tenancy``): when non-empty,
    #: each tenant issues ``requests`` active reads per storage node
    #: (replacing the flat ``n_requests``) and carries its name on
    #: every request so servers can police per-tenant guarantees.
    #: Dicts are accepted (the cache round-trips the spec through
    #: ``asdict``/``WorkloadSpec(**...)``) and normalized to
    #: :class:`TenantSpec`.
    tenants: Tuple[TenantSpec, ...] = ()
    #: Explicit per-request arrival offsets in simulated seconds, one
    #: per request across the whole machine (``total_requests`` long).
    #: Empty keeps the classic ``arrival_spacing * i`` linear stagger;
    #: non-empty lets scenario compilers shape arbitrary arrival
    #: processes (bursty NWP phases, diurnal curves — see
    #: ``repro.scenario``).  Mutually exclusive with
    #: ``arrival_spacing``.  Lists are accepted (cache round-trip) and
    #: normalized to a tuple of floats.
    arrival_times: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.tenants:
            normalized = tuple(
                t if isinstance(t, TenantSpec) else TenantSpec(**t)
                for t in self.tenants
            )
            object.__setattr__(self, "tenants", normalized)
            names = [t.name for t in normalized]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate tenant names in {names}")
            if sum(t.requests for t in normalized) <= 0:
                raise ValueError("tenant mix has no demand (all requests == 0)")
        if self.arrival_times:
            offsets = tuple(float(t) for t in self.arrival_times)
            object.__setattr__(self, "arrival_times", offsets)
            if self.arrival_spacing:
                raise ValueError(
                    "arrival_times and arrival_spacing are mutually "
                    "exclusive — pick one arrival discipline"
                )
            if len(offsets) != self.total_requests:
                raise ValueError(
                    f"arrival_times has {len(offsets)} offsets for "
                    f"{self.total_requests} requests"
                )
            for i, t in enumerate(offsets):
                if not t >= 0 or t != t or t == float("inf"):
                    raise ValueError(
                        f"arrival_times[{i}] must be finite and "
                        f"non-negative, got {t}"
                    )
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if self.request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        if self.n_storage <= 0:
            raise ValueError("n_storage must be positive")
        if self.arrival_spacing < 0:
            raise ValueError("arrival_spacing must be non-negative")
        if self.background_readers < 0:
            raise ValueError("background_readers must be non-negative")
        if self.background_bytes <= 0:
            raise ValueError("background_bytes must be positive")
        if self.link_sharing not in ("serial", "fair"):
            raise ValueError(f"unknown link_sharing {self.link_sharing!r}")
        if self.estimator_variant not in ("base", "hysteresis"):
            raise ValueError(
                f"unknown estimator_variant {self.estimator_variant!r}"
            )
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.n_replicas > self.n_storage:
            raise ValueError(
                f"n_replicas {self.n_replicas} exceeds n_storage {self.n_storage}"
            )
        if self.hedge_delay_floor <= 0:
            raise ValueError("hedge_delay_floor must be positive")
        if not 0 < self.hedge_quantile <= 100:
            raise ValueError("hedge_quantile must lie in (0, 100]")

    @property
    def total_requests(self) -> int:
        """Requests across the whole machine."""
        if self.tenants:
            return sum(t.requests for t in self.tenants) * self.n_storage
        return self.n_requests * self.n_storage

    @property
    def total_bytes(self) -> int:
        """Aggregate requested data."""
        return self.total_requests * self.request_bytes

    def arrival_offset(self, i: int) -> float:
        """Request ``i``'s arrival offset under either discipline."""
        if self.arrival_times:
            return self.arrival_times[i]
        return self.arrival_spacing * i


@dataclass
class SchemeResult:
    """Outcome of one run — the record both lowerings return.

    ``run_scheme`` returns it as is; ``run_plan`` returns a
    :class:`~repro.core.planrun.PlanResult`, this record plus the
    per-request outcomes.  Every derived number has one definition,
    whichever lowering produced the run.
    """

    scheme: Scheme
    spec: WorkloadSpec
    #: Latest request completion time.
    makespan: float
    #: Absolute finish time of every measured request, sorted.
    per_request_times: List[float]
    #: Requested bytes (each counted once) per second of makespan.
    bandwidth: float
    #: Active requests the servers completed.
    served_active: int
    #: Active requests finished client-side.  TS: every active request
    #: (its kernel always runs at the client).  AS/DOSAS: the servers'
    #: demotions — refused at intake or while queued, interrupted
    #: mid-kernel, or shed under overload.
    demoted: int
    #: Kernels checkpointed and migrated mid-run (counted in ``demoted``).
    interrupted: int
    #: Kernel results (``execute_kernels`` runs only), one per measured
    #: request in record order: request index for ``run_scheme``,
    #: completion order for ``run_plan``; ``None`` for a normal read.
    results: List[Any] = field(default_factory=list)
    policy_values: List[float] = field(default_factory=list)
    #: Fault-run extras (all zero/empty for fault-free runs).
    retries: int = 0
    retry_timeouts: int = 0
    failed_requests: int = 0
    wasted_bytes: int = 0
    fault_log: List[Dict[str, Any]] = field(default_factory=list)
    retry_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-server metric snapshots (``IOServer.summary()`` plus
    #: ``server`` / ``outstanding_final``) — the raw material for the
    #: scenario invariant engine's conservation checks.
    server_metrics: List[Dict[str, Any]] = field(default_factory=list)
    #: Aggregated overload-protection counters (see repro.qos); always
    #: present so the analysis schema is stable with or without QoS.
    qos_stats: Dict[str, Any] = field(default_factory=dict)
    #: Hedged-request ledger (see repro.straggler); conservation
    #: ``won + wasted == issued`` is asserted by the scenario
    #: invariant engine.
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    #: Per-request latency, sorted: finish minus the request's own
    #: arrival, the moment its process issued it (its arrival time, or
    #: later if the process was still busy) — the tail-latency bench's
    #: raw material.
    per_request_latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        """Mean per-request latency (finish minus the request's own arrival)."""
        return sum(self.per_request_latencies) / len(self.per_request_latencies)

    @property
    def goodput(self) -> float:
        """Useful bytes per second of makespan: the ``bandwidth`` field.

        "Useful" counts each requested byte once — retries that re-read
        or re-process data add wall-clock but no goodput, which is what
        makes this the headline metric under faults.
        """
        return self.bandwidth


@dataclass
class RequestOutcome:
    """Completion record of one request."""

    request: PlannedRequest
    started_at: float
    finished_at: float
    result: object = None
    #: "normal" | "offloaded" | "demoted" | "mixed" (striped requests
    #: may split across dispositions).
    disposition: str = "normal"

    @property
    def latency(self) -> float:
        """Issue-to-completion time."""
        return self.finished_at - self.started_at


@dataclass
class ClientProcess:
    """One requesting process of a run.

    It runs on compute node ``node``, stamps ``tenant`` on every
    request, and issues ``requests`` (each with its open file) one at
    a time, none before its arrival time.  A ``background`` process is
    Figure 1's normal-I/O share of the queue: it is not awaited, reads
    without retries, and a read lost to an injected fault is dropped.
    """

    node: int
    requests: List[Tuple[PlannedRequest, FileHandle]]
    tenant: Optional[str] = None
    background: bool = False


def cost_models_from_registry(registry: KernelRegistry) -> Dict[str, KernelCostModel]:
    """Cost-model table for every kernel a registry knows."""
    models: Dict[str, KernelCostModel] = {}
    for name in registry.names():
        kernel = registry.get(name)
        models[name] = KernelCostModel(
            name=name,
            rate=kernel.rate,
            result_bytes=kernel.result_bytes,
        )
    return models


def _build_estimator(
    scheme: Scheme,
    spec: WorkloadSpec,
    prober: NodeProber,
    config: ClusterConfig,
    kernel_models: Dict[str, KernelCostModel],
    stale_probe_timeout: Optional[float],
) -> ContentionEstimator:
    """Estimator for one server."""
    if scheme is Scheme.AS:
        return AlwaysOffloadEstimator()
    if scheme is Scheme.DOSAS:
        kwargs: Dict[str, Any] = dict(
            prober=prober,
            kernel_models=kernel_models,
            bandwidth=config.network_bandwidth,
            scheduler=make_scheduler(spec.scheduler_name),
            probe_period=spec.probe_period if spec.allow_migration else None,
            degrade_by_cpu=spec.degrade_by_cpu,
            client_speed_factor=config.compute_spec.core_speed
            / config.storage_spec.core_speed,
            account_normal_traffic=spec.account_normal_traffic,
            stale_probe_timeout=stale_probe_timeout,
        )
        if spec.estimator_variant == "hysteresis":
            from repro.core.estimators_ext import HysteresisDOSASEstimator

            return HysteresisDOSASEstimator(**kwargs)
        return DOSASEstimator(**kwargs)
    raise ValueError(f"scheme {scheme} needs no estimator")


@dataclass
class System:
    """One assembled machine, as :func:`build_system` returns it."""

    env: Environment
    scheme: Scheme
    spec: WorkloadSpec
    #: The spec's seed with the ``None`` sentinel resolved.
    seed: int
    config: ClusterConfig
    topo: ClusterTopology
    mds: MetadataServer
    servers: List[IOServer]
    #: One Active I/O Runtime per server (AS/DOSAS only).
    runtimes: List[ActiveIORuntime]
    qos: Optional[QoSConfig]
    fault_schedule: Optional["FaultSchedule"]
    retry_budget: Optional[RetryBudget]
    dispatcher: Optional[StragglerDispatcher]
    injector: Optional["FaultInjector"]
    #: Every client's ASC, in creation order.
    ascs: List[ActiveStorageClient] = field(default_factory=list)

    def client(self, node: int, tenant: Optional[str]) -> ActiveStorageClient:
        """A new ASC on compute node ``node``, armed with the run's protection."""
        env, qos = self.env, self.qos
        compute = self.topo.compute_node(node)
        asc = ActiveStorageClient(
            env,
            compute,
            PVFSClient(env, compute, self.servers, self.mds, tenant=tenant),
            registry=default_registry,
            execute_kernels=self.spec.execute_kernels,
            breakers=(
                BreakerBoard(
                    threshold=qos.breaker_threshold, cooldown=qos.breaker_cooldown
                )
                if qos is not None else None
            ),
            retry_budget=self.retry_budget,
            pace=(
                TokenBucket(qos.pace_rate, qos.pace_burst, start=env.now)
                if qos is not None and qos.pace_rate is not None
                else None
            ),
            deadline=qos.deadline if qos is not None else None,
            # Per-client seeded stream so full-jitter backoff is
            # deterministic yet de-synchronized across clients.
            backoff_seed=self.seed * 1_000_003 + 9973 * node,
            dispatcher=self.dispatcher,
        )
        self.ascs.append(asc)
        return asc


def build_system(
    env: Environment,
    scheme: Scheme,
    spec: WorkloadSpec,
    fault_schedule: Optional["FaultSchedule"] = None,
    qos: Optional[QoSConfig] = None,
    *,
    n_compute: int,
) -> System:
    """Assemble the machine every run drives.

    Every machine field of ``spec`` is honoured: node counts and
    cores, link sharing, latency and jitter, the estimator variant,
    straggler dispatch.  ``qos`` arms per-server admission control and
    the run-global retry budget (per-client breakers, pacing and
    deadlines are armed in :meth:`System.client`); ``fault_schedule``
    starts a fault injector and bounds probe staleness.  The machine
    has ``n_compute`` compute nodes, one per client process.
    """
    seed = resolve_seed(spec.seed)
    config = discfarm_config(
        n_storage=spec.n_storage, n_compute=n_compute, jitter=spec.jitter
    ).with_(
        storage_spec=NodeSpec(cores=spec.storage_cores),
        compute_spec=NodeSpec(cores=spec.compute_cores),
        network_latency=spec.network_latency,
        seed=seed,
    )
    link_cls = SerialLink if spec.link_sharing == "serial" else FairShareLink
    topo = ClusterTopology(env, config, link_cls=link_cls)
    mds = MetadataServer(
        n_io_servers=spec.n_storage, default_stripe_size=config.stripe_size
    )
    servers = [
        IOServer(
            env, sn, topo.link_for(sn), mds, server_index=i,
            admission=(
                AdmissionController.from_config(
                    qos,
                    start=env.now,
                    tenants=spec.tenants,
                    # Per-server stream so the ledger's peer-scan
                    # permutation doesn't correlate across nodes.
                    seed=seed * 1_000_003 + 7919 * i,
                )
                if qos is not None else None
            ),
        )
        for i, sn in enumerate(topo.storage_nodes)
    ]
    retry_budget = (
        RetryBudget(
            qos.retry_budget,
            replenish_rate=qos.retry_replenish_rate,
            start=env.now,
        )
        if qos is not None and qos.retry_budget is not None
        else None
    )

    # Straggler-aware dispatch: one latency board + dispatcher shared
    # by every client (each client alone sees too few requests to
    # learn anything); the shared rng stays deterministic because the
    # simulation is single-threaded.
    dispatcher: Optional[StragglerDispatcher] = None
    if spec.straggler_scheduler:
        board = LatencyBoard(
            StragglerConfig(
                hedge_delay_floor=spec.hedge_delay_floor,
                hedge_quantile=spec.hedge_quantile,
            )
        )
        dispatcher = StragglerDispatcher(board, seed=seed)

    runtimes: List[ActiveIORuntime] = []
    if scheme in (Scheme.AS, Scheme.DOSAS):
        runtime_config = RuntimeConfig(
            kernel_slots=spec.kernel_slots,
            execute_kernels=spec.execute_kernels,
            invocation_overhead=spec.kernel_overhead,
        )
        # Precomputed once per run, not once per server.
        models = (
            cost_models_from_registry(default_registry)
            if scheme is Scheme.DOSAS else {}
        )
        stale = (
            fault_schedule.stale_probe_timeout
            if fault_schedule is not None else None
        )
        for server in servers:
            prober = NodeProber(server.node, server.queue_stats)
            estimator = _build_estimator(
                scheme, spec, prober, config, models, stale
            )
            runtimes.append(
                ActiveIORuntime(
                    env, server, estimator, registry=default_registry,
                    config=runtime_config,
                )
            )

    injector: Optional["FaultInjector"] = None
    if fault_schedule is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(env, servers, fault_schedule).start()

    return System(
        env=env, scheme=scheme, spec=spec, seed=seed, config=config,
        topo=topo, mds=mds, servers=servers, runtimes=runtimes, qos=qos,
        fault_schedule=fault_schedule, retry_budget=retry_budget,
        dispatcher=dispatcher, injector=injector,
    )


def _client_process(
    system: System,
    client: ClientProcess,
    kernels: Dict[str, Kernel],
    retry: Optional[RetryPolicy],
    outcomes: List[RequestOutcome],
) -> Generator[Event, Any, None]:
    """One client's requests, in order; appends an outcome per request."""
    env = system.env
    asc = system.client(client.node, client.tenant)
    if client.background:
        for _request, fh in client.requests:
            try:
                yield from asc.read(fh)
            except PVFSError:
                pass  # background traffic lost to an injected fault is just gone
        return
    offload = system.scheme is not Scheme.TS
    for request, fh in client.requests:
        if env.now < request.arrival_time:
            yield env.timeout(request.arrival_time - env.now)
        started = env.now
        result: Any = None
        disposition = "normal"
        if request.active and offload:
            # Active requests always name an operation.
            assert request.operation is not None
            outcome = yield from asc.read_ex(fh, request.operation, retry=retry)
            result = outcome.result
            if outcome.demotions == 0:
                disposition = "offloaded"
            elif outcome.demotions == len(outcome.served_active):
                disposition = "demoted"
            else:
                disposition = "mixed"
        else:
            yield from asc.read(fh, retry=retry)
            if request.active:
                # TS: the kernel runs client-side after the read (the
                # node's cores apply their own core speed).
                assert request.operation is not None
                kernel = kernels[request.operation]
                yield from asc.node.cpu.compute(float(request.size), kernel.rate)
                if system.spec.execute_kernels:
                    data = system.mds.lookup(fh.name).read_bytes_as_array(
                        0, request.size, dtype=kernel.dtype
                    )
                    result = kernel.apply(data, meta=fh.kernel_meta())
        outcomes.append(
            RequestOutcome(request, started, env.now, result, disposition)
        )


def drive(
    system: System,
    clients: List[ClientProcess],
    retry_policy: Optional[RetryPolicy] = None,
    max_virtual_time: Optional[float] = None,
) -> List[RequestOutcome]:
    """Run ``clients`` on ``system``; their outcomes in completion order.

    Each client becomes one simulation process, started in list order.
    The fault schedule's suggested retry policy protects clients unless
    ``retry_policy`` overrides it.  Fault runs (and any run with
    ``max_virtual_time``) execute under a bounded-virtual-time
    watchdog, so a recovery bug raises ``WatchdogTimeout`` instead of
    hanging.
    """
    env, schedule = system.env, system.fault_schedule
    retry = retry_policy or (schedule.retry if schedule is not None else None)
    # Kernel lookups, hoisted out of the request loop; an unknown
    # operation fails here, before anything runs.
    kernels = {
        op: default_registry.get(op)
        for op in sorted({
            request.operation
            for client in clients
            for request, _fh in client.requests
            if request.operation is not None
        })
    }
    outcomes: List[RequestOutcome] = []
    procs: List[Event] = []
    for client in clients:
        proc = env.process(
            _client_process(system, client, kernels, retry, outcomes)
        )
        if not client.background:
            procs.append(proc)
    done = AllOf(env, procs)
    deadline = max_virtual_time or (
        schedule.horizon if schedule is not None else None
    )
    if deadline is not None:
        from repro.faults.injector import run_with_watchdog

        run_with_watchdog(env, done, deadline)
    else:
        env.run(until=done)
    return outcomes


def summarise(system: System, outcomes: List[RequestOutcome]) -> Dict[str, Any]:
    """The :class:`SchemeResult` fields of a driven run.

    ``outcomes`` are the measured requests in record order; server,
    runtime and ASC stats are aggregated once, over the whole machine.
    """
    scheme, spec, servers, ascs = (
        system.scheme, system.spec, system.servers, system.ascs
    )
    finish_times = [o.finished_at for o in outcomes]
    makespan = max(finish_times)
    total_bytes = sum(o.request.size for o in outcomes)

    served_active = demoted = interrupted = 0
    policy_values: List[float] = []
    if scheme is Scheme.TS:
        demoted = sum(1 for o in outcomes if o.request.active)
    for runtime in system.runtimes:
        stats = runtime.stats
        served_active += stats["served_active"]
        # An interrupted kernel is a demotion too — its remainder
        # was finished by the client.
        demoted += (
            stats["demoted_new"]
            + stats["demoted_queued"]
            + stats["interrupted"]
            + stats["shed_overload"]
        )
        interrupted += stats["interrupted"]
        est = runtime.estimator
        if isinstance(est, DOSASEstimator):
            policy_values.extend(est.objective_values)

    retry_events = sorted(
        (e for a in ascs for e in a.retry_log),
        key=lambda e: (e["time"], e["rid"], e["attempt"]),
    )

    def _server_sum(name: str) -> int:
        return int(sum(s.counts[name] for s in servers))

    def _asc_sum(name: str) -> int:
        return sum(a.stats[name] for a in ascs)

    qos_stats: Dict[str, Any] = {
        "requests_shed": _server_sum("requests_shed"),
        "requests_shed_queued": _server_sum("requests_shed_queued"),
        "requests_overloaded": _server_sum("requests_overloaded"),
        "deadline_rejected": _server_sum("deadline_rejected"),
        "deadline_expired": _server_sum("deadline_expired"),
        "late_replies": _server_sum("late_replies"),
        "requests_failed_crash": _server_sum("requests_failed_crash"),
        "breaker_demotions": _asc_sum("breaker_demotions"),
        "breaker_fast_fails": _asc_sum("breaker_fast_fails"),
        "retries_denied_budget": _asc_sum("retries_denied_budget"),
        "deadline_failures": _asc_sum("deadline_failures"),
        "retry_budget_remaining": (
            system.retry_budget.remaining
            if system.retry_budget is not None else None
        ),
        # Hedged-request ledger (mirrored onto the result's top level);
        # the scenario invariant engine asserts won + wasted == issued.
        "hedges_issued": _asc_sum("hedges_issued"),
        "hedges_won": _asc_sum("hedges_won"),
        "hedges_wasted": _asc_sum("hedges_wasted"),
    }
    dispatcher = system.dispatcher
    if dispatcher is not None:
        qos_stats["straggler"] = {
            **{k: dispatcher.stats[k] for k in sorted(dispatcher.stats)},
            "latency_board": dispatcher.board.snapshot(),
        }
    if spec.tenants:
        qos_stats["tenants"] = _tenant_stats(system, outcomes, makespan)

    return dict(
        scheme=scheme,
        spec=spec,
        makespan=makespan,
        per_request_times=sorted(finish_times),
        bandwidth=total_bytes / makespan if makespan > 0 else float("inf"),
        served_active=served_active,
        demoted=demoted,
        interrupted=interrupted,
        results=[o.result for o in outcomes] if spec.execute_kernels else [],
        policy_values=policy_values,
        retries=_asc_sum("retries"),
        retry_timeouts=_asc_sum("retry_timeouts"),
        failed_requests=sum(r.stats["failed"] for r in system.runtimes),
        wasted_bytes=sum(r.stats["wasted_bytes"] for r in system.runtimes),
        fault_log=list(system.injector.log) if system.injector is not None else [],
        retry_events=retry_events,
        server_metrics=[
            {
                "server": s.node.name,
                "outstanding_final": len(s.outstanding),
                **s.summary(),
            }
            for s in servers
        ],
        qos_stats=qos_stats,
        hedges_issued=int(qos_stats["hedges_issued"]),
        hedges_won=int(qos_stats["hedges_won"]),
        hedges_wasted=int(qos_stats["hedges_wasted"]),
        per_request_latencies=sorted(o.latency for o in outcomes),
    )


def _tenant_stats(
    system: System, outcomes: List[RequestOutcome], makespan: float
) -> Dict[str, Any]:
    """Per-tenant goodput / SLO attainment plus the servers' ledgers.

    A measured request's ``app`` names its tenant.  Key order is
    sorted everywhere so the report serialises byte-identically per
    seed.
    """
    spec, qos = system.spec, system.qos
    lat_by_tenant: Dict[str, List[float]] = {t.name: [] for t in spec.tenants}
    for o in outcomes:
        lat_by_tenant[o.request.app].append(o.latency)
    ledger_totals: Dict[str, Dict[str, float]] = {}
    for s in system.servers:
        ledger = s.admission.tenants if s.admission is not None else None
        if ledger is None:
            continue
        for name, counters in ledger.snapshot().items():
            agg = ledger_totals.setdefault(name, {k: 0.0 for k in counters})
            for key, value in counters.items():
                agg[key] += value
    per_tenant: Dict[str, Any] = {}
    for t in sorted(spec.tenants, key=lambda t: t.name):
        lats = sorted(lat_by_tenant[t.name])
        n_req = len(lats)
        t_bytes = n_req * spec.request_bytes
        entry: Dict[str, Any] = {
            "requests": n_req,
            "bytes": t_bytes,
            "goodput": t_bytes / makespan if makespan > 0 else float("inf"),
            "slo_latency": t.slo_latency,
            "slo_attainment": (
                sum(1 for x in lats if x <= t.slo_latency) / n_req
                if t.slo_latency is not None and n_req
                else None
            ),
            "latency_mean": sum(lats) / n_req if n_req else None,
            "latency_max": lats[-1] if n_req else None,
        }
        counters = ledger_totals.get(t.name)
        if counters is not None:
            entry["ledger"] = {k: counters[k] for k in sorted(counters)}
        per_tenant[t.name] = entry
    return {
        "borrow_enabled": bool(qos.tenant_borrow) if qos is not None else None,
        "per_tenant": per_tenant,
    }


def run_scheme(
    scheme: Scheme,
    spec: WorkloadSpec,
    fault_schedule: Optional["FaultSchedule"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    max_virtual_time: Optional[float] = None,
    tracer: Optional["Tracer"] = None,
    qos: Optional[QoSConfig] = None,
) -> SchemeResult:
    """Build the machine, run the workload, collect the numbers.

    The spec lowers onto the one driver: request ``i`` is one process
    on compute node ``i`` reading its own file ``/data/req{i}``, homed
    on server ``i % n_storage``, at its arrival offset; background
    readers run on the nodes after those.

    ``fault_schedule`` injects failures (see ``repro.faults``); the
    schedule's suggested retry policy protects clients unless
    ``retry_policy`` overrides it.  Fault runs (and any run with
    ``max_virtual_time``) execute under a bounded-virtual-time
    watchdog, so a recovery bug raises ``WatchdogTimeout`` instead of
    hanging.

    ``qos`` (a :class:`repro.qos.QoSConfig`) arms overload protection:
    per-server admission control and intake policing, per-client
    circuit breakers, submit pacing, a run-global retry budget, and
    per-request deadlines.  Breakers, budget and deadlines act through
    the retry machinery, so they need a retry policy to take effect.

    ``tracer`` (a :class:`repro.obs.Tracer`) captures the full
    request-lifecycle timeline of the run — see ``repro.obs`` and
    ``docs/observability.md``.
    """
    env = Environment()
    if tracer is not None:
        env.tracer = tracer
    n_measured = spec.total_requests
    n_background = spec.background_readers * spec.n_storage
    system = build_system(
        env, scheme, spec, fault_schedule, qos,
        n_compute=n_measured + n_background,
    )
    seed, mds = system.seed, system.mds

    # Tenant identity per measured request: the per-node interleave
    # (smooth weighted round-robin over each tenant's demand) repeats
    # on every storage node, and request i lands on node i % n_storage,
    # so position i // n_storage in the sequence names its tenant.
    tenant_seq = interleave(spec.tenants) if spec.tenants else ()

    # One file per request, wholly resident on its home server.
    meta = (
        {"width": spec.image_width}
        if spec.kernel in ("gaussian2d", "sobel")
        else None
    )
    measured: List[ClientProcess] = []
    for i in range(n_measured):
        file = mds.create(
            f"/data/req{i}",
            size=spec.request_bytes,
            n_servers=1,
            first_server=i % spec.n_storage,
            seed=seed + i,
            meta=meta,
            n_replicas=spec.n_replicas,
        )
        tenant = tenant_seq[i // spec.n_storage] if tenant_seq else None
        # The request's app names its tenant (see _tenant_stats).
        request = PlannedRequest(
            tenant or "", i, 0, spec.arrival_offset(i), spec.request_bytes,
            True, spec.kernel,
        )
        # One requesting process per compute node (paper: "each
        # process requests one I/O operation at a time").
        measured.append(ClientProcess(i, [(request, mds.open(file.name))], tenant))

    # Background normal readers (Figure 1's normal-I/O share of the
    # queue): their data competes for the same NICs but they are not
    # part of the measured active workload.
    background: List[ClientProcess] = []
    for j in range(n_background):
        f = mds.create(
            f"/background/b{j}",
            size=spec.background_bytes,
            n_servers=1,
            first_server=j % spec.n_storage,
            seed=seed + 10_000 + j,
        )
        request = PlannedRequest(
            "background", j, 0, 0.0, spec.background_bytes, False, None
        )
        background.append(ClientProcess(
            n_measured + j, [(request, mds.open(f.name))], background=True
        ))

    # Background readers are created FIRST so their transfers sit at
    # the head of every NIC queue regardless of scheme — otherwise the
    # scheme whose data requests happen to enqueue earlier would dodge
    # the interference and the comparison would be unfair.
    outcomes = drive(system, background + measured, retry_policy, max_virtual_time)
    # Record order is request order: request i is process i.
    outcomes.sort(key=lambda o: o.request.process_index)
    return SchemeResult(**summarise(system, outcomes))
