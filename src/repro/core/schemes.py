"""End-to-end TS / AS / DOSAS workload runs (paper Sec. IV-A.3).

"We tested three schemes:

- Traditional Storage (TS): the servers are responsible for normal I/O
  operations.  The analysis kernels are executed at the clients.
- Normal Active Storage (AS): the kernels are always executed at
  server side.
- Dynamic Operation Scheduling Active Storage (DOSAS): the I/O
  operations are dynamically scheduled according to the system
  situation of storage nodes."

``run_scheme`` builds the whole machine (cluster, PVFS, ASS/ASC),
executes the workload and returns a :class:`SchemeResult` with the
total execution time, per-request latencies, achieved bandwidth and
the decision trace — the raw material for every evaluation figure.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Environment
from repro.sim.events import AllOf, Event
from repro.cluster.config import ClusterConfig, MB, NodeSpec, discfarm_config
from repro.cluster.network import SerialLink
from repro.cluster.probe import NodeProber
from repro.cluster.topology import ClusterTopology
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.obs.tracer import Tracer
from repro.core.ass import ActiveStorageServer
from repro.core.estimator import (
    AlwaysOffloadEstimator,
    ContentionEstimator,
    DOSASEstimator,
)
from repro.core.runtime import RuntimeConfig
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
    #: DOSAS estimator variant: "base", "smoothed", or "hysteresis"
    #: (the extended estimators of ``repro.core.estimators_ext``).
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
        if self.estimator_variant not in ("base", "smoothed", "hysteresis"):
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
    """Outcome of one scheme run."""

    scheme: Scheme
    spec: WorkloadSpec
    makespan: float
    per_request_times: List[float]
    bandwidth: float
    served_active: int
    demoted: int
    interrupted: int
    results: List[Any] = field(default_factory=list)
    policy_values: List[float] = field(default_factory=list)
    #: Fault-run extras (all zero/empty for fault-free runs).
    retries: int = 0
    retry_timeouts: int = 0
    failed_requests: int = 0
    wasted_bytes: int = 0
    fault_log: List[Dict[str, Any]] = field(default_factory=list)
    retry_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-server metric snapshots (``MetricsRegistry.summary()`` plus
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
    #: Per-request latency (finish − its own arrival), sorted — the
    #: tail-latency bench's raw material.  ``per_request_times`` keeps
    #: absolute finish times for backwards compatibility.
    per_request_latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        """Mean per-request completion time."""
        return sum(self.per_request_times) / len(self.per_request_times)

    @property
    def goodput(self) -> float:
        """Useful bytes per second of makespan.

        "Useful" counts each requested byte once — retries that re-read
        or re-process data add wall-clock but no goodput, which is what
        makes this the headline metric under faults.
        """
        if self.makespan <= 0:
            return float("inf")
        return self.spec.total_bytes / self.makespan


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
    registry: KernelRegistry,
    stale_probe_timeout: Optional[float] = None,
    kernel_models: Optional[Dict[str, KernelCostModel]] = None,
) -> ContentionEstimator:
    """Estimator for one server.

    ``kernel_models`` lets the caller precompute the registry's cost
    models once per run instead of once per server.
    """
    if scheme is Scheme.AS:
        return AlwaysOffloadEstimator()
    if scheme is Scheme.DOSAS:
        kwargs: Dict[str, Any] = dict(
            prober=prober,
            kernel_models=(
                kernel_models
                if kernel_models is not None
                else cost_models_from_registry(registry)
            ),
            bandwidth=config.network_bandwidth,
            scheduler=make_scheduler(spec.scheduler_name),
            probe_period=spec.probe_period if spec.allow_migration else None,
            degrade_by_cpu=spec.degrade_by_cpu,
            client_speed_factor=config.compute_spec.core_speed
            / config.storage_spec.core_speed,
            account_normal_traffic=spec.account_normal_traffic,
            stale_probe_timeout=stale_probe_timeout,
        )
        if spec.estimator_variant == "smoothed":
            from repro.core.estimators_ext import SmoothedDOSASEstimator

            return SmoothedDOSASEstimator(**kwargs)
        if spec.estimator_variant == "hysteresis":
            from repro.core.estimators_ext import HysteresisDOSASEstimator

            return HysteresisDOSASEstimator(**kwargs)
        return DOSASEstimator(**kwargs)
    raise ValueError(f"scheme {scheme} needs no estimator")


def run_scheme(
    scheme: Scheme,
    spec: WorkloadSpec,
    fault_schedule: Optional["FaultSchedule"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    max_virtual_time: Optional[float] = None,
    tracer: Optional["Tracer"] = None,
    qos: Optional[QoSConfig] = None,
    sim_scheduler: str = "calendar",
) -> SchemeResult:
    """Build the machine, run the workload, collect the numbers.

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

    ``sim_scheduler`` selects the engine's pending-event scheduler
    (``"calendar"`` or ``"heap"``, see ``repro.sim.scheduler``).  Both
    are result-identical per seed — the knob trades implementation for
    wall-clock speed only, which is why it is a run argument and not
    part of the (result-embedded) :class:`WorkloadSpec`.
    """
    env = Environment(scheduler=sim_scheduler)
    if tracer is not None:
        env.tracer = tracer
    retry = retry_policy or (
        fault_schedule.retry if fault_schedule is not None else None
    )
    seed = resolve_seed(spec.seed)
    n_background = spec.background_readers * spec.n_storage
    config = discfarm_config(
        n_storage=spec.n_storage,
        n_compute=spec.total_requests + n_background,
        jitter=spec.jitter,
    ).with_(
        storage_spec=NodeSpec(cores=spec.storage_cores),
        compute_spec=NodeSpec(cores=spec.compute_cores),
        network_latency=spec.network_latency,
        seed=seed,
    )
    from repro.cluster.network import FairShareLink

    link_cls = SerialLink if spec.link_sharing == "serial" else FairShareLink
    topo = ClusterTopology(env, config, link_cls=link_cls)
    mds = MetadataServer(
        n_io_servers=spec.n_storage, default_stripe_size=config.stripe_size
    )
    servers = [
        IOServer(
            env, sn, topo.link_for(sn), mds, config, server_index=i,
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

    # Tenant identity per measured request: the per-node interleave
    # (smooth weighted round-robin over each tenant's demand) repeats
    # on every storage node, and request i lands on node i % n_storage,
    # so position i // n_storage in the sequence names its tenant.
    tenant_seq = interleave(spec.tenants) if spec.tenants else ()

    def _tenant_of(i: int) -> Optional[str]:
        return tenant_seq[i // spec.n_storage] if tenant_seq else None

    registry = default_registry
    kernel = registry.get(spec.kernel)

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

    asses: List[ActiveStorageServer] = []
    if scheme in (Scheme.AS, Scheme.DOSAS):
        runtime_config = RuntimeConfig(
            kernel_slots=spec.kernel_slots,
            execute_kernels=spec.execute_kernels,
            invocation_overhead=spec.kernel_overhead,
        )
        models = (
            cost_models_from_registry(registry)
            if scheme is Scheme.DOSAS else None
        )
        for server in servers:
            prober = NodeProber(server.node, server.queue_stats)
            estimator = _build_estimator(
                scheme, spec, prober, config, registry,
                stale_probe_timeout=(
                    fault_schedule.stale_probe_timeout
                    if fault_schedule is not None else None
                ),
                kernel_models=models,
            )
            asses.append(
                ActiveStorageServer(
                    env, server, estimator, registry=registry, config=runtime_config
                )
            )

    injector: Optional["FaultInjector"] = None
    if fault_schedule is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(env, servers, fault_schedule).start()

    # One file per request, wholly resident on its home server.
    meta = (
        {"width": spec.image_width}
        if spec.kernel in ("gaussian2d", "sobel")
        else None
    )
    handles: List[FileHandle] = []
    for i in range(spec.total_requests):
        file = mds.create(
            f"/data/req{i}",
            size=spec.request_bytes,
            n_servers=1,
            first_server=i % spec.n_storage,
            seed=seed + i,
            meta=meta,
            n_replicas=spec.n_replicas,
        )
        handles.append(mds.open(file.name))

    # One requesting process per compute node (paper: "each process
    # requests one I/O operation at a time").
    client_rate = kernel.rate * config.compute_spec.core_speed
    ascs: List[ActiveStorageClient] = []

    def _make_asc(i: int) -> ActiveStorageClient:
        node = topo.compute_node(i)
        client = PVFSClient(env, node, servers, mds, tenant=_tenant_of(i))
        asc = ActiveStorageClient(
            env,
            node,
            client,
            registry=registry,
            execute_kernels=spec.execute_kernels,
            breakers=(
                BreakerBoard(
                    threshold=qos.breaker_threshold, cooldown=qos.breaker_cooldown
                )
                if qos is not None else None
            ),
            retry_budget=retry_budget,
            pace=(
                TokenBucket(qos.pace_rate, qos.pace_burst, start=env.now)
                if qos is not None and qos.pace_rate is not None
                else None
            ),
            deadline=qos.deadline if qos is not None else None,
            # Per-client seeded stream so full-jitter backoff is
            # deterministic yet de-synchronized across clients.
            rng=random.Random(seed * 1_000_003 + 9973 * i),
            dispatcher=dispatcher,
        )
        ascs.append(asc)
        return asc

    def _ts_request(i: int) -> Generator[Event, Any, Tuple[float, Any]]:
        asc = _make_asc(i)
        arrival = spec.arrival_offset(i)
        if arrival:
            yield env.timeout(arrival)
        yield from asc.read(handles[i], retry=retry)
        yield from asc.node.cpu.compute(float(spec.request_bytes), client_rate)
        result = None
        if spec.execute_kernels:
            file = mds.lookup(handles[i].name)
            data = file.read_bytes_as_array(0, spec.request_bytes, dtype=kernel.dtype)
            result = kernel.apply(data, meta=meta)
        return (env.now, result)

    def _active_request(i: int) -> Generator[Event, Any, Tuple[float, Any]]:
        asc = _make_asc(i)
        arrival = spec.arrival_offset(i)
        if arrival:
            yield env.timeout(arrival)
        outcome = yield from asc.read_ex(
            handles[i], spec.kernel, meta=meta, retry=retry
        )
        return (env.now, outcome)

    # Background normal readers (Figure 1's normal-I/O share of the
    # queue): their data competes for the same NICs but they are not
    # part of the measured active workload.
    background_handles: List[FileHandle] = []
    for j in range(n_background):
        f = mds.create(
            f"/background/b{j}",
            size=spec.background_bytes,
            n_servers=1,
            first_server=j % spec.n_storage,
            seed=seed + 10_000 + j,
        )
        background_handles.append(mds.open(f.name))

    def _background_reader(j: int) -> Generator[Event, Any, float]:
        node = topo.compute_node(spec.total_requests + j)
        client = PVFSClient(env, node, servers, mds)
        try:
            yield from client.read(background_handles[j])
        except PVFSError:
            pass  # background traffic lost to an injected fault is just gone
        return env.now

    # Background readers are created FIRST so their transfers sit at
    # the head of every NIC queue regardless of scheme — otherwise the
    # scheme whose data requests happen to enqueue earlier would dodge
    # the interference and the comparison would be unfair.
    for j in range(n_background):
        env.process(_background_reader(j))
    maker = _ts_request if scheme is Scheme.TS else _active_request
    procs = [env.process(maker(i)) for i in range(spec.total_requests)]
    done = AllOf(env, procs)
    deadline = max_virtual_time or (
        fault_schedule.horizon if fault_schedule is not None else None
    )
    if deadline is not None:
        from repro.faults.injector import run_with_watchdog

        run_with_watchdog(env, done, deadline)
    else:
        env.run(until=done)

    finish_times = [p.value[0] for p in procs]
    outcomes = [p.value[1] for p in procs]
    makespan = max(finish_times)
    # Per-request latency: finish relative to the request's own
    # staggered arrival — what a tail percentile should be taken over.
    latencies = sorted(
        t - spec.arrival_offset(i) for i, t in enumerate(finish_times)
    )

    served_active = demoted = interrupted = 0
    policy_values: List[float] = []
    if scheme is Scheme.TS:
        demoted = spec.total_requests
    else:
        for ass in asses:
            stats = ass.stats
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
            est = ass.estimator
            if isinstance(est, DOSASEstimator):
                policy_values.extend(p.objective_value for p in est.policy_log)

    results: List[Any] = []
    if spec.execute_kernels:
        if scheme is Scheme.TS:
            results = outcomes
        else:
            results = [o.result for o in outcomes]

    retries = sum(a.stats["retries"] for a in ascs)
    retry_timeouts = sum(a.stats["retry_timeouts"] for a in ascs)
    retry_events = sorted(
        (e for a in ascs for e in a.retry_log),
        key=lambda e: (e["time"], e["rid"], e["attempt"]),
    )
    failed_requests = wasted_bytes = 0
    for ass in asses:
        failed_requests += ass.stats["failed"]
        wasted_bytes += ass.stats["wasted_bytes"]

    server_metrics: List[Dict[str, Any]] = [
        {
            "server": s.node.name,
            "outstanding_final": len(s.outstanding),
            **s.metrics.summary(),
        }
        for s in servers
    ]

    def _server_sum(name: str) -> int:
        return int(sum(s.metrics.get_counter(name) for s in servers))

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
            retry_budget.remaining if retry_budget is not None else None
        ),
        # Hedged-request ledger (mirrored onto the result's top level);
        # the scenario invariant engine asserts won + wasted == issued.
        "hedges_issued": _asc_sum("hedges_issued"),
        "hedges_won": _asc_sum("hedges_won"),
        "hedges_wasted": _asc_sum("hedges_wasted"),
    }
    if dispatcher is not None:
        qos_stats["straggler"] = {
            **{k: dispatcher.stats[k] for k in sorted(dispatcher.stats)},
            "latency_board": dispatcher.board.snapshot(),
        }

    if spec.tenants:
        # Per-tenant goodput / SLO attainment from the request-level
        # latencies, plus the borrow/reclaim ledgers aggregated over
        # every server.  Key order is sorted everywhere so the report
        # serialises byte-identically per seed.
        lat_by_tenant: Dict[str, List[float]] = {t.name: [] for t in spec.tenants}
        for i, fin in enumerate(finish_times):
            name = _tenant_of(i)
            assert name is not None
            lat_by_tenant[name].append(fin - spec.arrival_offset(i))
        ledger_totals: Dict[str, Dict[str, float]] = {}
        for s in servers:
            ledger = s.admission.tenants if s.admission is not None else None
            if ledger is None:
                continue
            for name, counters in ledger.snapshot().items():
                agg = ledger_totals.setdefault(
                    name, {k: 0.0 for k in counters}
                )
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
        qos_stats["tenants"] = {
            "borrow_enabled": (
                bool(qos.tenant_borrow) if qos is not None else None
            ),
            "per_tenant": per_tenant,
        }

    return SchemeResult(
        scheme=scheme,
        spec=spec,
        makespan=makespan,
        per_request_times=sorted(finish_times),
        bandwidth=spec.total_bytes / makespan if makespan > 0 else float("inf"),
        served_active=served_active,
        demoted=demoted,
        interrupted=interrupted,
        results=results,
        policy_values=policy_values,
        retries=retries,
        retry_timeouts=retry_timeouts,
        failed_requests=failed_requests,
        wasted_bytes=wasted_bytes,
        fault_log=list(injector.log) if injector is not None else [],
        retry_events=retry_events,
        server_metrics=server_metrics,
        qos_stats=qos_stats,
        hedges_issued=int(qos_stats["hedges_issued"]),
        hedges_won=int(qos_stats["hedges_won"]),
        hedges_wasted=int(qos_stats["hedges_wasted"]),
        per_request_latencies=latencies,
    )
