"""The declarative scenario schema: typed sections, strict validation.

A *scenario* is one self-contained description of an experiment: the
cluster shape, the workload and tenant mix, the arrival process, the
fault/chaos schedule, and the QoS / straggler / run knobs, expressed
as one plain mapping loadable from YAML or JSON
(``repro.scenario.loader``).  The chaos soak, the tenant-fairness
comparison and the straggler tail are library entries of this one
shape (``repro.scenario.library``).

Parsing is *strict*: unknown keys and invalid values are rejected with
a :class:`ScenarioError` carrying the dotted path to the offending
field (``workload.tenants[1].rate_mb: must be positive``), so a typo
in a scenario file fails loudly at load time instead of silently
running the wrong experiment.  ``scenario_to_dict`` is the exact
inverse of ``scenario_from_dict`` — load → dump → load is the
identity, which the round-trip tests pin.

Units follow the human-authored convention: data sizes and rates are
megabytes (``*_mb`` keys); times are simulated seconds.  The compiler
(``repro.scenario.compile``) converts to the byte-denominated engine
objects (:class:`~repro.core.schemes.WorkloadSpec`,
:class:`~repro.qos.config.QoSConfig`, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

from repro.core.asc import RetryPolicy
from repro.faults.schedule import SCENARIOS as FAULT_LIBRARY
from repro.faults.schedule import FaultKind

__all__ = [
    "ScenarioError",
    "ClusterShape",
    "ArrivalShape",
    "TenantShape",
    "WorkloadShape",
    "FaultEventShape",
    "FaultShape",
    "QoSShape",
    "StragglerShape",
    "RunShape",
    "InvariantShape",
    "Scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]


class ScenarioError(ValueError):
    """Invalid scenario data, naming the path to the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


# -- primitive field parsers --------------------------------------------------
#
# Each parser is ``(value, path) -> parsed`` and raises ScenarioError
# with the given path on any mismatch.  Booleans are checked before
# ints (bool is a subclass of int and a scenario saying ``requests:
# true`` is a bug, not a demand of one).

_Parser = Callable[[Any, str], Any]


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected true/false, got {value!r}")
    return value


def _int(
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
    none_ok: bool = False,
) -> _Parser:
    def parse(value: Any, path: str) -> Optional[int]:
        if value is None and none_ok:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ScenarioError(path, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ScenarioError(path, f"must be <= {maximum}, got {value}")
        return value
    return parse


def _num(
    minimum: Optional[float] = None,
    exclusive_minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    none_ok: bool = False,
) -> _Parser:
    def parse(value: Any, path: str) -> Optional[float]:
        if value is None and none_ok:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(path, f"expected a number, got {value!r}")
        out = float(value)
        if out != out or out in (float("inf"), float("-inf")):
            raise ScenarioError(path, f"must be finite, got {value!r}")
        if minimum is not None and out < minimum:
            raise ScenarioError(path, f"must be >= {minimum}, got {value}")
        if exclusive_minimum is not None and out <= exclusive_minimum:
            raise ScenarioError(path, f"must be > {exclusive_minimum}, got {value}")
        if maximum is not None and out > maximum:
            raise ScenarioError(path, f"must be <= {maximum}, got {value}")
        return out
    return parse


def _str(
    choices: Optional[Tuple[str, ...]] = None,
    none_ok: bool = False,
    nonempty: bool = False,
) -> _Parser:
    def parse(value: Any, path: str) -> Optional[str]:
        if value is None and none_ok:
            return None
        if not isinstance(value, str):
            raise ScenarioError(path, f"expected a string, got {value!r}")
        if nonempty and not value:
            raise ScenarioError(path, "must be non-empty")
        if choices is not None and value not in choices:
            raise ScenarioError(
                path, f"must be one of {sorted(choices)}, got {value!r}"
            )
        return value
    return parse


def _seq(item: _Parser, as_tuple: Type[tuple] = tuple) -> _Parser:
    def parse(value: Any, path: str) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(path, f"expected a list, got {value!r}")
        return as_tuple(
            item(entry, f"{path}[{i}]") for i, entry in enumerate(value)
        )
    return parse


def _scalar_map(value: Any, path: str) -> Dict[str, Any]:
    """A mapping of plain scalars (fault-factory overrides)."""
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected a mapping, got {value!r}")
    out: Dict[str, Any] = {}
    for key in sorted(value):
        if not isinstance(key, str):
            raise ScenarioError(path, f"keys must be strings, got {key!r}")
        entry = value[key]
        if entry is not None and not isinstance(entry, (bool, int, float, str)):
            raise ScenarioError(
                f"{path}.{key}", f"expected a scalar, got {entry!r}"
            )
        out[key] = entry
    return out


_T = TypeVar("_T")


def _section(
    cls: Type[_T], table: Mapping[str, _Parser]
) -> _Parser:
    """Parser for a nested section dataclass with a field table."""
    def parse(value: Any, path: str) -> _T:
        return _parse_fields(cls, table, value, path)
    return parse


def _parse_fields(
    cls: Type[_T], table: Mapping[str, _Parser], data: Any, path: str
) -> _T:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected a mapping, got {data!r}")
    known = set(table)
    for key in sorted(data, key=str):
        if not isinstance(key, str) or key not in known:
            raise ScenarioError(
                f"{path}.{key}",
                f"unknown key; known keys: {sorted(known)}",
            )
    kwargs = {
        key: table[key](data[key], f"{path}.{key}")
        for key in sorted(data)
    }
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except ValueError as err:
        # A section-level cross-field rule (raised by __post_init__).
        raise ScenarioError(path, str(err)) from None


# -- the sections -------------------------------------------------------------

@dataclass(frozen=True)
class ClusterShape:
    """How big the simulated machine is."""

    n_storage: int = 2
    storage_cores: int = 2
    compute_cores: int = 8
    n_replicas: int = 1

    def __post_init__(self) -> None:
        if self.n_replicas > self.n_storage:
            raise ValueError(
                f"n_replicas {self.n_replicas} exceeds n_storage "
                f"{self.n_storage}"
            )


_CLUSTER_FIELDS: Dict[str, _Parser] = {
    "n_storage": _int(minimum=1),
    "storage_cores": _int(minimum=1),
    "compute_cores": _int(minimum=1),
    "n_replicas": _int(minimum=1),
}


#: Arrival disciplines the compiler knows how to lower.
ARRIVAL_PROCESSES: Tuple[str, ...] = (
    "batch", "spaced", "poisson", "bursty", "diurnal",
)


@dataclass(frozen=True)
class ArrivalShape:
    """When requests arrive.

    ``batch``
        Everything at t=0 (the paper's experiments).
    ``spaced``
        Linear stagger: request *i* arrives at ``spacing * i``.
    ``poisson``
        Seeded exponential inter-arrivals at ``rate`` requests/s.
    ``bursty``
        NWP-workflow phase traffic (the DAOS paper's shape): requests
        split across ``phases`` synchronized bursts ``phase_gap``
        seconds apart, each request jittered uniformly within
        ``[0, phase_jitter]`` of its phase start.
    ``diurnal``
        A one-period sinusoidal intensity curve: arrival density peaks
        ``peak_ratio`` × the trough, spread over ``period`` seconds —
        the compressed shape of a million-user day.
    """

    process: str = "batch"
    spacing: float = 0.25
    rate: float = 8.0
    phases: int = 4
    phase_gap: float = 2.0
    phase_jitter: float = 0.05
    period: float = 16.0
    peak_ratio: float = 4.0

    def __post_init__(self) -> None:
        if self.peak_ratio < 1:
            raise ValueError("peak_ratio must be >= 1")


_ARRIVAL_FIELDS: Dict[str, _Parser] = {
    "process": _str(choices=ARRIVAL_PROCESSES),
    "spacing": _num(exclusive_minimum=0.0),
    "rate": _num(exclusive_minimum=0.0),
    "phases": _int(minimum=1),
    "phase_gap": _num(exclusive_minimum=0.0),
    "phase_jitter": _num(minimum=0.0),
    "period": _num(exclusive_minimum=0.0),
    "peak_ratio": _num(),
}


@dataclass(frozen=True)
class TenantShape:
    """One tenant's demand and QoS contract, in scenario units (MB)."""

    name: str
    requests: int = 1
    weight: float = 1.0
    rate_mb: Optional[float] = None
    burst_mb: Optional[float] = None
    ceiling_mb: Optional[float] = None
    slo_latency: Optional[float] = None


_TENANT_FIELDS: Dict[str, _Parser] = {
    "name": _str(nonempty=True),
    "requests": _int(minimum=0),
    "weight": _num(exclusive_minimum=0.0),
    "rate_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "burst_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "ceiling_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "slo_latency": _num(exclusive_minimum=0.0, none_ok=True),
}


@dataclass(frozen=True)
class WorkloadShape:
    """What the clients ask for."""

    kernel: str = "gaussian2d"
    n_requests: int = 8
    request_mb: float = 16.0
    tenants: Tuple[TenantShape, ...] = ()
    background_readers: int = 0
    background_mb: float = 128.0
    arrival: ArrivalShape = field(default_factory=ArrivalShape)

    def __post_init__(self) -> None:
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")


_WORKLOAD_FIELDS: Dict[str, _Parser] = {
    "kernel": _str(nonempty=True),
    "n_requests": _int(minimum=1),
    "request_mb": _num(exclusive_minimum=0.0),
    "tenants": _seq(_section(TenantShape, _TENANT_FIELDS)),
    "background_readers": _int(minimum=0),
    "background_mb": _num(exclusive_minimum=0.0),
    "arrival": _section(ArrivalShape, _ARRIVAL_FIELDS),
}


#: FaultKind values accepted by explicit event lists.
FAULT_KINDS: Tuple[str, ...] = tuple(sorted(k.value for k in FaultKind))


@dataclass(frozen=True)
class FaultEventShape:
    """One explicit fault action (mirrors repro.faults.FaultEvent)."""

    at: float
    kind: str
    target: int = 0
    factor: float = 0.5
    duration: Optional[float] = None


_FAULT_EVENT_FIELDS: Dict[str, _Parser] = {
    "at": _num(minimum=0.0),
    "kind": _str(choices=FAULT_KINDS),
    "target": _int(minimum=0),
    "factor": _num(exclusive_minimum=0.0, maximum=1.0),
    "duration": _num(exclusive_minimum=0.0, none_ok=True),
}


@dataclass(frozen=True)
class FaultShape:
    """What breaks during the run.

    Either a named library scenario from :data:`repro.faults.SCENARIOS`
    (``library`` + factory-parameter ``overrides``) or an explicit
    ``events`` list — never both.  ``guarantee_crash`` appends a crash
    at 0.1 s (0.4 s down, server 0) when the (possibly seeded) schedule
    contains no crash at all, so every seed feels one.  A crash drawn
    late in the schedule counts: the crash need not land early.
    """

    library: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    events: Tuple[FaultEventShape, ...] = ()
    horizon: Optional[float] = None
    guarantee_crash: bool = False

    def __post_init__(self) -> None:
        if self.library is not None and self.events:
            raise ValueError(
                "library and events are mutually exclusive — name a "
                "library scenario or list explicit events, not both"
            )
        if self.overrides and self.library is None:
            raise ValueError("overrides need a library scenario")
        if self.library is not None and self.library not in FAULT_LIBRARY:
            raise ValueError(
                f"unknown fault library scenario {self.library!r}; "
                f"known: {sorted(FAULT_LIBRARY)}"
            )

    @property
    def armed(self) -> bool:
        """Whether this scenario injects any faults at all."""
        return self.library is not None or bool(self.events)


_FAULT_FIELDS: Dict[str, _Parser] = {
    "library": _str(none_ok=True),
    "overrides": _scalar_map,
    "events": _seq(_section(FaultEventShape, _FAULT_EVENT_FIELDS)),
    "horizon": _num(exclusive_minimum=0.0, none_ok=True),
    "guarantee_crash": _bool,
}


@dataclass(frozen=True)
class QoSShape:
    """The overload-protection stack (mirrors repro.qos.QoSConfig).

    ``enabled: false`` disarms the whole stack — the scenario's
    *protected* runs then carry no QoS at all (used for pure
    contention studies).  Rates are MB/s, bursts MB.
    """

    enabled: bool = True
    max_queue_depth: Optional[int] = 16
    shed_active_first: bool = True
    intake_rate_mb: Optional[float] = None
    intake_burst_mb: Optional[float] = None
    pace_rate_mb: Optional[float] = None
    pace_burst_mb: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 1.0
    retry_budget: Optional[int] = 64
    retry_replenish_rate: Optional[float] = None
    deadline: Optional[float] = None
    tenant_borrow: bool = True
    tenant_lend_reserve: float = 0.5
    tenant_reclaim_fraction: float = 0.5


_QOS_FIELDS: Dict[str, _Parser] = {
    "enabled": _bool,
    "max_queue_depth": _int(minimum=1, none_ok=True),
    "shed_active_first": _bool,
    "intake_rate_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "intake_burst_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "pace_rate_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "pace_burst_mb": _num(exclusive_minimum=0.0, none_ok=True),
    "breaker_threshold": _int(minimum=1),
    "breaker_cooldown": _num(exclusive_minimum=0.0),
    "retry_budget": _int(minimum=0, none_ok=True),
    "retry_replenish_rate": _num(exclusive_minimum=0.0, none_ok=True),
    "deadline": _num(exclusive_minimum=0.0, none_ok=True),
    "tenant_borrow": _bool,
    "tenant_lend_reserve": _num(minimum=0.0, maximum=1.0),
    "tenant_reclaim_fraction": _num(minimum=0.0, maximum=1.0),
}


#: The ``retry`` section parses straight into the engine's
#: :class:`~repro.core.asc.RetryPolicy` (its units are the scenario's).
_RETRY_FIELDS: Dict[str, _Parser] = {
    "timeout": _num(exclusive_minimum=0.0),
    "max_retries": _int(minimum=0),
    "backoff_base": _num(minimum=0.0),
    "backoff_factor": _num(minimum=1.0),
    "backoff_cap": _num(minimum=0.0),
    "full_jitter": _bool,
}


@dataclass(frozen=True)
class StragglerShape:
    """The straggler-aware client dispatcher (repro.straggler)."""

    enabled: bool = False
    hedge_delay_floor: float = 0.5
    hedge_quantile: float = 95.0


_STRAGGLER_FIELDS: Dict[str, _Parser] = {
    "enabled": _bool,
    "hedge_delay_floor": _num(exclusive_minimum=0.0),
    "hedge_quantile": _num(exclusive_minimum=0.0, maximum=100.0),
}


#: Baseline modes the runner can pair a protected run against (see
#: ``repro.scenario.compile.BASELINES``).
BASELINE_MODES: Tuple[str, ...] = (
    "unprotected", "unpoliced", "static", "unhedged", "none",
)


@dataclass(frozen=True)
class RunShape:
    """How the runner executes the scenario."""

    seeds: Tuple[int, ...] = (0,)
    schemes: Tuple[str, ...] = ("dosas",)
    baseline: str = "unprotected"
    max_virtual_time: float = 120.0

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"duplicate schemes in {list(self.schemes)}")


_RUN_FIELDS: Dict[str, _Parser] = {
    "seeds": _seq(_int(minimum=0)),
    "schemes": _seq(_str(choices=("ts", "as", "dosas"))),
    "baseline": _str(choices=BASELINE_MODES),
    "max_virtual_time": _num(exclusive_minimum=0.0),
}


@dataclass(frozen=True)
class InvariantShape:
    """Which invariant families the engine asserts on every run.

    ``slo_floor`` names the tenant whose SLO attainment the protected
    run must hold at or above the baseline run's (per seed) —
    the isolation claim of the noisy-neighbor scenarios.
    ``min_attainment`` adds an absolute floor on that tenant's
    protected attainment.
    """

    conservation: bool = True
    hedge: bool = True
    ledger: bool = True
    slo_floor: Optional[str] = None
    min_attainment: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_attainment is not None and self.slo_floor is None:
            raise ValueError("min_attainment needs slo_floor")


_INVARIANT_FIELDS: Dict[str, _Parser] = {
    "conservation": _bool,
    "hedge": _bool,
    "ledger": _bool,
    "slo_floor": _str(none_ok=True, nonempty=True),
    "min_attainment": _num(minimum=0.0, maximum=1.0, none_ok=True),
}


@dataclass(frozen=True)
class Scenario:
    """One fully validated scenario."""

    name: str
    description: str = ""
    tags: Tuple[str, ...] = ()
    cluster: ClusterShape = field(default_factory=ClusterShape)
    workload: WorkloadShape = field(default_factory=WorkloadShape)
    faults: FaultShape = field(default_factory=FaultShape)
    qos: QoSShape = field(default_factory=QoSShape)
    retry: Optional[RetryPolicy] = None
    straggler: StragglerShape = field(default_factory=StragglerShape)
    run: RunShape = field(default_factory=RunShape)
    invariants: InvariantShape = field(default_factory=InvariantShape)

    def __post_init__(self) -> None:
        # Cross-section rules, raised with the most specific path the
        # top-level parser can attach (see scenario_from_dict).
        if self.invariants.slo_floor is not None:
            match = [
                t for t in self.workload.tenants
                if t.name == self.invariants.slo_floor
            ]
            if not match:
                raise ScenarioError(
                    "invariants.slo_floor",
                    f"names tenant {self.invariants.slo_floor!r} but the "
                    "workload declares no such tenant",
                )
            if match[0].slo_latency is None:
                raise ScenarioError(
                    "invariants.slo_floor",
                    f"tenant {self.invariants.slo_floor!r} has no "
                    "slo_latency to measure attainment against",
                )
        baseline = self.run.baseline
        if baseline in ("unpoliced", "static") and not self.workload.tenants:
            raise ScenarioError(
                "run.baseline",
                f"{baseline!r} changes tenant policing, but the workload "
                "declares no tenants",
            )
        if baseline == "static" and not (
            self.qos.enabled and self.qos.tenant_borrow
        ):
            raise ScenarioError(
                "run.baseline",
                "'static' turns token borrowing off, but the protected "
                "run does not borrow (qos disabled or tenant_borrow off)",
            )
        if baseline == "unhedged" and not self.straggler.enabled:
            raise ScenarioError(
                "run.baseline",
                "'unhedged' turns the straggler scheduler off, but "
                "straggler.enabled is already false",
            )

    @property
    def per_node_requests(self) -> int:
        """Measured requests each storage node sees."""
        if self.workload.tenants:
            return sum(t.requests for t in self.workload.tenants)
        return self.workload.n_requests

    @property
    def total_requests(self) -> int:
        """Measured requests across the whole machine."""
        return self.per_node_requests * self.cluster.n_storage


_SCENARIO_FIELDS: Dict[str, _Parser] = {
    "name": _str(nonempty=True),
    "description": _str(),
    "tags": _seq(_str(nonempty=True)),
    "cluster": _section(ClusterShape, _CLUSTER_FIELDS),
    "workload": _section(WorkloadShape, _WORKLOAD_FIELDS),
    "faults": _section(FaultShape, _FAULT_FIELDS),
    "qos": _section(QoSShape, _QOS_FIELDS),
    "retry": _section(RetryPolicy, _RETRY_FIELDS),
    "straggler": _section(StragglerShape, _STRAGGLER_FIELDS),
    "run": _section(RunShape, _RUN_FIELDS),
    "invariants": _section(InvariantShape, _INVARIANT_FIELDS),
}


def scenario_from_dict(data: Any, source: str = "scenario") -> Scenario:
    """Parse and validate one scenario mapping.

    ``source`` prefixes every error path (the loader passes the file
    name), so a bad field reads
    ``nic.yaml: workload.request_mb: must be > 0.0``.
    """
    try:
        if not isinstance(data, dict):
            raise ScenarioError("", f"expected a mapping, got {data!r}")
        if "name" not in data:
            raise ScenarioError("name", "required key is missing")
        # ``retry`` is genuinely optional (None means "use the fault
        # schedule's suggested policy"), so it bypasses the generic
        # default-construction of absent sections.
        known = set(_SCENARIO_FIELDS)
        for key in sorted(data, key=str):
            if not isinstance(key, str) or key not in known:
                raise ScenarioError(
                    str(key), f"unknown key; known keys: {sorted(known)}"
                )
        kwargs: Dict[str, Any] = {}
        for key in sorted(data):
            if key == "retry" and data[key] is None:
                continue
            kwargs[key] = _SCENARIO_FIELDS[key](data[key], key)
        return Scenario(**kwargs)
    except ScenarioError as err:
        if source:
            raise ScenarioError(
                f"{source}: {err.path}" if err.path else source, err.reason
            ) from None
        raise


def _shape_to_dict(shape: Any) -> Any:
    if isinstance(shape, tuple):
        return [_shape_to_dict(entry) for entry in shape]
    if isinstance(shape, dict):
        return {key: shape[key] for key in sorted(shape)}
    if hasattr(shape, "__dataclass_fields__"):
        return {
            f.name: _shape_to_dict(getattr(shape, f.name))
            for f in dataclass_fields(shape)
        }
    return shape


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """The canonical plain-data rendering (inverse of from_dict).

    Every field is emitted, defaults included, in declaration order —
    so a dumped scenario is a complete, self-documenting record and
    load → dump → load is the identity.
    """
    out: Dict[str, Any] = {}
    for f in dataclass_fields(Scenario):
        value = getattr(scenario, f.name)
        out[f.name] = _shape_to_dict(value) if value is not None else None
    return out
