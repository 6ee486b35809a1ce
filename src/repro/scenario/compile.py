"""Lowering a :class:`Scenario` onto the engine's native objects.

This module is the only translation layer between a scenario and the
engine: the same :class:`~repro.core.schemes.WorkloadSpec`,
:class:`~repro.faults.schedule.FaultSchedule`,
:class:`~repro.qos.config.QoSConfig` and
:class:`~repro.core.asc.RetryPolicy` objects come out whether the
scenario is run by ``repro scenario run`` (or its ``repro soak``
alias) or the bench harness.  Seeds are threaded explicitly — a
scenario plus a seed fully determines every lowered artifact.
:data:`BASELINES` lowers the protected pair onto each baseline mode.

Arrival processes beyond the engine's linear stagger (``bursty``
phase-synchronized NWP traffic, the ``diurnal`` curve, ``poisson``)
are lowered into explicit per-request arrival offsets
(``WorkloadSpec.arrival_times``), generated deterministically from the
run seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.config import MB
from repro.core.asc import RetryPolicy
from repro.core.schemes import WorkloadSpec
from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    scenario as fault_scenario,
    with_guaranteed_crash,
)
from repro.qos.config import QoSConfig
from repro.qos.tenancy import TenantSpec
from repro.scenario.schema import ArrivalShape, Scenario, ScenarioError

__all__ = [
    "PATIENT_RETRY",
    "BASELINES",
    "arrival_offsets",
    "compile_workload",
    "compile_qos",
    "compile_retry",
    "compile_faults",
    "strip_guarantees",
    "validate_scenario",
]


# -- arrival processes --------------------------------------------------------

def arrival_offsets(
    arrival: ArrivalShape, n: int, seed: int
) -> Tuple[float, ...]:
    """Per-request arrival offsets for the non-linear disciplines.

    Returns an empty tuple for ``batch``/``spaced`` (those lower onto
    the engine's native spacing).  Offsets are positional: request *i*
    keeps its node (``i % n_storage``) and tenant (interleave
    position), only its arrival instant moves.
    """
    if arrival.process in ("batch", "spaced"):
        return ()
    if arrival.process == "poisson":
        rng = random.Random(seed * 1_000_003 + 101)
        clock = 0.0
        out: List[float] = []
        for _ in range(n):
            clock += rng.expovariate(arrival.rate)
            out.append(round(clock, 9))
        return tuple(out)
    if arrival.process == "bursty":
        # Phase-synchronized bursts: request i joins phase i % phases,
        # so every phase carries the same tenant/node mix and the whole
        # fleet slams the servers together at each phase boundary.
        rng = random.Random(seed * 1_000_003 + 211)
        return tuple(
            round(
                (i % arrival.phases) * arrival.phase_gap
                + (rng.uniform(0.0, arrival.phase_jitter)
                   if arrival.phase_jitter > 0 else 0.0),
                9,
            )
            for i in range(n)
        )
    if arrival.process == "diurnal":
        return _diurnal_offsets(arrival, n)
    raise ScenarioError(
        "workload.arrival.process", f"unknown process {arrival.process!r}"
    )


def _diurnal_offsets(arrival: ArrivalShape, n: int) -> Tuple[float, ...]:
    """Inverse-CDF sampling of one sinusoidal intensity period.

    Intensity ``lam(t) = 1 + (peak_ratio - 1)/2 * (1 - cos(2*pi*t/P))``
    peaks at ``peak_ratio`` × the trough mid-period.  The *i*-th
    request takes the ``(i + 1/2)/n`` quantile of the normalized
    cumulative intensity — fully deterministic, no RNG, so the same
    curve shape at any n.
    """
    period = arrival.period
    amp = (arrival.peak_ratio - 1.0) / 2.0

    def cumulative(t: float) -> float:
        return t + amp * (t - period / (2 * math.pi)
                          * math.sin(2 * math.pi * t / period))

    total = cumulative(period)
    out: List[float] = []
    for i in range(n):
        target = (i + 0.5) / n * total
        lo, hi = 0.0, period
        for _ in range(60):
            mid = (lo + hi) / 2
            if cumulative(mid) < target:
                lo = mid
            else:
                hi = mid
        out.append(round((lo + hi) / 2, 9))
    return tuple(out)


# -- section lowering ---------------------------------------------------------

def _tenant_spec(t: Any) -> TenantSpec:
    return TenantSpec(
        name=t.name,
        weight=t.weight,
        rate=t.rate_mb * MB if t.rate_mb is not None else None,
        burst=t.burst_mb * MB if t.burst_mb is not None else None,
        ceiling=t.ceiling_mb * MB if t.ceiling_mb is not None else None,
        slo_latency=t.slo_latency,
        requests=t.requests,
    )


def compile_workload(scenario: Scenario, seed: int) -> WorkloadSpec:
    """The scenario's :class:`WorkloadSpec` for one seed."""
    w = scenario.workload
    c = scenario.cluster
    offsets = arrival_offsets(w.arrival, scenario.total_requests, seed)
    try:
        return WorkloadSpec(
            kernel=w.kernel,
            n_requests=w.n_requests,
            request_bytes=int(w.request_mb * MB),
            n_storage=c.n_storage,
            storage_cores=c.storage_cores,
            compute_cores=c.compute_cores,
            seed=seed,
            straggler_scheduler=scenario.straggler.enabled,
            n_replicas=c.n_replicas,
            hedge_delay_floor=scenario.straggler.hedge_delay_floor,
            hedge_quantile=scenario.straggler.hedge_quantile,
            tenants=tuple(_tenant_spec(t) for t in w.tenants),
            background_readers=w.background_readers,
            background_bytes=int(w.background_mb * MB),
            arrival_spacing=(
                w.arrival.spacing if w.arrival.process == "spaced" else 0.0
            ),
            arrival_times=offsets,
        )
    except ValueError as err:
        raise ScenarioError(f"{scenario.name}: workload", str(err)) from None


def compile_qos(scenario: Scenario) -> Optional[QoSConfig]:
    """The scenario's protection stack, or None when disarmed."""
    q = scenario.qos
    if not q.enabled:
        return None

    def mb(value: Optional[float]) -> Optional[float]:
        return value * MB if value is not None else None

    try:
        return QoSConfig(
            max_queue_depth=q.max_queue_depth,
            shed_active_first=q.shed_active_first,
            intake_rate=mb(q.intake_rate_mb),
            intake_burst=mb(q.intake_burst_mb),
            pace_rate=mb(q.pace_rate_mb),
            pace_burst=mb(q.pace_burst_mb),
            breaker_threshold=q.breaker_threshold,
            breaker_cooldown=q.breaker_cooldown,
            retry_budget=q.retry_budget,
            retry_replenish_rate=q.retry_replenish_rate,
            deadline=q.deadline,
            tenant_borrow=q.tenant_borrow,
            tenant_lend_reserve=q.tenant_lend_reserve,
            tenant_reclaim_fraction=q.tenant_reclaim_fraction,
        )
    except ValueError as err:
        raise ScenarioError(f"{scenario.name}: qos", str(err)) from None


#: The patient policy tenant-policed runs fall back to: denials
#: recover through retries, so the policy must outlast the backlog.
PATIENT_RETRY = RetryPolicy(
    timeout=60.0, max_retries=24, backoff_base=0.25, backoff_factor=2.0,
    backoff_cap=2.0,
)


def compile_retry(
    scenario: Scenario, schedule: Optional[FaultSchedule]
) -> Optional[RetryPolicy]:
    """The client retry policy: explicit > schedule-suggested > implied.

    A scenario with tenants (or QoS armed) but no explicit policy gets
    the patient default — per-tenant denials and shed work recover
    through the retry machinery, so running policed workloads without
    retries would fail requests the experiment means to delay.
    """
    r = scenario.retry
    if r is not None:
        try:
            return RetryPolicy(
                timeout=r.timeout,
                max_retries=r.max_retries,
                backoff_base=r.backoff_base,
                backoff_factor=r.backoff_factor,
                backoff_cap=r.backoff_cap,
                full_jitter=r.full_jitter,
            )
        except ValueError as err:
            raise ScenarioError(f"{scenario.name}: retry", str(err)) from None
    if schedule is not None:
        return schedule.retry
    if scenario.workload.tenants and scenario.qos.enabled:
        return PATIENT_RETRY
    return None


def compile_faults(scenario: Scenario, seed: int) -> Optional[FaultSchedule]:
    """The scenario's fault schedule for one seed, or None.

    Library scenarios get the run seed and the cluster size threaded
    into their seeded factories (``chaos``/``stragglers``) unless the
    overrides pin them; explicit event lists build a
    :class:`FaultSchedule` directly (construction-time validation
    included).
    """
    f = scenario.faults
    if not f.armed:
        return None
    if f.library is not None:
        kwargs: Dict[str, Any] = dict(f.overrides)
        if f.library == "chaos":
            kwargs.setdefault("seed", seed)
            kwargs.setdefault("n_targets", scenario.cluster.n_storage)
        elif f.library == "stragglers":
            kwargs.setdefault("seed", seed)
            kwargs.setdefault("n_servers", scenario.cluster.n_storage)
        if f.horizon is not None:
            kwargs.setdefault("horizon", f.horizon)
        try:
            schedule = fault_scenario(f.library, **kwargs)
        except TypeError as err:
            raise ScenarioError(
                f"{scenario.name}: faults.overrides",
                f"bad parameters for library scenario {f.library!r}: {err}",
            ) from None
        except ValueError as err:
            raise ScenarioError(
                f"{scenario.name}: faults.overrides", str(err)
            ) from None
    else:
        try:
            events = tuple(
                FaultEvent(
                    at=e.at,
                    kind=FaultKind(e.kind),
                    target=e.target,
                    factor=e.factor,
                    duration=e.duration,
                )
                for e in f.events
            )
            schedule = FaultSchedule(
                name=scenario.name,
                events=events,
                horizon=(
                    f.horizon if f.horizon is not None
                    else scenario.run.max_virtual_time
                ),
            )
        except ValueError as err:
            raise ScenarioError(
                f"{scenario.name}: faults.events", str(err)
            ) from None
    if f.guarantee_crash:
        schedule = with_guaranteed_crash(schedule, at=0.1, downtime=0.4)
    return schedule


# -- baseline modes -----------------------------------------------------------

def strip_guarantees(spec: WorkloadSpec) -> WorkloadSpec:
    """``spec`` with every tenant's rate, burst and ceiling removed.

    Demand, weight and SLO stay, so the tenants still compete and are
    still measured — only the per-tenant policing is gone.
    """
    return replace(spec, tenants=tuple(
        replace(t, rate=None, burst=None, ceiling=None, ceiling_burst=None)
        for t in spec.tenants
    ))


_Pair = Tuple[WorkloadSpec, Optional[QoSConfig]]

#: Baseline mode -> how the protected ``(spec, qos)`` pair becomes the
#: baseline's.  Both runs share the fault schedule and retry policy;
#: ``none`` (no baseline) has no entry.  ``static`` and ``unhedged``
#: exist to test one claim each, which the runner checks per pair:
#: borrowing is work-conserving, and the straggler scheduler cuts the
#: tail (``repro.scenario.invariants.check_baseline_claim``).
BASELINES: Mapping[str, Callable[[WorkloadSpec, Optional[QoSConfig]], _Pair]] = {
    # The QoS stack disarmed: raw contention, nothing policed or shed.
    "unprotected": lambda spec, qos: (spec, None),
    # QoS armed, per-tenant guarantees stripped.
    "unpoliced": lambda spec, qos: (strip_guarantees(spec), qos),
    # Guarantees kept, borrowing off: the strict static partition.
    "static": lambda spec, qos: (spec, replace(qos, tenant_borrow=False)),
    # Straggler-aware dispatch and hedging off; replicas kept.
    "unhedged": lambda spec, qos: (
        replace(spec, straggler_scheduler=False), qos
    ),
}


def validate_scenario(scenario: Scenario) -> None:
    """Deep validation: every artifact the scenario implies must build.

    The schema layer checks shapes and ranges; this pass actually
    lowers the scenario (first seed, protected and baseline pair) so
    cross-field rules enforced by the engine objects — dependent QoS
    knobs, tenant burst-without-rate, unknown kernels, unpaired fault
    events — surface at validation time with a scenario-relative path
    instead of mid-run.
    """
    from repro.kernels.registry import default_registry

    if scenario.workload.kernel not in default_registry.names():
        raise ScenarioError(
            f"{scenario.name}: workload.kernel",
            f"unknown kernel {scenario.workload.kernel!r}; known: "
            f"{sorted(default_registry.names())}",
        )
    seed = scenario.run.seeds[0]
    schedule = compile_faults(scenario, seed)
    qos = compile_qos(scenario)
    compile_retry(scenario, schedule)
    spec = compile_workload(scenario, seed)
    lower = BASELINES.get(scenario.run.baseline)
    if lower is not None:
        lower(spec, qos)
