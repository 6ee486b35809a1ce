"""Executing scenarios: protected runs, baselines, invariants, report.

``run_scenario`` is the engine behind ``repro scenario run`` (and its
``repro soak`` alias) and the bench harness: per seed and per scheme
it executes the *protected* run (the scenario's QoS / straggler /
retry stack as written), pairs it with the scenario's baseline mode,
pushes every completed run through the invariant engine, and checks
the pair's cross-run claims.  The report is plain data with a
byte-deterministic JSON rendering — same scenario file + same seed ⇒
identical text, which the determinism tests and the CI job pin.

Baseline modes (``run.baseline``) are one table,
:data:`repro.scenario.compile.BASELINES`; every mode shares the
protected run's fault schedule and retry policy:

``unprotected``
    The QoS stack disarmed entirely — raw contention.
``unpoliced``
    QoS armed, every tenant's rate/burst/ceiling stripped.
``static``
    Tenant guarantees kept, token borrowing off.  The pair checks work
    conservation: protected goodput at or above the static partition's.
``unhedged``
    The straggler scheduler off, replicas kept.  The pair checks the
    tail: protected p99 at or below the unhedged run's.
``none``
    No baseline (sanity scenarios).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.schemes import Scheme, SchemeResult, WorkloadSpec, run_scheme
from repro.faults.injector import WatchdogTimeout
from repro.faults.schedule import FaultSchedule
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.metadata import PVFSError
from repro.pvfs.requests import reset_request_ids
from repro.scenario.compile import (
    BASELINES,
    compile_faults,
    compile_qos,
    compile_retry,
    compile_workload,
)
from repro.scenario.invariants import (
    Violation,
    check_baseline_claim,
    check_run,
    check_slo_floor,
    tenant_attainment,
)
from repro.scenario.schema import Scenario
from repro.sim.monitor import percentile

__all__ = [
    "ScenarioRun",
    "ScenarioSeedResult",
    "ScenarioReport",
    "run_scenario",
]

_SCHEMES: Dict[str, Scheme] = {s.value: s for s in Scheme}

#: The per-request latency quantiles every completed run reports.
_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


@dataclass
class ScenarioRun:
    """One execution (protected or baseline) of one scheme, one seed."""

    mode: str
    scheme: str
    goodput: float = 0.0
    makespan: float = float("inf")
    retries: int = 0
    retry_timeouts: int = 0
    served_active: int = 0
    demoted: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    #: tenant name -> SLO attainment (only tenants with an SLO).
    attainment: Dict[str, float] = field(default_factory=dict)
    #: Per-request latency ``p50``/``p95``/``p99``/``max`` (seconds).
    latency: Dict[str, float] = field(default_factory=dict)
    #: The run's QoS counters (admission, breakers, tenant ledgers).
    qos_stats: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Non-empty when the run died (watchdog / RetryExhausted).  For
    #: baselines that is admissible degradation evidence; a dead
    #: *protected* run is itself a lifecycle violation.
    failed: str = ""


@dataclass
class ScenarioSeedResult:
    """Every run under one seed, plus the cross-run floor checks."""

    seed: int
    schedule: str
    runs: List[ScenarioRun] = field(default_factory=list)
    #: slo_floor / work_conservation / tail violations (they compare
    #: two runs, so they live at the seed level rather than on either
    #: run), each prefixed with ``[scheme]``.
    cross_violations: List[str] = field(default_factory=list)


@dataclass
class ScenarioReport:
    """The whole campaign for one scenario."""

    scenario: str
    tags: List[str]
    baseline: str
    seeds: List[ScenarioSeedResult] = field(default_factory=list)

    def violations(self) -> List[str]:
        """Every violation across all seeds, labelled for humans."""
        out: List[str] = []
        for sr in self.seeds:
            for run in sr.runs:
                out.extend(
                    f"seed {sr.seed} [{run.scheme}/{run.mode}]: {v}"
                    for v in run.violations
                )
            out.extend(f"seed {sr.seed}: {v}" for v in sr.cross_violations)
        return out

    @property
    def clean(self) -> bool:
        return not self.violations()

    def to_json(self) -> str:
        """Byte-stable rendering: same scenario + seed ⇒ identical text."""
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _attainments(result: SchemeResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for t in sorted(result.spec.tenants, key=lambda t: t.name):
        value = tenant_attainment(result.qos_stats, t.name)
        if value is not None:
            out[t.name] = value
    return out


def _latency(latencies: List[float]) -> Dict[str, float]:
    out = {f"p{q:g}": percentile(latencies, q) for q in _QUANTILES}
    out["max"] = max(latencies)
    return out


def _execute(
    scenario: Scenario,
    mode: str,
    scheme: Scheme,
    spec: WorkloadSpec,
    schedule: Optional[FaultSchedule],
    qos: Any,
    retry: Any,
) -> Tuple[ScenarioRun, Optional[SchemeResult]]:
    # Process-global id sequences restart so the same scenario + seed
    # serialises byte-identically no matter what ran before it.
    reset_request_ids()
    reset_parent_ids()
    try:
        result = run_scheme(
            scheme,
            spec,
            fault_schedule=schedule,
            retry_policy=retry,
            max_virtual_time=scenario.run.max_virtual_time,
            qos=qos,
        )
    except WatchdogTimeout as err:
        run = ScenarioRun(
            mode=mode, scheme=scheme.value,
            failed=f"watchdog timeout: {err}",
        )
        if mode == "protected":
            run.violations.append(
                str(Violation("lifecycle", f"protected run hung: {err}"))
            )
        return run, None
    except PVFSError as err:
        run = ScenarioRun(
            mode=mode, scheme=scheme.value,
            failed=f"{type(err).__name__}: {err}",
        )
        if mode == "protected":
            run.violations.append(str(Violation(
                "lifecycle", f"protected run died: {type(err).__name__}: {err}"
            )))
        return run, None
    run = ScenarioRun(
        mode=mode,
        scheme=scheme.value,
        goodput=result.goodput,
        makespan=result.makespan,
        retries=result.retries,
        retry_timeouts=result.retry_timeouts,
        served_active=result.served_active,
        demoted=result.demoted,
        hedges_issued=result.hedges_issued,
        hedges_won=result.hedges_won,
        hedges_wasted=result.hedges_wasted,
        attainment=_attainments(result),
        latency=_latency(result.per_request_latencies),
        qos_stats=result.qos_stats,
        violations=[
            str(v) for v in check_run(result, scenario.invariants)
        ],
    )
    return run, result


def run_scenario(
    scenario: Scenario, seeds: Optional[Tuple[int, ...]] = None
) -> ScenarioReport:
    """Run the scenario: per seed, per scheme, protected + baseline.

    ``seeds`` overrides the scenario's own seed list (the CLI's
    ``--seed`` flag); everything else comes from the file.
    """
    report = ScenarioReport(
        scenario=scenario.name,
        tags=list(scenario.tags),
        baseline=scenario.run.baseline,
    )
    lower = BASELINES.get(scenario.run.baseline)
    for seed in seeds if seeds is not None else scenario.run.seeds:
        schedule = compile_faults(scenario, seed)
        qos = compile_qos(scenario)
        retry = compile_retry(scenario, schedule)
        spec = compile_workload(scenario, seed)
        seed_result = ScenarioSeedResult(
            seed=seed,
            schedule=schedule.name if schedule is not None else "none",
        )
        for scheme_name in scenario.run.schemes:
            scheme = _SCHEMES[scheme_name]
            protected, protected_result = _execute(
                scenario, "protected", scheme, spec, schedule, qos, retry,
            )
            seed_result.runs.append(protected)
            baseline: Optional[ScenarioRun] = None
            baseline_result: Optional[SchemeResult] = None
            if lower is not None:
                base_spec, base_qos = lower(spec, qos)
                baseline, baseline_result = _execute(
                    scenario, scenario.run.baseline, scheme,
                    base_spec, schedule, base_qos, retry,
                )
                seed_result.runs.append(baseline)
            cross: List[Violation] = []
            if protected_result is not None:
                cross += check_slo_floor(
                    scenario.invariants,
                    protected_result.qos_stats,
                    baseline_result.qos_stats
                    if baseline_result is not None else None,
                )
            if baseline is not None:
                cross += check_baseline_claim(
                    scenario.run.baseline, protected, baseline
                )
            seed_result.cross_violations.extend(
                f"[{scheme_name}] {v}" for v in cross
            )
        report.seeds.append(seed_result)
    return report
