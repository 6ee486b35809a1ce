"""The invariant engine: what every scenario run must satisfy.

Each scenario run passes through these checks before its result
counts, as typed :class:`Violation` records.  Families, toggled per
scenario by :class:`~repro.scenario.schema.InvariantShape`:

``conservation``
    Per server: ``received == completed + cancelled + crash_failed +
    deadline_expired + outstanding`` with ``outstanding == 0`` at the
    end, and every logical request produced exactly one finish time.
``hedge``
    ``hedges_won + hedges_wasted == hedges_issued`` — every hedge
    settles exactly once.
``ledger``
    Per tenant: ``borrowed == reclaimed + outstanding`` (1-byte float
    tolerance); across tenants: total borrowed == total lent.
``slo_floor``
    Cross-run: the protected run's attainment for the named tenant is
    at or above the baseline run's, per seed — the isolation claim the
    noisy-neighbor scenarios exist to demonstrate.  ``min_attainment``
    adds an absolute floor on the protected side.

Two cross-run families are carried by the baseline kind rather than
by a toggle, because those baselines exist only to test them:

``work_conservation``
    Against a ``static`` baseline: protected goodput at or above the
    static partition's — lending idle tokens loses no throughput.
``tail``
    Against an ``unhedged`` baseline: protected p99 latency at or
    below the unhedged run's — the straggler scheduler cuts the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cluster.config import MB
from repro.core.schemes import SchemeResult
from repro.scenario.schema import InvariantShape

if TYPE_CHECKING:  # the runner imports this module
    from repro.scenario.runner import ScenarioRun

__all__ = [
    "Violation",
    "INVARIANT_FAMILIES",
    "check_run",
    "check_slo_floor",
    "check_baseline_claim",
    "tenant_attainment",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which family, and what the numbers said."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


#: Every family the engine knows, with the claim it asserts.
INVARIANT_FAMILIES: Dict[str, str] = {
    "conservation": (
        "received == completed + cancelled + crash_failed + expired "
        "per server, nothing outstanding, one finish time per request"
    ),
    "hedge": "hedges issued == hedges won + hedges wasted",
    "ledger": (
        "per tenant borrowed == reclaimed + outstanding; "
        "total borrowed == total lent"
    ),
    "slo_floor": (
        "protected attainment for the floor tenant >= baseline "
        "attainment, per seed (plus the optional absolute floor)"
    ),
    "lifecycle": "the protected run finished (no watchdog, no crash-out)",
    "work_conservation": (
        "protected goodput >= the static baseline's, per scheme and seed"
    ),
    "tail": "protected p99 <= the unhedged baseline's, per scheme and seed",
}


def check_run(
    result: SchemeResult, shape: Optional[InvariantShape] = None
) -> List[Violation]:
    """Single-run invariants on one completed scheme result."""
    shape = shape if shape is not None else InvariantShape()
    out: List[Violation] = []
    if shape.conservation:
        out.extend(_check_conservation(result))
    if shape.hedge:
        out.extend(_check_hedge(result))
    if shape.ledger:
        out.extend(_check_ledger(result))
    return out


def _check_conservation(result: SchemeResult) -> List[Violation]:
    out: List[Violation] = []
    expected = result.spec.total_requests
    got = len(result.per_request_times)
    if got != expected:
        out.append(Violation(
            "conservation",
            f"completions: {got} request finish times for {expected} requests",
        ))
    for m in result.server_metrics:
        name = m["server"]
        received = int(m.get("requests_received", 0))
        completed = int(m.get("requests_completed", 0))
        cancelled = int(m.get("requests_cancelled", 0))
        crash_failed = int(m.get("requests_failed_crash", 0))
        expired = int(m.get("deadline_expired", 0))
        outstanding = int(m.get("outstanding_final", 0))
        accounted = completed + cancelled + crash_failed + expired + outstanding
        if received != accounted:
            out.append(Violation(
                "conservation",
                f"{name}: received {received} != completed {completed} + "
                f"cancelled {cancelled} + crash-failed {crash_failed} + "
                f"expired {expired} + outstanding {outstanding}",
            ))
        if outstanding != 0:
            out.append(Violation(
                "conservation",
                f"{name}: {outstanding} requests still outstanding at the end",
            ))
    return out


def _check_hedge(result: SchemeResult) -> List[Violation]:
    if result.hedges_won + result.hedges_wasted != result.hedges_issued:
        return [Violation(
            "hedge",
            f"issued {result.hedges_issued} != won {result.hedges_won} + "
            f"wasted {result.hedges_wasted}",
        )]
    return []


def _check_ledger(result: SchemeResult) -> List[Violation]:
    tenants = result.qos_stats.get("tenants")
    if not tenants:
        return []
    out: List[Violation] = []
    total_borrowed = total_lent = 0.0
    for name in sorted(tenants["per_tenant"]):
        ledger = tenants["per_tenant"][name].get("ledger")
        if ledger is None:
            continue
        borrowed = ledger["borrowed_bytes"]
        reclaimed = ledger["reclaimed_bytes"]
        outstanding = ledger["debt_outstanding"]
        # 1-byte tolerance: the ledger works in floats and forgives
        # sub-1e-12 residues when closing a debt.
        if abs(borrowed - (reclaimed + outstanding)) > 1.0:
            out.append(Violation(
                "ledger",
                f"tenant {name}: borrowed {borrowed:.0f} != reclaimed "
                f"{reclaimed:.0f} + outstanding {outstanding:.0f}",
            ))
        total_borrowed += borrowed
        total_lent += ledger["lent_bytes"]
    if abs(total_borrowed - total_lent) > 1.0:
        out.append(Violation(
            "ledger",
            f"tenants borrowed {total_borrowed:.0f} but peers lent "
            f"{total_lent:.0f}",
        ))
    return out


def tenant_attainment(
    qos_stats: Dict[str, Any], tenant: str
) -> Optional[float]:
    """The tenant's SLO attainment in one run's stats, if measured."""
    tenants = qos_stats.get("tenants")
    if not tenants:
        return None
    stats = tenants.get("per_tenant", {}).get(tenant)
    if stats is None:
        return None
    return stats.get("slo_attainment")


def check_slo_floor(
    shape: InvariantShape,
    protected_stats: Dict[str, Any],
    baseline_stats: Optional[Dict[str, Any]],
) -> List[Violation]:
    """The cross-run isolation claim for the floor tenant.

    ``baseline_stats`` is None when the scenario runs no baseline (or
    the baseline run died — a dead baseline is exactly the degradation
    the protected run is measured against, so only the protected side
    must produce an attainment).
    """
    if shape.slo_floor is None:
        return []
    tenant = shape.slo_floor
    out: List[Violation] = []
    protected = tenant_attainment(protected_stats, tenant)
    if protected is None:
        return [Violation(
            "slo_floor",
            f"protected run reports no SLO attainment for tenant "
            f"{tenant!r} — did the run record per-tenant stats?",
        )]
    if baseline_stats is not None:
        baseline = tenant_attainment(baseline_stats, tenant)
        if baseline is not None and protected < baseline:
            out.append(Violation(
                "slo_floor",
                f"tenant {tenant!r}: protected attainment "
                f"{protected:.3f} fell below baseline {baseline:.3f}",
            ))
    if shape.min_attainment is not None and protected < shape.min_attainment:
        out.append(Violation(
            "slo_floor",
            f"tenant {tenant!r}: protected attainment {protected:.3f} "
            f"below the scenario's absolute floor {shape.min_attainment:.3f}",
        ))
    return out


def check_baseline_claim(
    baseline: str, protected: "ScenarioRun", base: "ScenarioRun"
) -> List[Violation]:
    """The claim a ``static`` or ``unhedged`` baseline exists to test.

    A dead run on either side proves nothing either way: the protected
    death is already a ``lifecycle`` violation and a dead baseline is
    the degradation the pair measures against.
    """
    if protected.failed or base.failed:
        return []
    if baseline == "static" and protected.goodput < base.goodput:
        return [Violation(
            "work_conservation",
            f"protected goodput {protected.goodput / MB:.1f} MB/s below "
            f"the static partition's {base.goodput / MB:.1f} MB/s",
        )]
    if baseline == "unhedged" \
            and protected.latency["p99"] > base.latency["p99"]:
        return [Violation(
            "tail",
            f"protected p99 {protected.latency['p99']:.3f} s above the "
            f"unhedged run's {base.latency['p99']:.3f} s",
        )]
    return []
