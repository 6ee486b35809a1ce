"""The invariant engine: clean runs pass, cooked books are caught."""

import copy

import pytest

from repro.core.schemes import Scheme, run_scheme
from repro.scenario import (
    check_baseline_claim,
    check_run,
    check_slo_floor,
    compile_workload,
    get_scenario,
)
from repro.scenario.invariants import INVARIANT_FAMILIES, Violation, tenant_attainment
from repro.scenario.runner import ScenarioRun
from repro.scenario.schema import InvariantShape


@pytest.fixture(scope="module")
def clean_result():
    sc = get_scenario("steady-state")
    return run_scheme(Scheme.DOSAS, compile_workload(sc, seed=0))


class TestCheckRun:
    def test_clean_run_has_no_violations(self, clean_result):
        assert check_run(clean_result) == []

    def test_broken_conservation_is_caught(self, clean_result):
        result = copy.deepcopy(clean_result)
        result.server_metrics[0]["requests_received"] += 1
        violations = check_run(result)
        assert any(v.invariant == "conservation" for v in violations)

    def test_outstanding_requests_are_caught(self, clean_result):
        result = copy.deepcopy(clean_result)
        m = result.server_metrics[0]
        m["outstanding_final"] = 2
        m["requests_received"] += 2  # keep the sum consistent
        violations = check_run(result)
        assert any("outstanding" in v.message for v in violations)

    def test_missing_completion_is_caught(self, clean_result):
        result = copy.deepcopy(clean_result)
        result.per_request_times.pop()
        violations = check_run(result)
        assert any("finish times" in v.message for v in violations)

    def test_broken_hedge_ledger_is_caught(self, clean_result):
        result = copy.deepcopy(clean_result)
        result.hedges_issued += 1
        violations = check_run(result)
        assert any(v.invariant == "hedge" for v in violations)

    def test_broken_borrow_ledger_is_caught(self, clean_result):
        result = copy.deepcopy(clean_result)
        result.qos_stats["tenants"] = {"per_tenant": {
            "gold": {"ledger": {
                "borrowed_bytes": 100.0, "reclaimed_bytes": 10.0,
                "debt_outstanding": 0.0, "lent_bytes": 0.0,
            }},
        }}
        violations = check_run(result)
        assert any(v.invariant == "ledger" for v in violations)
        # Both the per-tenant identity and the borrow/lend total broke.
        assert len([v for v in violations if v.invariant == "ledger"]) == 2

    def test_families_can_be_disarmed(self, clean_result):
        result = copy.deepcopy(clean_result)
        result.hedges_issued += 1
        shape = InvariantShape(hedge=False)
        assert check_run(result, shape) == []

    def test_violation_renders_with_family_tag(self):
        v = Violation("hedge", "issued 2 != won 1 + wasted 0")
        assert str(v).startswith("[hedge] ")

    def test_catalogue_names_every_family(self):
        assert {"conservation", "hedge", "ledger", "slo_floor", "lifecycle",
                "work_conservation", "tail"} == set(INVARIANT_FAMILIES)


def _stats(attainment):
    return {"tenants": {"per_tenant": {
        "gold": {"slo_attainment": attainment},
    }}}


class TestSloFloor:
    def test_no_floor_means_no_checks(self):
        assert check_slo_floor(InvariantShape(), _stats(0.0), _stats(1.0)) == []

    def test_protected_at_or_above_baseline_passes(self):
        shape = InvariantShape(
            slo_floor="gold", conservation=False, hedge=False, ledger=False
        )
        assert check_slo_floor(shape, _stats(0.9), _stats(0.9)) == []
        assert check_slo_floor(shape, _stats(1.0), _stats(0.2)) == []

    def test_protected_below_baseline_fails(self):
        shape = InvariantShape(slo_floor="gold")
        violations = check_slo_floor(shape, _stats(0.5), _stats(0.8))
        assert len(violations) == 1
        assert violations[0].invariant == "slo_floor"
        assert "0.500" in violations[0].message

    def test_min_attainment_is_an_absolute_floor(self):
        shape = InvariantShape(slo_floor="gold", min_attainment=0.95)
        assert check_slo_floor(shape, _stats(1.0), None) == []
        violations = check_slo_floor(shape, _stats(0.9), None)
        assert any("absolute floor" in v.message for v in violations)

    def test_missing_protected_stats_is_itself_a_violation(self):
        shape = InvariantShape(slo_floor="gold")
        violations = check_slo_floor(shape, {}, _stats(1.0))
        assert len(violations) == 1
        assert "no SLO attainment" in violations[0].message

    def test_dead_baseline_is_tolerated(self):
        # A baseline that melted down reports no stats: the protected
        # run still passes (that degradation is the point).
        shape = InvariantShape(slo_floor="gold")
        assert check_slo_floor(shape, _stats(1.0), None) == []
        assert check_slo_floor(shape, _stats(1.0), {}) == []

    def test_tenant_attainment_reader(self):
        assert tenant_attainment(_stats(0.75), "gold") == 0.75
        assert tenant_attainment(_stats(0.75), "absent") is None
        assert tenant_attainment({}, "gold") is None


def _pair(mode, protected_goodput, baseline_goodput, protected_p99, baseline_p99):
    def run(run_mode, goodput, p99):
        return ScenarioRun(mode=run_mode, scheme="dosas", goodput=goodput,
                           latency={"p50": p99 / 2, "p99": p99})
    return (run("protected", protected_goodput, protected_p99),
            run(mode, baseline_goodput, baseline_p99))


class TestBaselineClaims:
    def test_holding_claims_are_silent(self):
        assert check_baseline_claim("static", *_pair("static", 2.0, 1.0, 1, 1)) == []
        assert check_baseline_claim("unhedged", *_pair("unhedged", 1, 1, 1.0, 2.0)) == []

    def test_goodput_below_static_fires_work_conservation(self):
        violations = check_baseline_claim(
            "static", *_pair("static", 1.0, 2.0, 1.0, 1.0)
        )
        assert [v.invariant for v in violations] == ["work_conservation"]

    def test_p99_above_unhedged_fires_tail(self):
        violations = check_baseline_claim(
            "unhedged", *_pair("unhedged", 1.0, 1.0, 2.0, 1.0)
        )
        assert [v.invariant for v in violations] == ["tail"]
        assert "2.000" in violations[0].message

    def test_claims_belong_to_their_baseline_kind(self):
        # A goodput drop against an unprotected baseline is not a
        # work-conservation claim, and neither claim reads the other's
        # numbers.
        assert check_baseline_claim(
            "unprotected", *_pair("unprotected", 1.0, 2.0, 2.0, 1.0)) == []
        assert check_baseline_claim(
            "static", *_pair("static", 2.0, 1.0, 2.0, 1.0)) == []

    @pytest.mark.parametrize("side", ["protected", "baseline"])
    @pytest.mark.parametrize("mode", ["static", "unhedged"])
    def test_a_dead_run_on_either_side_is_silent(self, mode, side):
        protected, baseline = _pair(mode, 0.0, 2.0, 9.0, 1.0)
        (protected if side == "protected" else baseline).failed = "died"
        assert check_baseline_claim(mode, protected, baseline) == []
