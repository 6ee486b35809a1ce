"""The chaos-soak acceptance bar, read off library scenario reports.

Protected (``chaos-soak``): every run clean, none dead, and protected
DOSAS goodput at least the unprotected AS goodput on every seed.
Unprotected (the same scenario with the QoS stack, hedging and jitter
off and a retry-storm client): each seed melts down — more retries
than the protected run, or an outright ``RetryExhausted`` death —
which is exactly the degradation the QoS stack prevents.  Tenants
under faults are ``kitchen-sink-chaos``.
"""

import copy
import io

import pytest

from repro.cli import build_parser
from repro.faults import FaultKind
from repro.scenario import (
    BUILTIN,
    compile_faults,
    get_scenario,
    run_scenario,
    scenario_from_dict,
)

SEEDS = (0, 1, 2)


def storm_scenario():
    """``chaos-soak`` with protection off and a naive retry-storm client:
    every timeout re-issues almost at once, so each crash multiplies
    the queue the restarted server faces."""
    data = copy.deepcopy(BUILTIN["chaos-soak"])
    data["name"] = "chaos-soak-storm"
    data["cluster"]["n_replicas"] = 1
    data["qos"] = {"enabled": False}
    data["straggler"] = {"enabled": False}
    data["retry"] = {"timeout": 1.0, "max_retries": 24, "backoff_base": 0.05,
                     "backoff_factor": 1.0, "backoff_cap": 0.05}
    data["run"].update(schemes=["dosas"], baseline="none")
    return scenario_from_dict(data)


def _runs(report):
    """(seed, scheme, mode) -> run."""
    return {(sr.seed, run.scheme, run.mode): run
            for sr in report.seeds for run in sr.runs}


@pytest.fixture(scope="module")
def protected_report():
    return run_scenario(get_scenario("chaos-soak"))


@pytest.fixture(scope="module")
def unprotected_report():
    return run_scenario(storm_scenario())


class TestProtected:
    def test_zero_conservation_violations(self, protected_report):
        assert protected_report.violations() == []

    def test_no_run_died(self, protected_report):
        for run in _runs(protected_report).values():
            assert run.failed == ""

    def test_dosas_goodput_at_least_plain_as(self, protected_report):
        runs = _runs(protected_report)
        for seed in SEEDS:
            dosas = runs[seed, "dosas", "protected"].goodput
            plain = runs[seed, "as", "unprotected"].goodput
            assert dosas >= plain, (
                f"seed {seed}: DOSAS {dosas:.0f} < plain AS {plain:.0f}"
            )

    def test_acceptance_passes(self, protected_report):
        assert [sr.seed for sr in protected_report.seeds] == list(SEEDS)
        assert protected_report.clean

    def test_every_schedule_contains_an_early_crash(self):
        # guarantee_crash adds one at 0.1 s when the seed draws none; a
        # crash drawn anywhere in the 1.5 s chaos span also counts.
        sc = get_scenario("chaos-soak")
        for seed in SEEDS:
            schedule = compile_faults(sc, seed)
            assert any(e.kind is FaultKind.CRASH for e in schedule.events)


class TestUnprotected:
    def test_retry_storm_degradation(self, protected_report, unprotected_report):
        """Each seed shows the storm: more retries, or a dead run."""
        protected = _runs(protected_report)
        for (seed, _, _), run in _runs(unprotected_report).items():
            if run.failed:
                assert "RetryExhausted" in run.failed
            else:
                assert run.retries > protected[seed, "dosas", "protected"].retries

    def test_at_least_one_seed_storms_hard(self, protected_report,
                                           unprotected_report):
        protected = _runs(protected_report)
        storms = sum(
            1 for (seed, _, _), run in _runs(unprotected_report).items()
            if run.failed
            or run.retries >= 2 * protected[seed, "as", "unprotected"].retries
        )
        assert storms >= 1

    def test_degradation_is_not_a_violation(self, unprotected_report):
        # The invariants are about accounting, not about dying politely:
        # a dead storm run is only a lifecycle finding.
        for violation in unprotected_report.violations():
            assert "[lifecycle] protected run died: RetryExhausted" in violation


class TestTenants:
    @pytest.fixture(scope="class")
    def tenant_report(self):
        return run_scenario(get_scenario("kitchen-sink-chaos"), seeds=(0, 1))

    def test_no_violations_and_no_deaths(self, tenant_report):
        assert tenant_report.violations() == []
        for (_, _, mode), run in _runs(tenant_report).items():
            if mode == "protected":
                assert run.failed == ""

    def test_borrowing_runs_under_faults(self, tenant_report):
        # The gold/noisy mix oversubscribes noisy's guarantee, so the
        # scenario exercises the borrow path on every seed — and the
        # ledger invariant has real ledgers to audit.
        for seed in (0, 1):
            run = _runs(tenant_report)[seed, "dosas", "protected"]
            per_tenant = run.qos_stats["tenants"]["per_tenant"]
            borrowed = sum(
                t.get("ledger", {}).get("borrowed_bytes", 0.0)
                for t in per_tenant.values()
            )
            assert borrowed > 0

    def test_byte_identical_per_seed(self):
        sc = get_scenario("kitchen-sink-chaos")
        assert run_scenario(sc, seeds=(0,)).to_json() == \
            run_scenario(sc, seeds=(0,)).to_json()


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        sc = get_scenario("chaos-soak")
        assert run_scenario(sc, seeds=(0,)).to_json() == \
            run_scenario(sc, seeds=(0,)).to_json()


class TestFormatting:
    def test_report_renders_with_verdict(self):
        out = io.StringIO()
        args = build_parser().parse_args(["soak", "--seed", "0"])
        assert args.func(args, out=out) == 0
        text = out.getvalue()
        assert "scenario: chaos-soak" in text
        assert "all invariants hold" in text
        assert "dosas/protected" in text and "as/unprotected" in text

    def test_late_replies_are_accounted(self, protected_report):
        """The cancel-during-delivery race surfaces as ``late_replies``
        (not a crash): at least one soak run exercises it."""
        late = sum(int(run.qos_stats.get("late_replies", 0))
                   for run in _runs(protected_report).values())
        assert late >= 1
