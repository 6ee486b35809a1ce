"""Tenant fairness, read off ``tenant-fairness`` scenario reports.

The protected run polices both tenants with token borrowing; the
scenario's ``static`` baseline keeps the guarantees with borrowing off,
and the same scenario with ``run.baseline: unpoliced`` drops policing
altogether.  Isolation is the ``slo_floor``/``min_attainment``
invariant, work conservation the claim the ``static`` baseline carries.
"""

import copy

import pytest

from repro.scenario import BUILTIN, get_scenario, run_scenario, scenario_from_dict

SEED = 1


def _tenants(run):
    return run.qos_stats["tenants"]["per_tenant"]


@pytest.fixture(scope="module")
def report():
    return run_scenario(get_scenario("tenant-fairness"), seeds=(SEED,))


@pytest.fixture(scope="module")
def runs(report):
    """mode -> run, for the one seed."""
    return {run.mode: run for run in report.seeds[0].runs}


@pytest.fixture(scope="module")
def unpoliced():
    data = copy.deepcopy(BUILTIN["tenant-fairness"])
    data["run"]["baseline"] = "unpoliced"
    report = run_scenario(scenario_from_dict(data), seeds=(SEED,))
    return {run.mode: run for run in report.seeds[0].runs}


class TestGates:
    def test_isolation_holds_under_borrowing(self, report, runs):
        assert report.violations() == []
        assert runs["protected"].attainment["gold"] == 1.0

    def test_borrowing_is_work_conserving(self, report, runs):
        assert runs["protected"].goodput >= runs["static"].goodput
        assert not any("[work_conservation]" in v for v in report.violations())

    def test_unpoliced_mode_shows_the_contention(self, unpoliced):
        # The unpoliced run pins what policing prevents: raw FIFO lets
        # the noisy backlog push gold past its SLO on every request.
        assert unpoliced["unpoliced"].attainment["gold"] == 0.0
        gold = {mode: _tenants(run)["gold"] for mode, run in unpoliced.items()}
        assert gold["unpoliced"]["latency_max"] > gold["protected"]["latency_max"]


class TestLedgers:
    def test_borrowing_actually_borrows(self, runs):
        noisy = _tenants(runs["protected"])["noisy"]
        assert noisy["ledger"]["borrowed_bytes"] > 0

    def test_static_partition_never_lends(self, runs):
        for entry in _tenants(runs["static"]).values():
            assert entry["ledger"]["lent_bytes"] == 0.0
            assert entry["ledger"]["borrowed_bytes"] == 0.0

    def test_conservation_identity(self, runs):
        # borrowed == reclaimed + outstanding per tenant, and aggregate
        # borrowed == aggregate lent: the ledger loses no bytes.
        for mode in ("protected", "static"):
            borrowed = lent = 0.0
            for entry in _tenants(runs[mode]).values():
                ledger = entry["ledger"]
                assert ledger["borrowed_bytes"] == pytest.approx(
                    ledger["reclaimed_bytes"] + ledger["debt_outstanding"]
                )
                borrowed += ledger["borrowed_bytes"]
                lent += ledger["lent_bytes"]
            assert borrowed == pytest.approx(lent)


class TestReportShape:
    def test_modes_and_gates_present(self, report, runs):
        assert report.baseline == "static"
        assert set(runs) == {"protected", "static"}
        assert [sr.seed for sr in report.seeds] == [SEED]
        sc = get_scenario("tenant-fairness")
        assert (sc.invariants.slo_floor, sc.invariants.min_attainment) == \
            ("gold", 1.0)

    def test_unpoliced_tenants_carry_no_ledger(self, unpoliced):
        for entry in _tenants(unpoliced["unpoliced"]).values():
            assert "ledger" not in entry

    def test_byte_identical_per_seed(self, report):
        again = run_scenario(get_scenario("tenant-fairness"), seeds=(SEED,))
        assert report.to_json() == again.to_json()
