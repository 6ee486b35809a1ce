"""Hedged reads end-to-end: determinism, conservation, crash races."""

import pytest

from repro.cluster.config import MB
from repro.core.asc import RetryPolicy
from repro.core.schemes import Scheme, WorkloadSpec, run_scheme
from repro.faults import FaultEvent, FaultKind, FaultSchedule, stragglers
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids

RETRY = RetryPolicy(timeout=20.0, max_retries=6)


def _run(scheme, seed=1, on=True, schedule=None, **spec_kw):
    reset_request_ids()
    reset_parent_ids()
    kw = dict(
        n_requests=8, request_bytes=32 * MB, n_storage=4,
        arrival_spacing=0.15, seed=seed,
        straggler_scheduler=on, n_replicas=2,
    )
    kw.update(spec_kw)
    spec = WorkloadSpec(**kw)
    if schedule is None:
        schedule = stragglers(seed=seed, n_servers=kw["n_storage"],
                              n_transient=2)
    return run_scheme(scheme, spec, fault_schedule=schedule,
                      retry_policy=RETRY)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_same_seed_same_run_with_hedging_on(self, scheme):
        a = _run(scheme, seed=3)
        b = _run(scheme, seed=3)
        assert a.per_request_latencies == b.per_request_latencies
        assert a.hedges_issued == b.hedges_issued
        assert a.hedges_won == b.hedges_won
        assert a.qos_stats == b.qos_stats

    def test_same_seed_byte_identical_bench_report(self):
        from repro.scenario import get_scenario, run_scenario

        sc = get_scenario("straggler-tail")
        first = run_scenario(sc, seeds=(5,)).to_json()
        assert first == run_scenario(sc, seeds=(5,)).to_json()


class TestConservation:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_won_plus_wasted_equals_issued(self, scheme):
        r = _run(scheme, seed=2)
        assert r.hedges_won + r.hedges_wasted == r.hedges_issued
        assert len(r.per_request_times) == r.spec.total_requests

    def test_scheduler_off_never_hedges(self):
        r = _run(Scheme.DOSAS, seed=2, on=False)
        assert (r.hedges_issued, r.hedges_won, r.hedges_wasted) == (0, 0, 0)


class TestHedgeWinnerThenLoserCrash:
    """The loser's server crashes around the winner settling.

    Server 0 is derated to 5% so its primaries hedge to server 1 and
    the hedge wins; the crash then lands on server 0 while cancelled
    losers (and unhedged primaries) are still in flight — the run must
    recover cleanly with the hedge ledger conserved.
    """

    def _schedule(self, crash_at):
        return FaultSchedule(
            name="hedge-loser-crash",
            events=(
                FaultEvent(at=0.01, kind=FaultKind.SLOWDOWN, target=0,
                           factor=0.05),
                FaultEvent(at=crash_at, kind=FaultKind.CRASH, target=0,
                           duration=0.5),
            ),
            retry=RETRY,
            horizon=120.0,
        )

    @pytest.mark.parametrize("crash_at", [0.8, 1.0, 1.2])
    def test_recovers_with_ledger_conserved(self, crash_at):
        r = _run(Scheme.AS, seed=0, schedule=self._schedule(crash_at),
                 n_storage=2, arrival_spacing=0.1)
        assert len(r.per_request_times) == r.spec.total_requests
        assert r.hedges_issued >= 1
        assert r.hedges_won >= 1
        assert r.hedges_won + r.hedges_wasted == r.hedges_issued

    def test_results_match_the_healthy_run(self):
        reset_request_ids()
        reset_parent_ids()
        spec = WorkloadSpec(n_requests=8, request_bytes=32 * MB, n_storage=2,
                            arrival_spacing=0.1, seed=0,
                            straggler_scheduler=True, n_replicas=2)
        healthy = run_scheme(Scheme.AS, spec, retry_policy=RETRY)
        faulty = _run(Scheme.AS, seed=0, schedule=self._schedule(1.0),
                      n_storage=2, arrival_spacing=0.1)
        assert [float(v) for v in faulty.results] == \
            [float(v) for v in healthy.results]
