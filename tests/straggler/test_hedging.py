"""Hedged reads end-to-end: determinism, conservation, crash races."""

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.config import MB
from repro.core.asc import ActiveStorageClient, RetryPolicy
from repro.core.schemes import Scheme, WorkloadSpec, run_scheme
from repro.faults import FaultEvent, FaultKind, FaultSchedule, stragglers
from repro.pvfs import IOServer, MetadataServer, PVFSClient
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids
from repro.qos import BreakerBoard, BreakerState
from repro.scenario import get_scenario, run_scenario
from repro.straggler import LatencyBoard, StragglerConfig, StragglerDispatcher

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


class TestHedgeWinDuringHalfOpen:
    """A hedge that beats a half-open primary hands the probe back.

    The primary was slow, not sick, so its breaker stays half-open; a
    probe left in flight would refuse every later attempt on that path
    and a protected run could die of ``breaker-open`` fast-fails.
    """

    def _client(self, env):
        config = discfarm_config(n_storage=2, n_compute=1)
        topo = ClusterTopology(env, config)
        mds = MetadataServer(2, 4 * MB)
        servers = [
            IOServer(env, node, topo.link_for(node), mds, server_index=i)
            for i, node in enumerate(topo.storage_nodes)
        ]
        servers[0].link.degrade(0.01)  # the primary: 100x slow
        fh = mds.open(mds.create("/r", size=4 * MB, n_servers=1,
                                 n_replicas=2).name)
        node = topo.compute_node(0)
        asc = ActiveStorageClient(
            env, node, PVFSClient(env, node, servers, mds),
            breakers=BreakerBoard(threshold=1, cooldown=0.3),
            dispatcher=StragglerDispatcher(
                LatencyBoard(StragglerConfig(hedge_delay_floor=0.05))
            ),
        )
        return asc, fh

    def test_later_allow_grants_a_probe(self, env):
        asc, fh = self._client(env)
        breaker = asc.breakers.for_server(0)
        breaker.on_failure(env.now)  # open; cooled down by t = 0.3

        def app():
            yield env.timeout(0.5)
            yield from asc.read(fh, retry=RETRY)

        env.run(until=env.process(app()))
        assert asc.stats["hedges_won"] == 1
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow(env.now)

    @pytest.mark.parametrize("name,seed", [
        ("chaos-soak", 6),
        ("kitchen-sink-chaos", 26),
    ])
    def test_protected_runs_survive(self, name, seed):
        """Seeds whose protected runs used to die of a stuck probe."""
        report = run_scenario(get_scenario(name), seeds=(seed,))
        protected = [run for sr in report.seeds for run in sr.runs
                     if run.mode == "protected"]
        assert protected and not any(run.failed for run in protected)
        assert report.clean, report.violations()
