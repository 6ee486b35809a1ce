"""Scheme runner: spec validation, scheme semantics, bookkeeping."""

import numpy as np
import pytest

from repro.cluster.config import MB
from repro.core import RetryPolicy, Scheme, SchemeResult, WorkloadSpec, run_scheme
from repro.core.planrun import run_plan
from repro.faults import scenario
from repro.pvfs.filehandle import SyntheticData
from repro.qos import TenantSpec
from repro.workload import ArrivalPattern, BatchApplication, WorkloadGenerator


class TestWorkloadSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n_requests": 0},
        {"request_bytes": 0},
        {"n_storage": 0},
        {"arrival_spacing": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_totals(self):
        spec = WorkloadSpec(n_requests=4, request_bytes=10, n_storage=3)
        assert spec.total_requests == 12
        assert spec.total_bytes == 120

    def test_tenant_mix_replaces_flat_request_count(self):
        spec = WorkloadSpec(request_bytes=10, n_storage=3, tenants=(
            TenantSpec(name="a", requests=2),
            TenantSpec(name="b", requests=3),
        ))
        assert spec.total_requests == 15
        assert spec.total_bytes == 150

    def test_tenant_dicts_normalized(self):
        # The run cache round-trips specs through asdict/WorkloadSpec(**),
        # which turns TenantSpec entries into plain dicts.
        spec = WorkloadSpec(tenants=(
            {"name": "a", "rate": 10.0, "requests": 1},
            {"name": "b", "requests": 2},
        ))
        assert all(isinstance(t, TenantSpec) for t in spec.tenants)
        assert spec.tenants[0].rate == 10.0

    @pytest.mark.parametrize("tenants", [
        ({"name": "a", "requests": 1}, {"name": "a", "requests": 1}),
        ({"name": "a", "requests": 0},),
    ])
    def test_bad_tenant_mixes_rejected(self, tenants):
        with pytest.raises(ValueError):
            WorkloadSpec(tenants=tenants)


class TestSchemeSemantics:
    def test_ts_never_offloads(self):
        r = run_scheme(Scheme.TS, WorkloadSpec(n_requests=4, request_bytes=8 * MB))
        assert r.served_active == 0
        assert r.demoted == 4

    def test_as_always_offloads(self):
        r = run_scheme(Scheme.AS, WorkloadSpec(n_requests=8, request_bytes=8 * MB))
        assert r.served_active == 8
        assert r.demoted == 0

    def test_dosas_accounting_consistent(self):
        r = run_scheme(Scheme.DOSAS, WorkloadSpec(n_requests=8, request_bytes=8 * MB))
        assert r.served_active + r.demoted == 8

    def test_per_request_times_sorted_and_bounded(self):
        r = run_scheme(Scheme.TS, WorkloadSpec(n_requests=4, request_bytes=8 * MB))
        assert r.per_request_times == sorted(r.per_request_times)
        assert r.per_request_times[-1] == r.makespan
        assert len(r.per_request_times) == 4

    def test_bandwidth_definition(self):
        spec = WorkloadSpec(n_requests=4, request_bytes=8 * MB)
        r = run_scheme(Scheme.TS, spec)
        assert r.bandwidth == pytest.approx(spec.total_bytes / r.makespan)

    def test_mean_latency(self):
        r = run_scheme(Scheme.TS, WorkloadSpec(n_requests=2, request_bytes=8 * MB))
        assert r.mean_latency == pytest.approx(sum(r.per_request_times) / 2)

    def test_multiple_storage_nodes_scale_throughput(self):
        one = run_scheme(Scheme.TS, WorkloadSpec(n_requests=8, request_bytes=8 * MB,
                                                 n_storage=1))
        two = run_scheme(Scheme.TS, WorkloadSpec(n_requests=8, request_bytes=8 * MB,
                                                 n_storage=2))
        # Two NICs serve 8+8 requests: same makespan as one NIC with 8.
        assert two.spec.total_requests == 16
        assert two.makespan == pytest.approx(one.makespan, rel=1e-6)

    def test_arrival_spacing_delays_completion(self):
        batch = run_scheme(Scheme.AS, WorkloadSpec(n_requests=2, request_bytes=8 * MB))
        spaced = run_scheme(Scheme.AS, WorkloadSpec(n_requests=2, request_bytes=8 * MB,
                                                    arrival_spacing=10.0))
        assert spaced.makespan > batch.makespan

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(n_requests=8, request_bytes=8 * MB, jitter=True, seed=5)
        a = run_scheme(Scheme.TS, spec)
        b = run_scheme(Scheme.TS, spec)
        assert a.makespan == b.makespan

    def test_jitter_changes_times(self):
        a = run_scheme(Scheme.TS, WorkloadSpec(n_requests=8, request_bytes=8 * MB))
        b = run_scheme(Scheme.TS, WorkloadSpec(n_requests=8, request_bytes=8 * MB,
                                               jitter=True))
        assert a.makespan != b.makespan


class TestRealExecutionAcrossSchemes:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_sum_results_exact(self, scheme):
        spec = WorkloadSpec(kernel="sum", n_requests=3, request_bytes=1 * MB,
                            execute_kernels=True, seed=0)
        r = run_scheme(scheme, spec)
        for i in range(3):
            expected = SyntheticData(i).read(0, 1 * MB).sum()
            assert r.results[i] == pytest.approx(float(expected))


class TestPlanRunner:
    def _plan(self, n=3, size=8 * MB, op="sum"):
        apps = [BatchApplication("app", n, size, operation=op)]
        return WorkloadGenerator(seed=0).plan(apps, ArrivalPattern.BATCH)

    def test_empty_plan_rejected(self):
        from repro.workload.generator import RequestPlan
        with pytest.raises(ValueError):
            run_plan(Scheme.AS, RequestPlan())

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("machine", [
        {},
        {"link_sharing": "fair"},
        {"jitter": True, "seed": 3},
    ], ids=["serial", "fair", "jitter"])
    def test_plan_matches_scheme_runner(self, scheme, machine):
        """A one-app batch plan is run_scheme's batch, request for request."""
        plan = self._plan(n=4, size=16 * MB, op="gaussian2d")
        pr = run_plan(scheme, plan, WorkloadSpec(**machine))
        sr = run_scheme(scheme, WorkloadSpec(kernel="gaussian2d", n_requests=4,
                                             request_bytes=16 * MB, **machine))
        assert pr.per_request_times == sr.per_request_times
        assert (pr.served_active, pr.demoted, pr.interrupted) == \
            (sr.served_active, sr.demoted, sr.interrupted)

    def test_plan_clients_get_straggler_dispatch(self):
        plan = self._plan(n=4, size=8 * MB)
        spec = WorkloadSpec(n_storage=2, n_replicas=2, straggler_scheduler=True)
        r = run_plan(Scheme.AS, plan, spec, fault_schedule=scenario(
            "stragglers", seed=4, n_servers=2))
        assert "straggler" in r.qos_stats
        assert r.qos_stats["straggler"]["latency_board"]

    def test_plan_fault_run_draws_full_jitter_backoff(self):
        plan = self._plan(n=4, size=32 * MB)
        spec = WorkloadSpec(n_storage=2, seed=9)

        def retry_times(full_jitter):
            r = run_plan(
                Scheme.DOSAS, plan, spec,
                fault_schedule=scenario("crash-restart", at=0.03, downtime=0.4),
                retry_policy=RetryPolicy(timeout=0.2, full_jitter=full_jitter),
            )
            assert r.retries > 0
            return [e["time"] for e in r.retry_events], r.per_request_times

        # Jitter draws each backoff below its nominal delay, so the
        # re-issues and the finish times move.
        assert retry_times(True) != retry_times(False)

    def test_tenant_mix_rejected(self):
        spec = WorkloadSpec(tenants=(TenantSpec(name="a", requests=1),))
        with pytest.raises(ValueError, match="tenant"):
            run_plan(Scheme.AS, self._plan(), spec)

    def test_ts_counts_client_side_kernels_as_demoted(self):
        apps = [BatchApplication("filter", 2, 8 * MB, operation="sum"),
                BatchApplication("reader", 1, 8 * MB)]
        plan = WorkloadGenerator(0).plan(apps)
        r = run_plan(Scheme.TS, plan)
        assert (r.served_active, r.demoted) == (0, 2)

    def test_ts_plan_returns_client_side_kernel_results(self):
        plan = self._plan(n=2, size=1 * MB)
        spec = WorkloadSpec(execute_kernels=True)

        def by_process(r):
            return sorted((o.request.process_index, float(o.result))
                          for o in r.outcomes)

        ts = run_plan(Scheme.TS, plan, spec)
        assert by_process(ts) == by_process(run_plan(Scheme.AS, plan, spec))
        assert len(ts.results) == 2

    def test_mean_latency_and_goodput_follow_the_record(self):
        plan = WorkloadGenerator(1).plan(
            [BatchApplication("a", 3, 8 * MB, operation="sum")],
            ArrivalPattern.UNIFORM, window=2.0,
        )
        r = run_plan(Scheme.DOSAS, plan)
        assert r.mean_latency == pytest.approx(
            sum(o.latency for o in r.outcomes) / len(r.outcomes))
        assert r.goodput == r.bandwidth == pytest.approx(
            plan.total_bytes / r.makespan)

    def test_outcome_accounting(self):
        plan = self._plan(n=3)
        r = run_plan(Scheme.AS, plan)
        assert len(r.outcomes) == 3
        assert r.served_active == 3
        assert all(o.latency > 0 for o in r.outcomes)

    def test_latencies_by_app(self):
        plan = self._plan(n=2)
        r = run_plan(Scheme.TS, plan)
        by_app = r.latencies_by_app()
        assert set(by_app) == {"app"} and len(by_app["app"]) == 2

    def test_normal_requests_never_touch_kernels(self):
        apps = [BatchApplication("reader", 2, 8 * MB)]  # no operation
        plan = WorkloadGenerator(0).plan(apps)
        r = run_plan(Scheme.DOSAS, plan)
        assert r.served_active == 0 and r.demoted == 0
