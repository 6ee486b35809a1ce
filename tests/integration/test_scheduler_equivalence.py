"""Same seed ⇒ byte-identical results, scheduler=heap vs calendar.

The calendar scheduler is only allowed to change wall-clock speed,
never results.  These tests serialize full scheme results and soak
reports produced under both schedulers and require *byte* equality, across
the workload families the determinism suite covers: plain TS/AS/DOSAS,
fault injection, straggler dispatch with hedged reads, and tenant
runs.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster.config import MB
from repro.core.planrun import run_plan
from repro.core.schemes import Scheme, WorkloadSpec, run_scheme
from repro.faults import scenario
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids
from repro.workload.apps import BatchApplication
from repro.workload.generator import WorkloadGenerator


def _default(value):
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    return repr(value)


def scheme_bytes(scheme, spec, sim_scheduler, **kwargs):
    # Process-global id counters restart so the two runs label
    # requests identically (ids leak into retry logs).
    reset_request_ids()
    reset_parent_ids()
    result = run_scheme(scheme, spec, sim_scheduler=sim_scheduler, **kwargs)
    return json.dumps(asdict(result), sort_keys=True, default=_default)


class TestSchemeByteIdentity:
    @pytest.mark.parametrize("scheme", [Scheme.TS, Scheme.AS, Scheme.DOSAS])
    def test_plain_runs(self, scheme):
        spec = WorkloadSpec(
            n_requests=8, request_bytes=32 * MB, n_storage=2, seed=3,
            jitter=True, background_readers=1,
        )
        assert scheme_bytes(scheme, spec, "heap") == \
            scheme_bytes(scheme, spec, "calendar")

    def test_fault_run(self):
        spec = WorkloadSpec(
            kernel="sum", n_requests=3, request_bytes=8 * MB, n_storage=2,
            execute_kernels=True, seed=11,
        )
        sched = scenario("chaos", seed=5, n_events=6, span=1.5, n_targets=2)
        assert scheme_bytes(Scheme.DOSAS, spec, "heap",
                            fault_schedule=sched) == \
            scheme_bytes(Scheme.DOSAS, spec, "calendar",
                         fault_schedule=sched)

    def test_straggler_run(self):
        spec = WorkloadSpec(
            n_requests=6, request_bytes=16 * MB, n_storage=3, seed=7,
            straggler_scheduler=True, n_replicas=2,
        )
        sched = scenario("stragglers", seed=4, n_servers=3)
        assert scheme_bytes(Scheme.DOSAS, spec, "heap",
                            fault_schedule=sched) == \
            scheme_bytes(Scheme.DOSAS, spec, "calendar",
                         fault_schedule=sched)

    def test_plan_run(self):
        apps = [
            BatchApplication("alpha", n_processes=2, size=16 * MB),
            BatchApplication("beta", n_processes=1, size=8 * MB,
                             operation="sum"),
        ]
        plan = WorkloadGenerator(seed=13).plan(apps)
        spec = WorkloadSpec(n_storage=2, seed=13)
        outs = {}
        for name in ("heap", "calendar"):
            reset_request_ids()
            reset_parent_ids()
            r = run_plan(Scheme.DOSAS, plan, spec=spec, sim_scheduler=name)
            outs[name] = json.dumps(
                [
                    (o.request.app, o.request.sequence, o.started_at,
                     o.finished_at, o.latency)
                    for o in r.outcomes
                ],
                sort_keys=True,
            )
        assert outs["heap"] == outs["calendar"]


class TestSoakByteIdentity:
    def test_soak_report_identical(self):
        from repro.qos.soak import SoakSpec, run_soak

        reports = {}
        for name in ("heap", "calendar"):
            spec = SoakSpec(
                seeds=(0,), n_requests=6, request_bytes=16 * MB,
                tenants=True, sim_scheduler=name,
            )
            reports[name] = run_soak(spec).to_json()
        assert reports["heap"] == reports["calendar"]
