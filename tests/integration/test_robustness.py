"""Robustness and stress: interrupt storms, conservation properties.

Failure injection for this system means *policy chaos*: probe periods
short enough that kernels are interrupted many times, requests bounce
between storage and client, and checkpoints chain.  Whatever the
storm, two invariants must hold:

1. conservation — every submitted request gets exactly one reply and
   every application process finishes;
2. exactness — with real execution, results equal the no-storm oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.events import AllOf
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme
from repro.pvfs.filehandle import SyntheticData
from repro.kernels import get_kernel


class TestInterruptStorm:
    def test_tiny_probe_period_results_exact(self):
        """Probe every 2 ms against ~25 ms kernels: many interrupts,
        results still bit-exact."""
        spec = WorkloadSpec(
            kernel="gaussian2d", n_requests=6, request_bytes=2 * MB,
            arrival_spacing=0.004, probe_period=0.002,
            execute_kernels=True, image_width=512, seed=0,
        )
        r = run_scheme(Scheme.DOSAS, spec)
        g = get_kernel("gaussian2d")
        for i in range(6):
            img = SyntheticData(i).read(0, 2 * MB).reshape(-1, 512)
            assert np.allclose(r.results[i], g.reference(img)), f"scan {i}"
        assert len(r.per_request_times) == 6

    def test_storm_cannot_lose_requests(self):
        """100 staggered requests under aggressive probing: all finish."""
        spec = WorkloadSpec(
            kernel="sum", n_requests=100, request_bytes=4 * MB,
            arrival_spacing=0.001, probe_period=0.003,
        )
        r = run_scheme(Scheme.DOSAS, spec)
        assert len(r.per_request_times) == 100
        assert r.served_active + r.demoted == 100

    def test_storm_with_heterogeneous_ops(self):
        """Mixed sum/gaussian traffic through one runtime."""
        from repro.core import run_plan
        from repro.workload import (
            ArrivalPattern, BatchApplication, WorkloadGenerator,
        )

        apps = [
            BatchApplication("g", 6, 32 * MB, operation="gaussian2d"),
            BatchApplication("s", 6, 32 * MB, operation="sum"),
        ]
        plan = WorkloadGenerator(1).plan(apps, ArrivalPattern.UNIFORM,
                                         window=0.5)
        r = run_plan(Scheme.DOSAS, plan, WorkloadSpec(probe_period=0.05))
        assert len(r.outcomes) == 12
        assert r.served_active + r.demoted == 12


class TestConservationProperty:
    @given(
        n=st.integers(min_value=1, max_value=24),
        mb=st.integers(min_value=1, max_value=64),
        spacing=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        probe=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_request_exactly_one_reply(self, n, mb, spacing, probe, seed):
        """Random workload shapes: requests are conserved under DOSAS."""
        spec = WorkloadSpec(
            kernel="gaussian2d", n_requests=n, request_bytes=mb * MB,
            arrival_spacing=spacing, probe_period=probe, seed=seed,
            jitter=True,
        )
        r = run_scheme(Scheme.DOSAS, spec)
        assert len(r.per_request_times) == n
        assert r.served_active + r.demoted == n
        assert all(t >= 0 for t in r.per_request_times)

    @given(
        n=st.integers(min_value=1, max_value=12),
        variant=st.sampled_from(["base", "hysteresis"]),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_estimator_variants_conserve_and_bound(self, n, variant, seed):
        """Every estimator variant finishes all requests within the
        worst static scheme's time (plus slack for migration churn)."""
        spec = WorkloadSpec(
            kernel="gaussian2d", n_requests=n, request_bytes=32 * MB,
            estimator_variant=variant, seed=seed,
        )
        dosas = run_scheme(Scheme.DOSAS, spec)
        base = WorkloadSpec(kernel="gaussian2d", n_requests=n,
                            request_bytes=32 * MB, seed=seed)
        ts = run_scheme(Scheme.TS, base)
        as_ = run_scheme(Scheme.AS, base)
        assert dosas.served_active + dosas.demoted == n
        worst = max(ts.makespan, as_.makespan)
        assert dosas.makespan <= worst * 1.25 + 1e-9


class TestLinkSharingAblation:
    def test_fair_share_equals_serial_for_batch(self):
        """Equal simultaneous transfers: identical makespan under both
        disciplines (total throughput conservation)."""
        base = dict(kernel="gaussian2d", n_requests=8, request_bytes=64 * MB)
        serial = run_scheme(Scheme.TS, WorkloadSpec(**base, link_sharing="serial"))
        fair = run_scheme(Scheme.TS, WorkloadSpec(**base, link_sharing="fair"))
        assert fair.makespan == pytest.approx(serial.makespan, rel=1e-6)

    def test_fair_share_changes_individual_latencies(self):
        base = dict(kernel="gaussian2d", n_requests=8, request_bytes=64 * MB)
        serial = run_scheme(Scheme.TS, WorkloadSpec(**base, link_sharing="serial"))
        fair = run_scheme(Scheme.TS, WorkloadSpec(**base, link_sharing="fair"))
        # Serial: staggered completions.  Fair: everyone finishes the
        # transfer together, so the earliest completion is later.
        assert fair.per_request_times[0] > serial.per_request_times[0]
