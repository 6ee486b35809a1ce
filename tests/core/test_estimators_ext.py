"""Extended estimators: smoothing and hysteresis."""

import pytest

from repro.sim import Environment
from repro.cluster import NodeProber, NodeSpec, StorageNode, SystemProbe
from repro.core import (
    DOSASEstimator,
    HysteresisDOSASEstimator,
    SmoothedDOSASEstimator,
)
from repro.core.policy import Decision
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs import IOKind, IORequest, MetadataServer
from repro.pvfs.requests import next_request_id

MB = 1024 * 1024
BW = 118 * MB


@pytest.fixture
def setup(env):
    node = StorageNode(env, "sn0", NodeSpec(cores=2))
    prober = NodeProber(node, lambda: (0, 0, 0.0, 0.0))
    mds = MetadataServer(1, 4 * MB)
    mds.create("/a", size=2048 * MB)
    return node, prober, mds.open("/a")


def _request(env, fh, size):
    return IORequest(
        rid=next_request_id(), parent_id=0, kind=IOKind.ACTIVE, fh=fh,
        offset=0, size=size, operation="gaussian2d", client_name="cn0",
        reply=env.event(), submitted_at=env.now,
    )


def _kw(prober):
    return dict(
        prober=prober,
        kernel_models=cost_models_from_registry(default_registry),
        bandwidth=BW,
        probe_period=None,
    )


class TestSmoothed:
    def test_alpha_validation(self, setup):
        _n, prober, _fh = setup
        with pytest.raises(ValueError):
            SmoothedDOSASEstimator(alpha=0.0, **_kw(prober))
        with pytest.raises(ValueError):
            SmoothedDOSASEstimator(alpha=1.5, **_kw(prober))

    def test_alpha_one_equals_base(self, env, setup):
        node, prober, fh = setup
        est = SmoothedDOSASEstimator(alpha=1.0, degrade_by_cpu=True,
                                     **_kw(prober))
        probe = prober.probe()
        assert est.storage_capability("gaussian2d", probe) == pytest.approx(
            80 * MB * max(0.1, 1 - probe.cpu_utilization)
        )

    def test_smoothing_damps_spikes(self, env, setup):
        """A single busy probe barely moves the smoothed estimate."""
        node, prober, fh = setup
        est = SmoothedDOSASEstimator(alpha=0.2, degrade_by_cpu=True,
                                     **_kw(prober))
        idle = prober.probe()
        est.storage_capability("gaussian2d", idle)  # seed EWMA at 0 load

        def busy(env, node):
            yield from node.cpu.compute(160 * MB, 80 * MB)

        def sample(env):
            yield env.timeout(0.5)
            return prober.probe()

        env.process(busy(env, node))
        spike = env.run(until=env.process(sample(env)))
        assert spike.cpu_utilization == 0.5
        cap = est.storage_capability("gaussian2d", spike)
        # EWMA load = 0.2*0.5 = 0.1, not the raw 0.5.
        assert cap == pytest.approx(80 * MB * 0.9)

    @pytest.mark.parametrize("ops", [
        ["gaussian2d"],
        ["gaussian2d"] * 4,
        ["gaussian2d"] * 16,
        ["gaussian2d", "sum"] * 2,
    ], ids=["1", "4", "16", "mixed-4"])
    def test_one_step_per_probe(self, env, setup, ops):
        """One probe moves the EWMA once, however long the queue."""
        node, prober, fh = setup
        est = SmoothedDOSASEstimator(alpha=0.3, degrade_by_cpu=True,
                                     **_kw(prober))
        est.storage_capability("gaussian2d", prober.probe())  # EWMA at 0

        def busy(env, node):
            yield from node.cpu.compute(160 * MB, 80 * MB)

        def sample(env):
            yield env.timeout(0.5)
            reqs = [_request(env, fh, 128 * MB) for _ in ops]
            for req, op in zip(reqs, ops):
                req.operation = op
            return est.evaluate(reqs, [])

        env.process(busy(env, node))
        policy = env.run(until=env.process(sample(env)))
        assert policy.probe.cpu_utilization == 0.5
        # 0.3 * 0.5 + 0.7 * 0.0, one step.
        assert est._smoothed_cpu == pytest.approx(0.15)

    def test_decisions_still_produced(self, env, setup):
        _n, prober, fh = setup
        est = SmoothedDOSASEstimator(alpha=0.5, **_kw(prober))
        policy = est.evaluate([_request(env, fh, 128 * MB)], [])
        assert policy.decisions

    @pytest.mark.parametrize("degrade_by_cpu", [False, True])
    def test_core_derate_scales_the_estimate(self, setup, degrade_by_cpu):
        """A straggler advertises its derated capability here too."""
        _n, prober, _fh = setup
        probe = SystemProbe(
            time=0.0, cpu_utilization=0.0, io_queue_length=0,
            active_queue_length=0, queued_bytes=0.0, active_bytes=0.0,
            cpu_derate=0.25,
        )
        kw = dict(degrade_by_cpu=degrade_by_cpu, **_kw(prober))
        smoothed = SmoothedDOSASEstimator(alpha=0.3, **kw)
        base = DOSASEstimator(**kw)
        assert smoothed.storage_capability("gaussian2d", probe) == (
            base.storage_capability("gaussian2d", probe)
        )
        assert base.storage_capability("gaussian2d", probe) == (
            pytest.approx(20 * MB)
        )


class TestHysteresis:
    def test_confirmations_validation(self, setup):
        _n, prober, _fh = setup
        with pytest.raises(ValueError):
            HysteresisDOSASEstimator(confirmations=0, **_kw(prober))

    def test_first_verdict_applies_immediately(self, env, setup):
        _n, prober, fh = setup
        est = HysteresisDOSASEstimator(confirmations=3, **_kw(prober))
        reqs = [_request(env, fh, 128 * MB) for _ in range(8)]
        policy = est.evaluate(reqs, [])
        assert policy.rejects_all  # 8 gaussians: demote, no delay

    def test_reversal_needs_confirmations(self, env, setup):
        """Shrink the queue so the solver flips to ACTIVE; hysteresis
        holds the old NORMAL verdict until confirmed."""
        _n, prober, fh = setup
        est = HysteresisDOSASEstimator(confirmations=2, **_kw(prober))
        victim = _request(env, fh, 128 * MB)
        crowd = [_request(env, fh, 128 * MB) for _ in range(7)]

        first = est.evaluate([victim] + crowd, [])
        assert first.decisions[victim.rid] is Decision.NORMAL

        # Queue collapses: solver now says ACTIVE for the lone request.
        second = est.evaluate([victim], [])
        assert second.decisions[victim.rid] is Decision.NORMAL  # held back
        third = est.evaluate([victim], [])
        assert third.decisions[victim.rid] is Decision.ACTIVE  # confirmed

    def test_flapping_candidate_resets_streak(self, env, setup):
        _n, prober, fh = setup
        est = HysteresisDOSASEstimator(confirmations=2, **_kw(prober))
        victim = _request(env, fh, 128 * MB)
        crowd = [_request(env, fh, 128 * MB) for _ in range(7)]

        est.evaluate([victim] + crowd, [])           # NORMAL enforced
        est.evaluate([victim], [])                   # ACTIVE candidate (1)
        est.evaluate([victim] + crowd, [])           # back to NORMAL: reset
        p = est.evaluate([victim], [])               # ACTIVE candidate (1)
        assert p.decisions[victim.rid] is Decision.NORMAL

    def test_departed_requests_forgotten(self, env, setup):
        _n, prober, fh = setup
        est = HysteresisDOSASEstimator(confirmations=2, **_kw(prober))
        r1 = _request(env, fh, 128 * MB)
        est.evaluate([r1], [])
        est.evaluate([], [])
        assert r1.rid not in est._state
