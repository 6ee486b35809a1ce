"""Extended estimator: verdict hysteresis."""

import pytest

from repro.sim import Environment
from repro.cluster import NodeProber, NodeSpec, StorageNode
from repro.core import HysteresisDOSASEstimator
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
