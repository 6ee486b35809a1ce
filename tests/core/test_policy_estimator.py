"""Scheduling policies and the Contention Estimators."""

import pytest

from repro.sim import Environment
from repro.cluster import NodeProber, NodeSpec, StorageNode, SystemProbe
from repro.core.estimator import (
    AlwaysOffloadEstimator,
    DOSASEstimator,
    NeverOffloadEstimator,
)
from repro.core.policy import Decision, SchedulingPolicy
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs import IOKind, IORequest, MetadataServer
from repro.pvfs.requests import next_request_id

MB = 1024 * 1024
BW = 118 * MB


class TestSchedulingPolicy:
    def test_default_fallback(self):
        p = SchedulingPolicy(generated_at=0.0, default=Decision.NORMAL)
        assert p.decision_for(42) is Decision.NORMAL
        p.decisions[42] = Decision.ACTIVE
        assert p.decision_for(42) is Decision.ACTIVE

    def test_counts_and_rejects_all(self):
        p = SchedulingPolicy(generated_at=0.0)
        assert not p.rejects_all  # empty: not rejecting anything
        p.decisions = {1: Decision.NORMAL, 2: Decision.NORMAL}
        assert p.rejects_all and p.n_demoted == 2 and p.n_active == 0

    def test_static_factory(self):
        p = SchedulingPolicy.static(Decision.ACTIVE, now=5.0)
        assert p.generated_at == 5.0
        assert p.decision_for(999) is Decision.ACTIVE


def _request(env, fh, size, op="gaussian2d"):
    return IORequest(
        rid=next_request_id(), parent_id=0, kind=IOKind.ACTIVE, fh=fh,
        offset=0, size=size, operation=op, client_name="cn0",
        reply=env.event(), submitted_at=env.now,
    )


@pytest.fixture
def setup(env):
    node = StorageNode(env, "sn0", NodeSpec(cores=2))
    prober = NodeProber(node, lambda: (0, 0, 0.0, 0.0))
    mds = MetadataServer(1, 4 * MB)
    mds.create("/a", size=1024 * MB)
    fh = mds.open("/a")
    return node, prober, fh


class TestStaticEstimators:
    def test_always_offload(self, env, setup):
        _node, _prober, fh = setup
        reqs = [_request(env, fh, 128 * MB) for _ in range(3)]
        policy = AlwaysOffloadEstimator().evaluate(reqs, [])
        assert all(policy.decisions[r.rid] is Decision.ACTIVE for r in reqs)
        assert policy.default is Decision.ACTIVE

    def test_never_offload(self, env, setup):
        _node, _prober, fh = setup
        reqs = [_request(env, fh, 128 * MB) for _ in range(3)]
        policy = NeverOffloadEstimator().evaluate(reqs, [])
        assert policy.rejects_all
        assert policy.default is Decision.NORMAL


class TestDOSASEstimator:
    def _estimator(self, prober, **kw):
        return DOSASEstimator(
            prober=prober,
            kernel_models=cost_models_from_registry(default_registry),
            bandwidth=BW,
            probe_period=None,
            **kw,
        )

    def test_small_queue_stays_active(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        reqs = [_request(env, fh, 128 * MB) for _ in range(2)]
        policy = est.evaluate(reqs, [])
        assert policy.n_active == 2
        assert not policy.interrupt_running

    def test_large_queue_demoted(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        reqs = [_request(env, fh, 128 * MB) for _ in range(8)]
        policy = est.evaluate(reqs, [])
        assert policy.rejects_all
        assert policy.default is Decision.NORMAL  # new arrivals demoted too

    def test_running_demotion_triggers_interrupt_flag(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        running = [_request(env, fh, 128 * MB)]
        queued = [_request(env, fh, 128 * MB) for _ in range(7)]
        policy = est.evaluate(queued, running)
        assert policy.interrupt_running
        assert policy.decisions[running[0].rid] is Decision.NORMAL

    def test_empty_queue_policy(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        policy = est.evaluate([], [])
        assert policy.decisions == {}
        assert policy.default is Decision.ACTIVE
        assert policy.probe is not None

    def test_running_request_counted_by_remaining_bytes(self, env, setup):
        """A mostly-done running kernel participates with its residue."""
        from repro.kernels.base import KernelCheckpoint
        _node, prober, fh = setup
        est = self._estimator(prober)
        nearly_done = _request(env, fh, 128 * MB)
        nearly_done.resume_from = KernelCheckpoint(
            kernel="gaussian2d", bytes_done=120 * MB, records=()
        )
        queued = [_request(env, fh, 128 * MB) for _ in range(3)]
        policy = est.evaluate(queued, [nearly_done])
        # Its 8 MB residue is cheap to finish on storage.
        assert policy.decisions[nearly_done.rid] is Decision.ACTIVE

    def test_mixed_operations_split_per_op(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        sums = [_request(env, fh, 128 * MB, op="sum") for _ in range(8)]
        gausses = [_request(env, fh, 128 * MB) for _ in range(8)]
        policy = est.evaluate(sums + gausses, [])
        assert all(policy.decisions[r.rid] is Decision.ACTIVE for r in sums)
        assert all(policy.decisions[r.rid] is Decision.NORMAL for r in gausses)

    def test_degrade_by_cpu(self, env, setup):
        node, prober, fh = setup

        def busy(env, node):
            yield from node.cpu.compute(160 * MB, 80 * MB)

        def sample(env):
            yield env.timeout(0.5)
            est = self._estimator(prober, degrade_by_cpu=True)
            probe = prober.probe()
            return est.storage_capability("gaussian2d", probe)

        env.process(busy(env, node))
        cap = env.run(until=env.process(sample(env)))
        assert cap == pytest.approx(80 * MB * 0.5)  # one of two cores busy

    @pytest.mark.parametrize("degrade_by_cpu", [False, True])
    def test_core_derate_scales_the_estimate(self, setup, degrade_by_cpu):
        """A straggler advertises its derated capability."""
        _n, prober, _fh = setup
        probe = SystemProbe(
            time=0.0, cpu_utilization=0.0, io_queue_length=0,
            active_queue_length=0, queued_bytes=0.0, active_bytes=0.0,
            cpu_derate=0.25,
        )
        est = self._estimator(prober, degrade_by_cpu=degrade_by_cpu)
        assert est.storage_capability("gaussian2d", probe) == (
            pytest.approx(20 * MB)
        )

    def test_unknown_operation_raises(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        req = _request(env, fh, MB, op="sum")
        req.operation = "mystery"
        with pytest.raises(KeyError, match="mystery"):
            est.evaluate([req], [])

    def test_objective_values_grow(self, env, setup):
        _node, prober, fh = setup
        est = self._estimator(prober)
        est.evaluate([], [])
        policy = est.evaluate([_request(env, fh, MB)], [])
        assert est.objective_values == [0.0, policy.objective_value]

    def test_bandwidth_validation(self, setup):
        _node, prober, _fh = setup
        with pytest.raises(ValueError):
            DOSASEstimator(prober=prober, kernel_models={}, bandwidth=0)
