"""A policy refresh over an empty queue.

The probe that parks the periodic probe, and the catch-up evaluation
of the arrival that wakes it, find nothing queued or running.  Such a
refresh solves nothing, yet it still takes one probe (the probe-loss
replay source), records one objective value, re-issues the default
verdict and lets the hysteresis estimator forget departed requests.
"""

import pytest

from repro.cluster import ClusterTopology, NodeProber, discfarm_config
from repro.core.estimator import DOSASEstimator
from repro.core.estimators_ext import HysteresisDOSASEstimator
from repro.core.policy import Decision, SchedulingPolicy
from repro.core.runtime import ActiveIORuntime
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs import IOServer, MetadataServer


def idle_runtime(env, estimator_cls=DOSASEstimator, **estimator_kwargs):
    config = discfarm_config(n_storage=1, n_compute=4)
    topo = ClusterTopology(env, config)
    node = topo.storage_node(0)
    server = IOServer(
        env, node, topo.link_for(node), MetadataServer(1, config.stripe_size)
    )
    estimator = estimator_cls(
        prober=NodeProber(node, server.queue_stats),
        kernel_models=cost_models_from_registry(default_registry),
        bandwidth=config.network_bandwidth,
        probe_period=None,
        **estimator_kwargs,
    )
    return ActiveIORuntime(env, server, estimator)


def test_probes_once_records_and_resets_the_default(env, monkeypatch):
    runtime = idle_runtime(env)
    prober = runtime.estimator.prober
    probes = []
    live_probe = prober.probe
    monkeypatch.setattr(prober, "probe", lambda: probes.append(1) or live_probe())
    runtime.policy = SchedulingPolicy(generated_at=0.0, default=Decision.NORMAL)

    policy = runtime.refresh_policy()

    assert len(probes) == 1
    assert prober.latest() is policy.probe
    assert runtime.estimator.objective_values == [0.0]
    assert runtime.policy is policy
    assert policy.default is Decision.ACTIVE
    assert policy.decisions == {} and not policy.interrupt_running


def test_lost_probes_past_the_timeout_turn_the_default_normal(env):
    runtime = idle_runtime(env, stale_probe_timeout=0.2)
    runtime.refresh_policy()  # the live snapshot at t = 0
    runtime.estimator.prober.suppress_until(10.0)

    def later(delay):
        yield env.timeout(delay)
        return runtime.refresh_policy()

    within = env.run(until=env.process(later(0.1)))
    assert within.probe.stale and within.default is Decision.ACTIVE
    assert within.generated_at == 0.0  # the replayed snapshot's time

    past = env.run(until=env.process(later(0.4)))
    assert past.probe.stale and past.probe.time == 0.0
    assert past.default is Decision.NORMAL
    assert past.generated_at == pytest.approx(0.5)  # now, not probe time
    assert runtime.estimator.objective_values == [0.0, 0.0, 0.0]


def test_drops_the_hysteresis_state(env):
    runtime = idle_runtime(env, HysteresisDOSASEstimator)
    runtime.estimator._state[12345] = (Decision.NORMAL, None, 0)
    policy = runtime.refresh_policy()
    assert runtime.estimator._state == {}
    assert policy.default is Decision.ACTIVE
