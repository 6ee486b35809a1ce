"""Active I/O Runtime and Active Storage Client behaviour.

Covers the paper's three demotion cases (Sec. III-C): new arrivals,
queued requests, and running kernels (interrupt + checkpoint + client
completion), plus the served-active happy path.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import ClusterTopology, NodeProber, NodeSpec, discfarm_config
from repro.core.asc import ActiveStorageClient
from repro.core.estimator import (
    AlwaysOffloadEstimator,
    DOSASEstimator,
    NeverOffloadEstimator,
)
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs import IOServer, MetadataServer, PVFSClient

MB = 1024 * 1024


def build_stack(env, estimator_factory, runtime_config=None, n_files=1,
                file_bytes=8 * MB, op_meta=None, probe_period=None):
    config = discfarm_config(n_storage=1, n_compute=max(4, n_files))
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, config.stripe_size)
    server = IOServer(env, topo.storage_node(0),
                      topo.link_for(topo.storage_node(0)), mds)
    prober = NodeProber(server.node, server.queue_stats)
    if estimator_factory is DOSASEstimator:
        estimator = DOSASEstimator(
            prober=prober,
            kernel_models=cost_models_from_registry(default_registry),
            bandwidth=config.network_bandwidth,
            probe_period=probe_period,
        )
    else:
        estimator = estimator_factory()
    runtime = ActiveIORuntime(env, server, estimator,
                              config=runtime_config or RuntimeConfig())
    for i in range(n_files):
        mds.create(f"/f{i}", size=file_bytes, seed=i, meta=op_meta)
    return topo, mds, server, runtime


def make_asc(env, topo, server, mds, i=0, execute=False):
    node = topo.compute_node(i)
    client = PVFSClient(env, node, [server], mds)
    return ActiveStorageClient(env, node, client, execute_kernels=execute), node


class TestServedActive:
    def test_result_computed_on_server(self, env):
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator,
            RuntimeConfig(execute_kernels=True),
        )
        asc, _ = make_asc(env, topo, server, mds, execute=True)

        def app():
            outcome = yield from asc.read_ex(mds.open("/f0"), "sum")
            return outcome

        outcome = env.run(until=env.process(app()))
        expected = float(mds.lookup("/f0").read_bytes_as_array(0, 8 * MB).sum())
        assert outcome.result == pytest.approx(expected)
        assert outcome.served_active == [True]
        assert outcome.demotions == 0
        assert runtime.stats["served_active"] == 1

    def test_timing_active_sum(self, env):
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator, file_bytes=860 * MB,
        )
        asc, _ = make_asc(env, topo, server, mds)

        def app():
            yield from asc.read_ex(mds.open("/f0"), "sum")
            return env.now

        # 860 MB at 860 MB/s = 1 s + tiny result transfer.
        assert env.run(until=env.process(app())) == pytest.approx(1.0, rel=1e-3)


class TestDemotedNewArrival:
    def test_never_offload_demotes_and_client_finishes(self, env):
        topo, mds, server, runtime = build_stack(
            env, NeverOffloadEstimator,
            RuntimeConfig(execute_kernels=True), file_bytes=8 * MB,
        )
        asc, node = make_asc(env, topo, server, mds, execute=True)

        def app():
            outcome = yield from asc.read_ex(mds.open("/f0"), "sum")
            return outcome, env.now

        outcome, t = env.run(until=env.process(app()))
        expected = float(mds.lookup("/f0").read_bytes_as_array(0, 8 * MB).sum())
        assert outcome.result == pytest.approx(expected)
        assert outcome.demotions == 1
        assert outcome.client_bytes_read == 8 * MB
        # Time = full transfer + client compute.
        assert t == pytest.approx(8 / 118 + 8 / 860, rel=1e-3)
        assert runtime.stats["demoted_new"] + runtime.stats["demoted_queued"] == 1


class TestInterruptAndMigrate:
    def test_running_kernel_interrupted_checkpointed_resumed(self, env):
        """Start one slow gaussian actively; flood the queue; the
        periodic probe demotes everything; the running kernel
        checkpoints; the client resumes from the checkpoint and the
        final image is exact."""
        topo, mds, server, runtime = build_stack(
            env, DOSASEstimator,
            RuntimeConfig(execute_kernels=True),
            n_files=8, file_bytes=2 * MB, op_meta={"width": 512},
            probe_period=0.005,
        )
        ascs = [make_asc(env, topo, server, mds, i, execute=True)[0]
                for i in range(8)]

        def app(i, delay):
            if delay:
                yield env.timeout(delay)
            outcome = yield from ascs[i].read_ex(mds.open(f"/f{i}"), "gaussian2d")
            return outcome

        procs = [env.process(app(0, 0.0))]
        # Burst arrives while request 0 is computing (gauss takes 25ms).
        procs += [env.process(app(i, 0.004)) for i in range(1, 8)]
        from repro.sim.events import AllOf
        env.run(until=AllOf(env, procs))

        assert runtime.stats["interrupted"] >= 1
        from repro.kernels import get_kernel
        g = get_kernel("gaussian2d")
        for i, p in enumerate(procs):
            outcome = p.value
            img = mds.lookup(f"/f{i}").read_bytes_as_array(0, 2 * MB).reshape(-1, 512)
            assert np.allclose(outcome.result, g.reference(img)), f"req {i}"

    def test_checkpoint_travels_in_reply(self, env):
        """Timing-only mode still carries bytes_done through demotion."""
        topo, mds, server, runtime = build_stack(
            env, DOSASEstimator, RuntimeConfig(), n_files=8,
            file_bytes=128 * MB, probe_period=0.05,
        )
        ascs = [make_asc(env, topo, server, mds, i)[0] for i in range(8)]

        def app(i, delay):
            if delay:
                yield env.timeout(delay)
            outcome = yield from ascs[i].read_ex(mds.open(f"/f{i}"), "gaussian2d")
            return env.now, outcome

        procs = [env.process(app(0, 0.0))]
        procs += [env.process(app(i, 0.2)) for i in range(1, 8)]
        from repro.sim.events import AllOf
        env.run(until=AllOf(env, procs))
        assert runtime.stats["interrupted"] >= 1
        # The interrupted request resumed client-side.  All 8 demoted
        # requests share the NIC, so the bound is the whole-batch TS
        # time (8 serialised transfers + one client compute) — the
        # checkpoint means request 0 re-reads *less* than its full
        # size, so it must beat that bound.
        t0 = procs[0].value[0]
        whole_batch_ts = 8 * 128 / 118 + 128 / 80 + 0.3
        assert t0 <= whole_batch_ts
        outcome0 = procs[0].value[1]
        assert outcome0.demotions == 1
        assert outcome0.client_bytes_read < 128 * MB  # checkpoint saved bytes


class TestRuntimeConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kernel_slots": 0},
        {"kernel_slots": -1},
        {"invocation_overhead": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)


class TestKernelSlots:
    def test_two_slots_halve_active_makespan(self, env):
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator,
            RuntimeConfig(kernel_slots=2), n_files=4, file_bytes=80 * MB,
        )
        ascs = [make_asc(env, topo, server, mds, i)[0] for i in range(4)]

        def app(i):
            yield from ascs[i].read_ex(mds.open(f"/f{i}"), "gaussian2d")
            return env.now

        procs = [env.process(app(i)) for i in range(4)]
        from repro.sim.events import AllOf
        env.run(until=AllOf(env, procs))
        # 4 kernels of 1s each on 2 slots → 2s (vs 4s serial).
        assert max(p.value for p in procs) == pytest.approx(2.0, rel=1e-2)
