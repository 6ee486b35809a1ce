"""Active I/O over striped files — per-server partials combined.

The paper notes prior work only "partially support[ed] the striped
files" (Piernas et al. [12]).  This reproduction supports active reads
over files striped across several I/O servers for every combinable
(reduction) kernel: each server runs the kernel over its stripes and
the ASC merges the partials.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.sim.events import AllOf
from repro.cluster import ClusterTopology, NodeProber, discfarm_config
from repro.core.asc import ActiveStorageClient
from repro.core.estimator import AlwaysOffloadEstimator, DOSASEstimator
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs import IOServer, MetadataServer, PVFSClient

MB = 1024 * 1024


def build(env, n_storage=2, estimator="as", execute=True):
    config = discfarm_config(n_storage=n_storage, n_compute=4)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(n_storage, 1 * MB)
    servers = [
        IOServer(env, sn, topo.link_for(sn), mds, server_index=i)
        for i, sn in enumerate(topo.storage_nodes)
    ]
    for server in servers:
        if estimator == "as":
            est = AlwaysOffloadEstimator()
        else:
            est = DOSASEstimator(
                prober=NodeProber(server.node, server.queue_stats),
                kernel_models=cost_models_from_registry(default_registry),
                bandwidth=config.network_bandwidth,
                probe_period=0.05,
            )
        ActiveIORuntime(env, server, est,
                        config=RuntimeConfig(execute_kernels=execute))
    return topo, mds, servers


def make_asc(env, topo, servers, mds, i=0):
    node = topo.compute_node(i)
    return ActiveStorageClient(env, node, PVFSClient(env, node, servers, mds),
                               execute_kernels=True)


class TestStripedReductions:
    @pytest.mark.parametrize("op,oracle", [
        ("sum", lambda d: d.sum()),
        ("minmax", lambda d: (d.min(), d.max())),
        ("mean", lambda d: (d.mean(), d.size)),
        ("variance", lambda d: (d.var(), d.mean(), d.size)),
        ("threshold_count", lambda d: int((d > 0.5).sum())),
    ])
    def test_combined_result_matches_whole_file(self, op, oracle):
        env = Environment()
        topo, mds, servers = build(env, n_storage=2)
        mds.create("/striped", size=8 * MB, seed=11)  # 4 stripes per server
        asc = make_asc(env, topo, servers, mds)

        def app():
            outcome = yield from asc.read_ex(mds.open("/striped"), op)
            return outcome

        outcome = env.run(until=env.process(app()))
        # Two servers → two per-server requests, both served actively.
        assert outcome.served_active == [True, True]
        data = mds.lookup("/striped").read_bytes_as_array(0, 8 * MB)
        expected = oracle(data)
        got = outcome.result
        assert np.allclose(np.asarray(got, dtype=np.float64),
                           np.asarray(expected, dtype=np.float64)), op

    def test_three_way_striping(self):
        env = Environment()
        topo, mds, servers = build(env, n_storage=3)
        mds.create("/wide", size=9 * MB, seed=3)
        asc = make_asc(env, topo, servers, mds)

        def app():
            outcome = yield from asc.read_ex(mds.open("/wide"), "sum")
            return outcome

        outcome = env.run(until=env.process(app()))
        assert len(outcome.served_active) == 3
        expected = float(mds.lookup("/wide").read_bytes_as_array(0, 9 * MB).sum())
        assert outcome.result == pytest.approx(expected)

    def test_striped_transfers_use_both_nics_in_parallel(self):
        """The active-storage win multiplies with stripe width: two
        servers each compute their half concurrently."""
        env = Environment()
        topo, mds, servers = build(env, n_storage=2, execute=False)
        mds.create("/big", size=2 * 860 * MB, seed=0)
        asc = ActiveStorageClient(
            env, topo.compute_node(0),
            PVFSClient(env, topo.compute_node(0), servers, mds),
        )

        def app():
            yield from asc.read_ex(mds.open("/big"), "sum")
            return env.now

        # 860 MB per server at 860 MB/s, in parallel → ~1 s.
        assert env.run(until=env.process(app())) == pytest.approx(1.0, rel=1e-2)

    def test_mixed_demotion_across_servers_still_combines(self):
        """Under DOSAS, one stripe server may offload while another
        demotes; the ASC must merge server and client partials."""
        env = Environment()
        topo, mds, servers = build(env, n_storage=2, estimator="dosas")
        # Load server 1 with background active traffic so its verdicts
        # differ from idle server 0's.
        mds.create("/striped", size=4 * MB, seed=5)
        for j in range(8):
            mds.create(f"/noise{j}", size=64 * MB, n_servers=1,
                       first_server=1, seed=100 + j)

        noise_ascs = [make_asc(env, topo, servers, mds, i=1) for _ in range(8)]

        def noise(j):
            outcome = yield from noise_ascs[j].read_ex(
                mds.open(f"/noise{j}"), "gaussian2d", meta={"width": 512})
            return outcome

        asc = make_asc(env, topo, servers, mds)

        def app():
            yield env.timeout(0.01)  # arrive while noise queues up
            outcome = yield from asc.read_ex(mds.open("/striped"), "sum")
            return outcome

        noise_procs = [env.process(noise(j)) for j in range(8)]
        main = env.process(app())
        env.run(until=AllOf(env, noise_procs + [main]))

        outcome = main.value
        expected = float(mds.lookup("/striped").read_bytes_as_array(0, 4 * MB).sum())
        assert outcome.result == pytest.approx(expected)
