"""System probes and cluster topology."""

import pytest

from repro.sim import Environment
from repro.cluster import (
    ClusterTopology,
    FairShareLink,
    NodeProber,
    NodeSpec,
    StorageNode,
    SystemProbe,
    discfarm_config,
)

MB = 1024 * 1024


class TestSystemProbe:
    def _probe(self, **overrides):
        base = dict(
            time=0.0, cpu_utilization=0.5,
            io_queue_length=10, active_queue_length=4,
            queued_bytes=1000.0, active_bytes=400.0,
        )
        base.update(overrides)
        return SystemProbe(**base)

    def test_normal_bytes_derived(self):
        p = self._probe()
        assert p.normal_bytes == 600.0

    def test_saturation(self):
        assert self._probe(cpu_utilization=1.0).is_saturated
        assert not self._probe(cpu_utilization=0.9).is_saturated

    @pytest.mark.parametrize("overrides", [
        {"cpu_utilization": 1.5},
        {"cpu_utilization": -0.1},
        {"io_queue_length": -1},
        {"active_queue_length": 11},  # exceeds io_queue_length
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            self._probe(**overrides)


class TestNodeProber:
    def test_probe_reads_node_and_queue(self, env):
        node = StorageNode(env, "sn0", NodeSpec(cores=2))
        prober = NodeProber(node, lambda: (5, 2, 640 * MB, 256 * MB))

        def busy(env, node):
            yield from node.cpu.compute(80 * MB, 80 * MB)

        def sample(env, prober):
            yield env.timeout(0.5)
            return prober.probe()

        env.process(busy(env, node))
        probe = env.run(until=env.process(sample(env, prober)))
        assert probe.cpu_utilization == 0.5
        assert probe.io_queue_length == 5
        assert probe.active_queue_length == 2
        assert probe.active_bytes == 256 * MB
        assert prober.latest() is probe

    def test_lost_probe_replays_the_last_live_snapshot(self, env):
        node = StorageNode(env, "sn0", NodeSpec(cores=2))
        queue = [(1, 1, 8.0, 8.0)]
        prober = NodeProber(node, lambda: queue[-1])

        def sample(env, prober):
            live = prober.probe()
            prober.suppress_until(2.0)
            queue.append((3, 2, 24.0, 16.0))
            yield env.timeout(1.0)
            return live, prober.probe()

        live, replay = env.run(until=env.process(sample(env, prober)))
        assert replay.stale and not live.stale
        assert (replay.time, replay.io_queue_length) == (0.0, 1)
        assert prober.latest() is live

    def test_latest_none_before_first(self, env):
        node = StorageNode(env, "sn0", NodeSpec())
        assert NodeProber(node).latest() is None


class TestClusterTopology:
    def test_counts_from_config(self, env):
        topo = ClusterTopology(env, discfarm_config(n_storage=2))
        assert len(topo.storage_nodes) == 2
        assert len(topo.compute_nodes) == 128
        assert len(topo.links) == 2

    def test_link_lookup(self, env):
        topo = ClusterTopology(env, discfarm_config())
        sn = topo.storage_node(0)
        assert topo.link_for(sn).name == "sn0.nic"

    def test_graph_structure(self, env):
        """The star: compute nodes reach each storage node's one NIC."""
        topo = ClusterTopology(env, discfarm_config(n_storage=2, n_compute=4))
        assert [cn.name for cn in topo.compute_nodes] == ["cn0", "cn1", "cn2", "cn3"]
        assert [sn.name for sn in topo.storage_nodes] == ["sn0", "sn1"]
        assert sorted(topo.links) == ["sn0", "sn1"]
        for sn in topo.storage_nodes:
            link = topo.link_for(sn)
            assert link.name == f"{sn.name}.nic"
            assert link.bandwidth == 118 * MB
        assert set(topo.assignment().values()) == {"sn0", "sn1"}

    def test_assignment_round_robin(self, env):
        topo = ClusterTopology(env, discfarm_config(n_storage=2, n_compute=4))
        a = topo.assignment()
        assert a == {"cn0": "sn0", "cn1": "sn1", "cn2": "sn0", "cn3": "sn1"}

    def test_alternate_link_class(self, env):
        topo = ClusterTopology(env, discfarm_config(), link_cls=FairShareLink)
        assert isinstance(topo.link_for(topo.storage_node(0)), FairShareLink)

    def test_jitter_config_propagates(self, env):
        topo = ClusterTopology(env, discfarm_config(jitter=True))
        assert topo.link_for(topo.storage_node(0)).jitter > 0
