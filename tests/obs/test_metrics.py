"""The I/O server's own counts: ``IOServer.counts``, ``queue_length``,
``service_times`` and the flat ``IOServer.summary()`` built from them."""

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.pvfs import IOServer, MetadataServer
from repro.sim import Environment, TimeWeightedStat
from repro.sim.monitor import percentile


def server():
    env = Environment()
    topo = ClusterTopology(env, discfarm_config(n_storage=1, n_compute=1))
    sn = topo.storage_nodes[0]
    return env, IOServer(env, sn, topo.link_for(sn), MetadataServer(1, 1024))


class TestCounter:
    def test_inc_and_default(self):
        _env, s = server()
        s.counts["requests"] += 1
        s.counts["requests"] += 2
        assert s.counts["requests"] == 3
        # A name never counted reads 0 and is not added.
        assert s.counts["never_touched"] == 0
        assert s.summary() == {"requests": 3.0}


class TestTimeWeightedGauge:
    def test_mean_weighs_by_duration(self):
        env, s = server()
        s.queue_length = TimeWeightedStat(initial=4)   # 4 from t=0
        env.run(until=8.0)
        s.queue_length.update(env.now, 0)              # 0 from t=8
        env.run(until=10.0)
        summary = s.summary()
        # (4*8 + 0*2) / 10
        assert summary["queue_length.mean"] == pytest.approx(3.2)
        assert summary["queue_length.last"] == 0


class TestHistogram:
    def test_stats_and_percentiles(self):
        _env, s = server()
        s.service_times.extend((1.0, 2.0, 3.0, 4.0))
        summary = s.summary()
        assert summary["service_time.count"] == 4
        assert summary["service_time.sum"] == pytest.approx(10.0)
        assert summary["service_time.mean"] == pytest.approx(2.5)
        assert summary["service_time.p50"] == pytest.approx(2.5)
        assert summary["service_time.min"] == 1.0
        assert summary["service_time.max"] == 4.0
        assert {"service_time.p95", "service_time.p99"} <= summary.keys()

    def test_empty_histogram(self):
        _env, s = server()
        # Nothing finished: no service_time keys, and no statistic of
        # the empty list.
        assert s.summary() == {}
        with pytest.raises(ValueError):
            percentile(s.service_times, 50)


class TestRegistry:
    def test_summary_flattens_all_instruments(self):
        env, s = server()
        s.counts["done"] += 3
        s.queue_length = TimeWeightedStat(initial=2)
        env.run(until=4.0)
        s.service_times.append(0.5)
        summary = s.summary()
        assert summary["done"] == 3
        assert summary["queue_length.mean"] == pytest.approx(2.0)
        assert summary["queue_length.last"] == 2
        assert summary["service_time.count"] == 1
        # Counts first, then the queue length, then the service times.
        assert list(summary)[:3] == [
            "done", "queue_length.mean", "queue_length.last"]
