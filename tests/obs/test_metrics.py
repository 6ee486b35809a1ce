"""MetricsRegistry and its instruments."""

import pytest

from repro.obs import MetricsRegistry


class TestCounter:
    def test_inc_and_default(self):
        reg = MetricsRegistry()
        reg.inc("requests")
        reg.inc("requests", 2)
        assert reg.get_counter("requests") == 3
        assert reg.get_counter("never_touched") == 0

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("requests", -1)


class TestTimeWeightedGauge:
    def test_mean_weighs_by_duration(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry(now=lambda: clock["t"])
        g = reg.time_gauge("queue_length")
        g.set(4)            # 4 from t=0
        clock["t"] = 8.0
        g.set(0)            # 0 from t=8
        clock["t"] = 10.0
        # (4*8 + 0*2) / 10
        assert g.mean() == pytest.approx(3.2)
        assert g.value == 0


class TestHistogram:
    def test_stats_and_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("service_time")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean() == pytest.approx(2.5)
        assert h.percentile(50) == pytest.approx(2.5)
        snap = h.snapshot()
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert {"p50", "p95", "p99"} <= snap.keys()

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("empty")
        assert h.snapshot() == {"count": 0}
        with pytest.raises(ValueError):
            h.mean()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_cross_type_name_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x")
        with pytest.raises(ValueError):
            reg.time_gauge("x")

    def test_summary_flattens_all_instruments(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry(now=lambda: clock["t"])
        reg.inc("done", 3)
        reg.time_gauge("q").set(2)
        clock["t"] = 4.0
        reg.histogram("lat").observe(0.5)
        s = reg.summary()
        assert s["done"] == 3
        assert s["q.mean"] == pytest.approx(2.0)
        assert s["q.last"] == 2
        assert s["lat.count"] == 1
