"""Cluster configuration validation and the Discfarm preset."""

import pytest

from repro.cluster import ClusterConfig, GB, MB, NodeSpec, discfarm_config
from repro.cluster.config import (
    DISCFARM_BANDWIDTH,
    DISCFARM_BANDWIDTH_MAX,
    DISCFARM_BANDWIDTH_MIN,
)


class TestNodeSpec:
    def test_defaults(self):
        spec = NodeSpec()
        assert spec.cores == 2
        assert spec.core_speed == 1.0

    @pytest.mark.parametrize("field,value", [
        ("cores", 0),
        ("cores", -1),
        ("core_speed", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            NodeSpec(**{field: value})


class TestClusterConfig:
    def test_defaults_are_paper_like(self):
        cfg = ClusterConfig()
        assert cfg.network_bandwidth == 118 * MB
        assert cfg.storage_spec.cores == 2

    @pytest.mark.parametrize("kwargs", [
        {"n_compute": 0},
        {"n_storage": -1},
        {"network_bandwidth": 0},
        {"bandwidth_jitter": 1.0},
        {"bandwidth_jitter": -0.1},
        {"stripe_size": 0},
        {"network_latency": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    def test_with_copies(self):
        cfg = ClusterConfig()
        cfg2 = cfg.with_(n_storage=3)
        assert cfg2.n_storage == 3
        assert cfg.n_storage == 1
        assert cfg2.network_bandwidth == cfg.network_bandwidth


class TestDiscfarm:
    def test_paper_constants(self):
        assert DISCFARM_BANDWIDTH == 118 * MB
        assert DISCFARM_BANDWIDTH_MIN == 111 * MB
        assert DISCFARM_BANDWIDTH_MAX == 120 * MB

    def test_default_shape(self):
        cfg = discfarm_config()
        assert cfg.n_storage == 1
        assert cfg.n_compute == 64
        assert cfg.storage_spec.cores == 2
        assert cfg.bandwidth_jitter == 0.0

    def test_jitter_envelope_matches_observed_range(self):
        cfg = discfarm_config(jitter=True)
        half_width = (DISCFARM_BANDWIDTH_MAX - DISCFARM_BANDWIDTH_MIN) / 2
        assert cfg.bandwidth_jitter == pytest.approx(half_width / DISCFARM_BANDWIDTH)

    def test_scales_with_storage(self):
        cfg = discfarm_config(n_storage=4)
        assert cfg.n_compute == 256
