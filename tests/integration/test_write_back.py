"""Server-side filter output write-back (Son et al. convention)."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import ClusterTopology, discfarm_config
from repro.core.asc import ActiveStorageClient
from repro.core.estimator import AlwaysOffloadEstimator, NeverOffloadEstimator
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.kernels import get_kernel
from repro.pvfs import IOServer, MetadataServer, PVFSClient

MB = 1024 * 1024


def build(estimator_cls=AlwaysOffloadEstimator, execute=True):
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, config.stripe_size)
    server = IOServer(env, topo.storage_node(0),
                      topo.link_for(topo.storage_node(0)), mds)
    ActiveIORuntime(env, server, estimator_cls(),
                    config=RuntimeConfig(execute_kernels=execute))
    node = topo.compute_node(0)
    asc = ActiveStorageClient(env, node, PVFSClient(env, node, [server], mds),
                              execute_kernels=execute)
    return env, mds, asc


class TestWriteBack:
    def test_filter_output_stored_on_server(self):
        env, mds, asc = build()
        mds.create("/scan", size=1 * MB, seed=2, meta={"width": 256})

        def app():
            return (yield from asc.read_ex(mds.open("/scan"), "gaussian2d"))

        outcome = env.run(until=env.process(app()))
        assert len(outcome.output_files) == 1
        stored = mds.lookup(outcome.output_files[0])
        img = mds.lookup("/scan").read_bytes_as_array(0, 1 * MB).reshape(-1, 256)
        got = stored.read_bytes_as_array(0, stored.size).reshape(-1, 256)
        assert np.allclose(got, get_kernel("gaussian2d").reference(img))

    def test_sobel_also_writes_back(self):
        env, mds, asc = build()
        mds.create("/scan", size=512 * 1024, seed=9, meta={"width": 128})

        def app():
            return (yield from asc.read_ex(mds.open("/scan"), "sobel"))

        outcome = env.run(until=env.process(app()))
        assert outcome.output_files
        stored = mds.lookup(outcome.output_files[0])
        img = mds.lookup("/scan").read_bytes_as_array(0, 512 * 1024).reshape(-1, 128)
        got = stored.read_bytes_as_array(0, stored.size).reshape(-1, 128)
        assert np.allclose(got, get_kernel("sobel").reference(img))

    def test_reduction_kernels_do_not_write_back(self):
        env, mds, asc = build()
        mds.create("/data", size=1 * MB, seed=3)

        def app():
            return (yield from asc.read_ex(mds.open("/data"), "sum"))

        outcome = env.run(until=env.process(app()))
        assert outcome.output_files == []

    def test_demoted_filter_returns_output_directly(self):
        """Client-side completion hands the image to the app instead
        of writing back (documented asymmetry — EXPERIMENTS.md)."""
        env, mds, asc = build(estimator_cls=NeverOffloadEstimator)
        mds.create("/scan", size=1 * MB, seed=2, meta={"width": 256})

        def app():
            return (yield from asc.read_ex(mds.open("/scan"), "gaussian2d"))

        outcome = env.run(until=env.process(app()))
        assert outcome.output_files == []
        img = mds.lookup("/scan").read_bytes_as_array(0, 1 * MB).reshape(-1, 256)
        assert np.allclose(outcome.result,
                           get_kernel("gaussian2d").reference(img))

    def test_timing_only_runs_write_nothing(self):
        env, mds, asc = build(execute=False)
        mds.create("/scan", size=64 * MB, seed=2)

        def app():
            return (yield from asc.read_ex(mds.open("/scan"), "gaussian2d"))

        outcome = env.run(until=env.process(app()))
        assert outcome.output_files == []
        assert outcome.result is None
