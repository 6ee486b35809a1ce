"""The enhanced MPI-IO interface (paper Table I semantics)."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import ClusterTopology, NodeProber, discfarm_config
from repro.core import ActiveIORuntime, ActiveStorageClient
from repro.core.estimator import AlwaysOffloadEstimator, NeverOffloadEstimator
from repro.core.runtime import RuntimeConfig
from repro.mpiio import (
    BYTE,
    DOUBLE,
    Datatype,
    File,
    INT,
    MPIIOContext,
    MPIIOError,
    ResultStruct,
    Status,
)
from repro.pvfs import IOServer, MetadataServer, PVFSClient

MB = 1024 * 1024


class TestDatatypes:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT.size == 4
        assert DOUBLE.size == 8
        assert DOUBLE.dtype == np.float64

    def test_extent(self):
        assert DOUBLE.extent(10) == 80
        with pytest.raises(ValueError):
            DOUBLE.extent(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Datatype("BAD", 0, "uint8")


class TestStatus:
    def test_get_count(self):
        s = Status()
        s.set_elements(80, finished_at=1.5, demotions=2)
        assert s.get_count(DOUBLE) == 10
        assert s.get_count(BYTE) == 80
        assert s.finished_at == 1.5
        assert s.demotions == 2
        assert not s.cancelled
        assert s.error == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Status().set_elements(-1, 0.0)


class TestResultStruct:
    def test_mark_completed(self):
        r = ResultStruct()
        r.mark_completed("result", offset=100)
        assert r.completed and r.buf == "result" and r.offset == 100

    def test_mark_uncompleted(self):
        from repro.kernels.base import KernelCheckpoint
        r = ResultStruct()
        cp = KernelCheckpoint(kernel="sum", bytes_done=64, records=())
        r.mark_uncompleted(cp, fh="handle", offset=64)
        assert not r.completed
        assert r.buf is cp
        assert r.offset == 64


def build_ctx(env, estimator_cls=AlwaysOffloadEstimator, execute=True,
              file_bytes=4 * MB):
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, config.stripe_size)
    server = IOServer(env, topo.storage_node(0),
                      topo.link_for(topo.storage_node(0)), mds)
    ActiveIORuntime(env, server, estimator_cls(),
                    config=RuntimeConfig(execute_kernels=execute))
    mds.create("/data", size=file_bytes, seed=3)
    node = topo.compute_node(0)
    asc = ActiveStorageClient(env, node, PVFSClient(env, node, [server], mds),
                              execute_kernels=execute)
    return MPIIOContext(env, asc), mds


class TestFilePointer:
    def test_seek_tell_size(self, env):
        ctx, _ = build_ctx(env)
        fh = ctx.open("/data")
        assert fh.get_size() == 4 * MB
        fh.seek(100)
        assert fh.tell() == 100
        fh.seek(50, whence=1)
        assert fh.tell() == 150
        fh.seek(-8, whence=2)
        assert fh.tell() == 4 * MB - 8

    def test_seek_validation(self, env):
        ctx, _ = build_ctx(env)
        fh = ctx.open("/data")
        with pytest.raises(MPIIOError):
            fh.seek(-1)
        with pytest.raises(MPIIOError):
            fh.seek(1, whence=2)
        with pytest.raises(MPIIOError):
            fh.seek(0, whence=9)

    def test_closed_file_rejects_ops(self, env):
        ctx, _ = build_ctx(env)
        fh = ctx.open("/data")
        fh.close()
        with pytest.raises(MPIIOError):
            fh.seek(0)

    def test_read_past_eof_rejected(self, env):
        ctx, _ = build_ctx(env)
        fh = ctx.open("/data")
        fh.seek(0, whence=2)

        def app():
            yield from fh.read(1, DOUBLE)

        with pytest.raises(MPIIOError):
            env.run(until=env.process(app()))


class TestRead:
    def test_read_advances_pointer_and_fills_status(self, env):
        ctx, _ = build_ctx(env)
        fh = ctx.open("/data")
        status = Status()

        def app():
            nbytes = yield from fh.read(1024, DOUBLE, status)
            return nbytes

        nbytes = env.run(until=env.process(app()))
        assert nbytes == 8192
        assert fh.tell() == 8192
        assert status.get_count(DOUBLE) == 1024


class TestReadEx:
    def test_read_ex_completed_with_result(self, env):
        ctx, mds = build_ctx(env)
        fh = ctx.open("/data")
        result = ResultStruct()
        status = Status()

        def app():
            yield from fh.read_ex(result, 4 * MB // 8, DOUBLE, "sum", status)

        env.run(until=env.process(app()))
        expected = float(mds.lookup("/data").read_bytes_as_array(0, 4 * MB).sum())
        assert result.completed
        assert result.buf == pytest.approx(expected)
        assert result.offset == 4 * MB
        assert status.demotions == 0

    def test_read_ex_demoted_path_still_completes(self, env):
        """With a reject-all server, the ASC finishes client-side —
        the struct is completed but status records the demotion."""
        ctx, mds = build_ctx(env, estimator_cls=NeverOffloadEstimator)
        fh = ctx.open("/data")
        result = ResultStruct()
        status = Status()

        def app():
            yield from fh.read_ex(result, 4 * MB // 8, DOUBLE, "sum", status)

        env.run(until=env.process(app()))
        expected = float(mds.lookup("/data").read_bytes_as_array(0, 4 * MB).sum())
        assert result.completed
        assert result.buf == pytest.approx(expected)
        assert status.demotions == 1

    def test_sequential_read_ex_walks_file(self, env):
        ctx, mds = build_ctx(env)
        fh = ctx.open("/data")
        half_elems = 4 * MB // 16

        def app():
            r1, r2 = ResultStruct(), ResultStruct()
            yield from fh.read_ex(r1, half_elems, DOUBLE, "sum")
            yield from fh.read_ex(r2, half_elems, DOUBLE, "sum")
            return r1.buf + r2.buf

        total = env.run(until=env.process(app()))
        expected = float(mds.lookup("/data").read_bytes_as_array(0, 4 * MB).sum())
        assert total == pytest.approx(expected)
        assert fh.tell() == 4 * MB
