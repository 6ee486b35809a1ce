"""Collective and non-blocking MPI-IO operations."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import ClusterTopology, discfarm_config
from repro.core import ActiveIORuntime, ActiveStorageClient
from repro.core.estimator import AlwaysOffloadEstimator
from repro.core.runtime import RuntimeConfig
from repro.mpiio import (
    Communicator,
    DOUBLE,
    MPIIOContext,
    MPIIOError,
    ResultStruct,
    Status,
    iread,
    iread_ex,
)
from repro.pvfs import IOServer, MetadataServer, PVFSClient

MB = 1024 * 1024


def build(n_ranks=4, file_bytes=4 * MB, execute=True):
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=n_ranks)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, config.stripe_size)
    server = IOServer(env, topo.storage_node(0),
                      topo.link_for(topo.storage_node(0)), mds)
    ActiveIORuntime(env, server, AlwaysOffloadEstimator(),
                    config=RuntimeConfig(execute_kernels=execute))
    mds.create("/shared", size=file_bytes, seed=6)
    contexts = []
    for i in range(n_ranks):
        node = topo.compute_node(i)
        asc = ActiveStorageClient(env, node, PVFSClient(env, node, [server], mds),
                                  execute_kernels=execute)
        contexts.append(MPIIOContext(env, asc))
    return env, mds, contexts


class TestCommunicator:
    def test_requires_ranks(self):
        with pytest.raises(MPIIOError):
            Communicator([])

    def test_requires_shared_environment(self):
        _env1, _m1, ctx1 = build(1)
        _env2, _m2, ctx2 = build(1)
        with pytest.raises(MPIIOError):
            Communicator([ctx1[0], ctx2[0]])

    def test_partition_covers_exactly(self):
        _env, _mds, contexts = build(3)
        comm = Communicator(contexts)
        spans = [comm.partition(10, r) for r in range(3)]
        assert spans == [(0, 4), (4, 3), (7, 3)]
        assert sum(c for _o, c in spans) == 10
        with pytest.raises(MPIIOError):
            comm.partition(10, 5)

    def test_file_count_checked(self):
        env, _mds, contexts = build(2)
        comm = Communicator(contexts)
        files = comm.open_all("/shared")

        def app():
            yield from comm.read_all(files[:1], 10, DOUBLE)

        with pytest.raises(MPIIOError):
            env.run(until=env.process(app()))


class TestReadAll:
    def test_collective_read_partitions(self):
        env, mds, contexts = build(4, file_bytes=4 * MB)
        comm = Communicator(contexts)
        files = comm.open_all("/shared")
        statuses = [Status() for _ in range(4)]
        total_items = 4 * MB // 8

        def app():
            counts = yield from comm.read_all(files, total_items, DOUBLE,
                                              statuses)
            return counts

        counts = env.run(until=env.process(app()))
        assert sum(counts) == 4 * MB
        assert all(s.get_count(DOUBLE) == total_items // 4 for s in statuses)

    def test_collective_read_ex_sums_to_whole_file(self):
        env, mds, contexts = build(3, file_bytes=3 * MB)
        comm = Communicator(contexts)
        files = comm.open_all("/shared")
        total_items = 3 * MB // 8

        def app():
            outcomes = yield from comm.read_ex_all(files, total_items, DOUBLE,
                                                   "sum")
            return outcomes

        outcomes = env.run(until=env.process(app()))
        total = sum(o.result for o in outcomes)
        expected = float(mds.lookup("/shared").read_bytes_as_array(0, 3 * MB).sum())
        assert total == pytest.approx(expected)

    def test_barrier_semantics(self):
        """read_all returns only after the slowest rank finishes."""
        env, mds, contexts = build(2, file_bytes=236 * MB, execute=False)
        comm = Communicator(contexts)
        files = comm.open_all("/shared")

        def app():
            yield from comm.read_all(files, 236 * MB // 8, DOUBLE)
            return env.now

        t = env.run(until=env.process(app()))
        # Two 118 MB transfers serialise on one NIC: 2 s total.
        assert t == pytest.approx(2.0)


class TestNonBlocking:
    def test_iread_overlaps_with_work(self):
        env, mds, contexts = build(1, file_bytes=118 * MB, execute=False)
        ctx = contexts[0]
        fh = ctx.open("/shared")

        def app():
            req = iread(fh, 118 * MB // 8, DOUBLE)
            assert not req.test()      # still in flight
            yield env.timeout(0.5)     # overlap computation
            nbytes = yield from req.wait()
            return env.now, nbytes, req.test()

        t, nbytes, done = env.run(until=env.process(app()))
        assert t == pytest.approx(1.0)  # overlap, not 1.5
        assert nbytes == 118 * MB
        assert done

    def test_iread_ex_result_struct(self):
        env, mds, contexts = build(1, file_bytes=1 * MB)
        ctx = contexts[0]
        fh = ctx.open("/shared")
        result = ResultStruct()

        def app():
            req = iread_ex(fh, result, 1 * MB // 8, DOUBLE, "sum")
            outcome = yield from req.wait()
            return outcome

        outcome = env.run(until=env.process(app()))
        expected = float(mds.lookup("/shared").read_bytes_as_array(0, 1 * MB).sum())
        assert result.completed
        assert result.buf == pytest.approx(expected)
        assert outcome.result == pytest.approx(expected)


class TestReadAt:
    def test_explicit_offset_leaves_pointer(self):
        env, mds, contexts = build(1, file_bytes=2 * MB, execute=False)
        fh = contexts[0].open("/shared")
        fh.seek(64)

        def app():
            nbytes = yield from fh.read_at(1 * MB, 16, DOUBLE)
            return nbytes

        assert env.run(until=env.process(app())) == 128
        assert fh.tell() == 64

    def test_bounds_checked(self):
        env, mds, contexts = build(1, file_bytes=1 * MB, execute=False)
        fh = contexts[0].open("/shared")

        def app():
            yield from fh.read_at(1 * MB, 1, DOUBLE)

        with pytest.raises(MPIIOError):
            env.run(until=env.process(app()))
