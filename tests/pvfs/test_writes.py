"""Write path: client writes, striped writes, server ingest timing."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import ClusterTopology, discfarm_config
from repro.pvfs import IOServer, MetadataServer, PVFSClient, PVFSError

MB = 1024 * 1024


def build(n_storage=1, stripe=1 * MB):
    env = Environment()
    config = discfarm_config(n_storage=n_storage, n_compute=2)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(n_storage, stripe)
    servers = [
        IOServer(env, sn, topo.link_for(sn), mds, server_index=i)
        for i, sn in enumerate(topo.storage_nodes)
    ]
    client = PVFSClient(env, topo.compute_node(0), servers, mds)
    return env, mds, servers, client


class TestWritableFiles:
    def test_writable_create_materialises_zeros(self):
        _env, mds, _s, _c = build()
        f = mds.create("/w", size=64, writable=True)
        assert f.writable
        assert np.all(f.read_bytes_as_array(0, 64) == 0)

    def test_write_bytes_roundtrip(self):
        _env, mds, _s, _c = build()
        f = mds.create("/w", size=80, writable=True)
        f.write_bytes_from_array(16, np.array([1.5, 2.5]))
        out = f.read_bytes_as_array(16, 16)
        assert np.array_equal(out, [1.5, 2.5])

    def test_write_outside_extent_rejected(self):
        _env, mds, _s, _c = build()
        f = mds.create("/w", size=16, writable=True)
        with pytest.raises(ValueError):
            f.write_bytes_from_array(8, np.array([1.0, 2.0]))

    def test_synthetic_file_not_writable(self):
        _env, mds, _s, _c = build()
        f = mds.create("/r", size=64)
        assert not f.writable
        with pytest.raises(ValueError, match="not writable"):
            f.write_bytes_from_array(0, np.array([1.0]))

    def test_writable_size_alignment(self):
        _env, mds, _s, _c = build()
        with pytest.raises(PVFSError):
            mds.create("/odd", size=7, writable=True)


class TestClientWrites:
    def test_write_timing_matches_read(self):
        env, mds, servers, client = build()
        mds.create("/w", size=118 * MB, writable=False)  # timing-only

        def app():
            yield from client.write(mds.open("/w"))
            return env.now

        assert env.run(until=env.process(app())) == pytest.approx(1.0)

    def test_write_data_lands_in_file(self):
        env, mds, servers, client = build()
        mds.create("/w", size=1 * MB, writable=True)
        payload = np.arange(1 * MB // 8, dtype=np.float64)

        def app():
            yield from client.write(mds.open("/w"), data=payload)

        env.run(until=env.process(app()))
        assert np.array_equal(
            mds.lookup("/w").read_bytes_as_array(0, 1 * MB), payload
        )

    def test_striped_write_scatters_correctly(self):
        env, mds, servers, client = build(n_storage=2, stripe=64 * 1024)
        mds.create("/w", size=1 * MB, writable=True)
        rng = np.random.default_rng(4)
        payload = rng.random(1 * MB // 8)

        def app():
            yield from client.write(mds.open("/w"), data=payload)

        env.run(until=env.process(app()))
        assert np.array_equal(
            mds.lookup("/w").read_bytes_as_array(0, 1 * MB), payload
        )
        # Both servers moved half the bytes.
        assert servers[0].counts["bytes_streamed"] == 512 * 1024
        assert servers[1].counts["bytes_streamed"] == 512 * 1024

    def test_partial_offset_write(self):
        env, mds, servers, client = build()
        mds.create("/w", size=2 * MB, writable=True)
        payload = np.full(1024, 7.0)

        def app():
            yield from client.write(mds.open("/w"), offset=1 * MB, data=payload)

        env.run(until=env.process(app()))
        f = mds.lookup("/w")
        assert np.all(f.read_bytes_as_array(1 * MB, 8192) == 7.0)
        assert np.all(f.read_bytes_as_array(0, 8192) == 0.0)

    def test_writes_and_reads_share_the_nic(self):
        env, mds, servers, client = build()
        mds.create("/a", size=59 * MB)
        mds.create("/b", size=59 * MB, writable=True)

        def reader():
            yield from client.read(client.open("/a"))
            return env.now

        def writer():
            yield from client.write(mds.open("/b"))
            return env.now

        p1 = env.process(reader())
        p2 = env.process(writer())
        env.run()
        # Two half-second transfers serialise on one NIC.
        assert max(p1.value, p2.value) == pytest.approx(1.0)
