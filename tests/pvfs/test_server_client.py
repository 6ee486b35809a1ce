"""I/O server + client: normal path, queue stats, striping behaviour."""

import dataclasses
import json

import numpy as np
import pytest

from repro.sim import Environment
from repro.sim.events import Timer
from repro.cluster import ClusterTopology, discfarm_config
from repro.pvfs import (
    IOKind,
    IORequest,
    IOServer,
    MetadataServer,
    PVFSClient,
    PVFSError,
)
from repro.kernels.base import KernelCheckpoint
from repro.pvfs.requests import IOReply, next_request_id
from repro.pvfs.server import DeadlineExceeded, ServerCrashed

MB = 1024 * 1024


def build(n_storage=1, n_compute=2, stripe=4 * MB):
    env = Environment()
    config = discfarm_config(n_storage=n_storage, n_compute=n_compute)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(n_storage, stripe)
    servers = [
        IOServer(env, sn, topo.link_for(sn), mds, server_index=i)
        for i, sn in enumerate(topo.storage_nodes)
    ]
    return env, topo, mds, servers


class TestNormalRead:
    def test_read_duration_matches_bandwidth(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=118 * MB)
        client = PVFSClient(env, topo.compute_node(0), servers, mds)

        def app():
            replies = yield from client.read(client.open("/a"))
            return env.now, replies

        t, replies = env.run(until=env.process(app()))
        assert t == pytest.approx(1.0)
        assert sum(r.bytes_streamed for r in replies) == 118 * MB
        assert all(r.completed for r in replies)

    def test_reads_serialise_on_one_nic(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=118 * MB)
        mds.create("/b", size=118 * MB)
        client0 = PVFSClient(env, topo.compute_node(0), servers, mds)
        client1 = PVFSClient(env, topo.compute_node(1), servers, mds)

        def app(client, name):
            yield from client.read(client.open(name))
            return env.now

        p0 = env.process(app(client0, "/a"))
        p1 = env.process(app(client1, "/b"))
        env.run()
        assert sorted([p0.value, p1.value]) == pytest.approx([1.0, 2.0])

    def test_striped_read_uses_both_servers(self):
        env, topo, mds, servers = build(n_storage=2, stripe=1 * MB)
        mds.create("/a", size=8 * MB)  # 4 stripes each
        client = PVFSClient(env, topo.compute_node(0), servers, mds)

        def app():
            replies = yield from client.read(client.open("/a"))
            return env.now, replies

        t, replies = env.run(until=env.process(app()))
        assert len(replies) == 2
        # Both NICs work in parallel: 4 MB each at 118 MB/s.
        assert t == pytest.approx(4 / 118)
        assert servers[0].counts["bytes_streamed"] == 4 * MB
        assert servers[1].counts["bytes_streamed"] == 4 * MB

    def test_partial_extent_read(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=100 * MB)
        client = PVFSClient(env, topo.compute_node(0), servers, mds)

        def app():
            replies = yield from client.read(client.open("/a"), offset=10 * MB,
                                             size=20 * MB)
            return sum(r.bytes_streamed for r in replies)

        assert env.run(until=env.process(app())) == 20 * MB

    def test_out_of_bounds_read_rejected(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=10)
        client = PVFSClient(env, topo.compute_node(0), servers, mds)
        with pytest.raises(PVFSError):
            # generator raises at construction time inside the call
            list(client.read(client.open("/a"), offset=0, size=11))


class TestServerBookkeeping:
    def test_queue_stats_shapes(self):
        env, topo, mds, servers = build()
        server = servers[0]
        mds.create("/a", size=10 * MB)
        fh = mds.open("/a")

        def make(kind, op):
            return IORequest(
                rid=next_request_id(), parent_id=0, kind=kind, fh=fh,
                offset=0, size=10 * MB, operation=op, client_name="cn0",
                reply=env.event(), submitted_at=env.now,
            )

        server.submit(make(IOKind.NORMAL, None))
        n, k, total, active = server.queue_stats()
        assert (n, k) == (1, 0)
        assert total == 10 * MB and active == 0

    def test_duplicate_rid_rejected(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=1 * MB)
        fh = mds.open("/a")
        req = IORequest(
            rid=next_request_id(), parent_id=0, kind=IOKind.NORMAL, fh=fh,
            offset=0, size=1 * MB, operation=None, client_name="cn0",
            reply=env.event(), submitted_at=0.0,
        )
        servers[0].submit(req)
        with pytest.raises(PVFSError):
            servers[0].submit(req)

    def test_active_without_handler_rejected(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=1 * MB)
        fh = mds.open("/a")
        req = IORequest(
            rid=next_request_id(), parent_id=0, kind=IOKind.ACTIVE, fh=fh,
            offset=0, size=1 * MB, operation="sum", client_name="cn0",
            reply=env.event(), submitted_at=0.0,
        )
        with pytest.raises(PVFSError, match="no active storage server"):
            servers[0].submit(req)

    def test_request_validation(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=1 * MB)
        fh = mds.open("/a")
        with pytest.raises(ValueError):
            IORequest(rid=1, parent_id=0, kind=IOKind.ACTIVE, fh=fh, offset=0,
                      size=1, operation=None, client_name="c",
                      reply=env.event(), submitted_at=0.0)
        with pytest.raises(ValueError):
            IORequest(rid=1, parent_id=0, kind=IOKind.NORMAL, fh=fh, offset=-1,
                      size=1, operation=None, client_name="c",
                      reply=env.event(), submitted_at=0.0)

        def make(size, extents):
            return IORequest(rid=1, parent_id=0, kind=IOKind.NORMAL, fh=fh,
                             offset=0, size=size, operation=None,
                             client_name="c", reply=env.event(),
                             submitted_at=0.0, extents=extents)

        assert make(5, ()).extents == ((0, 5),)
        assert make(5, ((0, 5),)).size == 5
        assert make(5, ((0, 2), (10, 3))).size == 5
        for extents in [((0, 4),), ((0, 6),), ((0, 2), (10, 2))]:
            with pytest.raises(ValueError, match="extents cover"):
                make(5, extents)
        with pytest.raises(ValueError, match="negative request size"):
            make(-1, ((0, -1),))

    def test_request_and_reply_are_slotted(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=1 * MB)
        request = IORequest(rid=1, parent_id=0, kind=IOKind.NORMAL,
                            fh=mds.open("/a"), offset=0, size=1,
                            operation=None, client_name="c",
                            reply=env.event(), submitted_at=0.0)
        for record in (request, IOReply(rid=1, completed=True)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.not_a_field = 1

    def test_monitor_counts(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=5 * MB)
        client = PVFSClient(env, topo.compute_node(0), servers, mds)

        def app():
            yield from client.read(client.open("/a"))

        env.run(until=env.process(app()))
        counts = servers[0].counts
        assert counts["requests_received"] == 1
        assert counts["requests_completed"] == 1
        assert counts["bytes_streamed"] == 5 * MB

    def test_empty_deployment_rejected(self):
        env = Environment()
        mds = MetadataServer(1, 1024)
        from repro.cluster import ComputeNode, NodeSpec
        node = ComputeNode(env, "cn0", NodeSpec())
        with pytest.raises(PVFSError):
            PVFSClient(env, node, [], mds)


class TestSummary:
    """``IOServer.summary()``: the flat per-server dict each run copies
    into ``SchemeResult.server_metrics``.  Compared as JSON, so the key
    order and every int/float type are pinned with the values."""

    def test_crash_before_any_request(self):
        env, _topo, _mds, servers = build()
        Timer(env, 1.0, servers[0].crash)
        env.run(until=3.0)
        # Reading a name never counted gives 0 and does not add it.
        assert servers[0].counts["requests_received"] == 0
        assert json.dumps(servers[0].summary()) == json.dumps({
            "crashes": 1.0,
            "queue_length.mean": 0.0,
            "queue_length.last": 0,
        })

    def test_two_reads_served(self):
        # 1 MB and 3 MB on one 118 MB/s NIC: replies at 1/118 s and
        # 4/118 s, the queue holding 2 then 1.
        env, topo, mds, servers = build()
        mds.create("/a", size=1 * MB)
        mds.create("/b", size=3 * MB)
        for i, name in enumerate(("/a", "/b")):
            client = PVFSClient(env, topo.compute_node(i), servers, mds)
            env.process(client.read(client.open(name)))
        env.run()
        assert json.dumps(servers[0].summary()) == json.dumps({
            "bytes_streamed": 4194304.0,
            "requests_completed": 2.0,
            "requests_normal": 2.0,
            "requests_received": 2.0,
            "queue_length.mean": 1.25,
            "queue_length.last": 0,
            "service_time.count": 2,
            "service_time.sum": 0.0423728813559322,
            "service_time.mean": 0.0211864406779661,
            "service_time.min": 0.00847457627118644,
            "service_time.max": 0.03389830508474576,
            "service_time.p50": 0.0211864406779661,
            "service_time.p95": 0.032627118644067796,
            "service_time.p99": 0.033644067796610166,
        })


class TestDemotedReply:
    """``IOReply.demoted``: the one ``completed == 0`` reply (Table I)."""

    @staticmethod
    def fields(reply):
        return {f.name: getattr(reply, f.name)
                for f in dataclasses.fields(IOReply)}

    @staticmethod
    def active(env, fh, offset, size, extents=(), resume_from=None):
        return IORequest(rid=7, parent_id=3, kind=IOKind.ACTIVE, fh=fh,
                         offset=offset, size=size, operation="sum",
                         client_name="c", reply=env.event(),
                         submitted_at=0.0, resume_from=resume_from,
                         extents=extents)

    def test_fresh_request(self):
        env, topo, mds, servers = build()
        mds.create("/a", size=8 * MB)
        fh = mds.open("/a")
        request = self.active(env, fh, 1 * MB, 4 * MB)
        assert self.fields(IOReply.demoted(request, None, 2.5)) == {
            "rid": 7, "completed": False, "result": None, "checkpoint": None,
            "fh": fh, "offset": 1 * MB, "remaining": 4 * MB,
            "bytes_streamed": 0.0, "served_active": False,
            "finished_at": 2.5, "extents": ((1 * MB, 4 * MB),),
            "bytes_done": 0, "output_file": None,
        }

    # (bytes done, file offset of the first unprocessed byte): inside
    # the second extent, at the gap between the two, and past the end.
    @pytest.mark.parametrize("done, position", [
        (3 * MB, 11 * MB), (2 * MB, 10 * MB), (5 * MB, 13 * MB),
    ], ids=["inside", "gap", "end"])
    def test_resumed_request_with_two_extents(self, done, position):
        env, topo, mds, servers = build()
        mds.create("/a", size=16 * MB)
        fh = mds.open("/a")
        extents = ((2 * MB, 2 * MB), (10 * MB, 3 * MB))
        checkpoint = KernelCheckpoint(kernel="sum", bytes_done=done,
                                      records=(("acc", "float", 1.5),))
        request = self.active(env, fh, 2 * MB, 5 * MB, extents, checkpoint)
        reply = IOReply.demoted(request, checkpoint, 4.0, streamed=64.0)
        assert self.fields(reply) == {
            "rid": 7, "completed": False, "result": None,
            "checkpoint": checkpoint, "fh": fh,
            "offset": position, "remaining": 5 * MB - done,
            "bytes_streamed": 64.0, "served_active": False,
            "finished_at": 4.0, "extents": extents,
            "bytes_done": done, "output_file": None,
        }


class TestServiceLifecycle:
    """Crash, client cancel and deadline stop a normal read or a write
    mid-service: the typed failure (if any) arrives exactly once, the
    server's service and deadline tables end empty, nothing finishes
    late, and the link carries exactly the bytes already handed to it.
    A request finishing unknown would raise out of ``env.run()``."""

    SIZE = 2 * MB
    WIRE = SIZE / (118 * MB)  # seconds on the NIC

    def start(self, kind=IOKind.NORMAL, deadline=None, payload=None):
        env, _topo, mds, servers = build()
        mds.create("/a", size=self.SIZE, writable=kind is IOKind.WRITE)
        server = servers[0]
        request = IORequest(
            rid=next_request_id(), parent_id=0, kind=kind, fh=mds.open("/a"),
            offset=0, size=self.SIZE, operation=None, client_name="cn0",
            reply=env.event(), submitted_at=env.now, deadline=deadline,
            payload=payload,
        )
        outcomes = []
        request.reply.callbacks.append(outcomes.append)
        request.reply.defuse()  # stands in for the waiting client
        server.submit(request)
        return env, mds, server, request, outcomes

    @staticmethod
    def assert_settled(server):
        assert server._service == {}
        assert server._deadline_timers == {}
        assert server.counts["late_replies"] == 0
        assert server.counts["requests_completed"] == 0

    def test_crash_mid_transfer(self):
        env, _mds, server, _request, outcomes = self.start()
        Timer(env, self.WIRE / 2, server.crash)
        env.run()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].value, ServerCrashed)
        assert server.counts["requests_failed_crash"] == 1
        self.assert_settled(server)
        assert server.link.bytes_transferred == self.SIZE  # in flight: drains

    def test_client_cancel_mid_transfer(self):
        env, _mds, server, request, outcomes = self.start()
        cancelled = []
        Timer(env, self.WIRE / 2,
              lambda: cancelled.append(server.cancel(request.rid)))
        env.run()
        assert cancelled == [True]
        assert outcomes == [] and not request.reply.triggered
        assert server.counts["requests_cancelled"] == 1
        self.assert_settled(server)
        assert server.link.bytes_transferred == self.SIZE

    def test_deadline_expires_mid_transfer(self):
        env, _mds, server, _request, outcomes = self.start(
            deadline=self.WIRE / 2
        )
        env.run()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].value, DeadlineExceeded)
        assert server.counts["deadline_expired"] == 1
        self.assert_settled(server)
        assert server.link.bytes_transferred == self.SIZE

    def test_interrupted_write_stores_nothing(self):
        payload = np.arange(self.SIZE // 8, dtype=np.float64) + 1.0
        env, mds, server, _request, outcomes = self.start(
            kind=IOKind.WRITE, payload=payload
        )
        Timer(env, self.WIRE / 2, server.crash)
        env.run()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].value, ServerCrashed)
        self.assert_settled(server)
        assert server.link.bytes_transferred == self.SIZE
        stored = mds.lookup("/a").read_bytes_as_array(0, self.SIZE)
        assert not stored.any()

    def test_write_completes_into_the_file(self):
        payload = np.arange(self.SIZE // 8, dtype=np.float64) + 1.0
        env, mds, server, _request, outcomes = self.start(
            kind=IOKind.WRITE, payload=payload
        )
        env.run()
        assert len(outcomes) == 1 and outcomes[0].value.completed
        assert outcomes[0].value.finished_at == pytest.approx(self.WIRE)
        assert server._service == {}
        stored = mds.lookup("/a").read_bytes_as_array(0, self.SIZE)
        assert np.array_equal(stored, payload)
