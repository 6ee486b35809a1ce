"""IOServer under admission control and deadlines, end to end."""

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.pvfs import IOKind, IORequest, IOServer, MetadataServer
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.requests import next_request_id, reset_request_ids
from repro.pvfs.server import DeadlineExceeded, ServerOverloaded
from repro.qos import AdmissionController
from repro.sim import Environment, Event

MB = 1024 * 1024


class StubHandler:
    """Active handler double: queued work sits until shed or aborted."""

    def __init__(self, env, server):
        self.env = env
        self.server = server
        self.aborted = []

    def submit(self, request):
        """Accepted active work stays queued (never runs)."""

    def shed(self, rid):
        from repro.pvfs.requests import IOReply

        request = self.server.outstanding.get(rid)
        if request is None:
            return False
        self.server.finish(request, IOReply.demoted(request, None, self.env.now))
        return True

    def abort(self, rid):
        self.aborted.append(rid)
        return False


def build(max_queue_depth=2, **admission_kwargs):
    reset_request_ids()
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, 4 * MB)
    admission = AdmissionController(
        max_queue_depth=max_queue_depth, **admission_kwargs
    )
    server = IOServer(
        env, topo.storage_nodes[0], topo.link_for(topo.storage_nodes[0]),
        mds, server_index=0, admission=admission,
    )
    server.attach_active_handler(StubHandler(env, server))
    file = mds.create("/a", size=64 * MB)
    return env, server, FileHandle.for_file(file)


def make_request(env, fh, kind=IOKind.NORMAL, size=4 * MB, deadline=None):
    return IORequest(
        rid=next_request_id(), parent_id=1, kind=kind, fh=fh, offset=0,
        size=size, operation="sum" if kind is IOKind.ACTIVE else None,
        client_name="cn0", reply=Event(env), submitted_at=env.now,
        deadline=deadline,
    )


class TestAdmission:
    def test_normal_rejected_when_full_and_nothing_sheddable(self):
        env, server, fh = build(max_queue_depth=1)
        first = make_request(env, fh)
        server.submit(first)
        second = make_request(env, fh)
        server.submit(second)
        second.reply.defuse()
        assert second.reply.triggered and not second.reply.ok
        assert isinstance(second.reply.value, ServerOverloaded)
        assert server.counts["requests_overloaded"] == 1
        assert first.rid in server.outstanding

    def test_active_arrival_shed_to_demoted_reply(self):
        env, server, fh = build(max_queue_depth=1)
        server.submit(make_request(env, fh))
        active = make_request(env, fh, kind=IOKind.ACTIVE)
        server.submit(active)
        assert active.reply.triggered and active.reply.ok
        reply = active.reply.value
        assert not reply.completed
        assert active.rid not in server.outstanding
        assert server.counts["requests_shed"] == 1

    def test_normal_read_demotes_queued_active_to_make_room(self):
        env, server, fh = build(max_queue_depth=2)
        server.submit(make_request(env, fh))
        active = make_request(env, fh, kind=IOKind.ACTIVE)
        server.submit(active)
        assert len(server.outstanding) == 2  # full
        normal = make_request(env, fh)
        server.submit(normal)
        # The DOSAS shedding order: the queued active request was
        # demoted to free the slot, the normal read got in.
        assert active.reply.triggered and not active.reply.value.completed
        assert normal.rid in server.outstanding
        assert server.counts["requests_shed_queued"] == 1
        assert server.counts["requests_overloaded"] == 0


class TestDeadlines:
    def test_expired_on_arrival_is_refused(self):
        env, server, fh = build()
        request = make_request(env, fh, deadline=0.0)
        server.submit(request)
        request.reply.defuse()
        assert isinstance(request.reply.value, DeadlineExceeded)
        assert server.counts["deadline_rejected"] == 1
        assert request.rid not in server.outstanding

    def test_queued_work_expires_at_its_deadline(self):
        env, server, fh = build()
        request = make_request(env, fh, kind=IOKind.ACTIVE, deadline=0.5)
        server.submit(request)  # StubHandler never serves it
        request.reply.defuse()
        env.run(until=env.timeout(1.0))
        assert isinstance(request.reply.value, DeadlineExceeded)
        assert server.counts["deadline_expired"] == 1
        assert request.rid not in server.outstanding
        assert request.rid in server.active_handler.aborted

    def test_completed_work_cancels_its_timer(self):
        env, server, fh = build()
        request = make_request(env, fh, size=1 * MB, deadline=10.0)
        server.submit(request)
        env.run(until=request.reply)
        assert request.reply.value.completed
        assert not server._deadline_timers
        env.run(until=env.timeout(20.0))  # past the deadline: no expiry
        assert server.counts["deadline_expired"] == 0
