"""``IOServer.queue_stats`` against a scan of the outstanding table.

The server keeps the Contention Estimator's (n, k, D, D_A) (paper
Table II) as counters updated wherever a request enters or leaves
``outstanding``.  :func:`scan` is the definition those counters must
equal: a fresh pass over every outstanding request.  The tests compare
the two after each way the queue can change on a bare server, at every
probe of full scenario runs, and over generated request mixes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.probe import NodeProber
from repro.pvfs import IOKind, IORequest, IOServer, MetadataServer
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.requests import IOReply, next_request_id
from repro.qos import AdmissionController
from repro.scenario import get_scenario, run_scenario
from repro.sim import Environment

MB = 1024 * 1024


def scan(server):
    """(n, k, D, D_A) recomputed from every outstanding request."""
    n = len(server.outstanding)
    k = 0
    total = 0.0
    active = 0.0
    for req in server.outstanding.values():
        total += req.size
        if req.is_active:
            k += 1
            active += req.size
    return n, k, total, active


class QueuedActiveHandler:
    """Active handler double: work stays queued until shed or aborted."""

    def __init__(self, env, server):
        self.env = env
        self.server = server

    def submit(self, request):
        """Accepted active work never runs."""

    def shed(self, rid):
        request = self.server.outstanding.get(rid)
        if request is None:
            return False
        self.server.finish(request, IOReply.demoted(request, None, self.env.now))
        return True

    def abort(self, rid):
        return False

    def on_crash(self, cause):
        """Queued work dies with the server; nothing runs to stop."""


def build(max_queue_depth=None):
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, 4 * MB)
    admission = (
        None if max_queue_depth is None
        else AdmissionController(max_queue_depth=max_queue_depth)
    )
    node = topo.storage_nodes[0]
    server = IOServer(
        env, node, topo.link_for(node), mds, admission=admission
    )
    server.attach_active_handler(QueuedActiveHandler(env, server))
    fh = FileHandle.for_file(mds.create("/a", size=64 * MB))
    return env, server, fh


def make(env, fh, kind, size, deadline=None):
    request = IORequest(
        rid=next_request_id(), parent_id=1, kind=kind, fh=fh, offset=0,
        size=size, operation="sum" if kind is IOKind.ACTIVE else None,
        client_name="cn0", reply=env.event(), submitted_at=env.now,
        deadline=deadline,
    )
    # Crashed, expired and refused replies fail; nobody waits on them.
    request.reply.defuse()
    return request


def check(server, expected):
    stats = server.queue_stats()
    assert stats == scan(server)
    assert stats == expected
    assert all(type(x) is float for x in stats[2:])


class TestBareServer:
    def test_every_queue_change_matches_the_scan(self):
        env, server, fh = build(max_queue_depth=3)
        check(server, (0, 0, 0.0, 0.0))

        normal = make(env, fh, IOKind.NORMAL, 4 * MB)
        server.submit(normal)
        check(server, (1, 0, 4.0 * MB, 0.0))
        queued = make(env, fh, IOKind.ACTIVE, 3 * MB)
        server.submit(queued)
        check(server, (2, 1, 7.0 * MB, 3.0 * MB))
        expiring = make(env, fh, IOKind.ACTIVE, 5 * MB, deadline=0.5)
        server.submit(expiring)
        check(server, (3, 2, 12.0 * MB, 8.0 * MB))

        # The queue is full: a normal arrival sheds the oldest queued
        # active request, then gets in.
        cancelled = make(env, fh, IOKind.NORMAL, 2 * MB)
        server.submit(cancelled)
        assert not queued.reply.value.completed
        assert server.counts["requests_shed_queued"] == 1
        check(server, (3, 1, 11.0 * MB, 5.0 * MB))

        assert server.cancel(cancelled.rid)
        check(server, (2, 1, 9.0 * MB, 5.0 * MB))

        env.run(until=normal.reply)
        assert normal.reply.value.completed
        check(server, (1, 1, 5.0 * MB, 5.0 * MB))

        env.run(until=env.timeout(1.0))
        assert server.counts["deadline_expired"] == 1
        check(server, (0, 0, 0.0, 0.0))

        victim = make(env, fh, IOKind.ACTIVE, 1 * MB)
        server.submit(victim)
        server.submit(make(env, fh, IOKind.NORMAL, 8 * MB))
        check(server, (2, 1, 9.0 * MB, 1.0 * MB))
        server.crash()
        check(server, (0, 0, 0.0, 0.0))

        # The crashed request's handler answers anyway: a late reply
        # leaves the queue as it is.
        server.finish(victim, IOReply.demoted(victim, None, env.now))
        assert server.counts["late_replies"] == 1
        check(server, (0, 0, 0.0, 0.0))

        server.restart()
        server.submit(make(env, fh, IOKind.ACTIVE, 6 * MB))
        check(server, (1, 1, 6.0 * MB, 6.0 * MB))


#: One step of a generated queue history: ``("submit", active, size)``,
#: ``("cancel", pick, _)``, ``("finish", pick, _)`` or ``("crash", _, _)``;
#: ``pick`` chooses among the requests still outstanding.
step_strategy = st.one_of(
    st.tuples(
        st.just("submit"), st.booleans(), st.integers(0, 2**40)
    ),
    st.tuples(
        st.sampled_from(["cancel", "finish"]),
        st.integers(0, 1000),
        st.just(0),
    ),
    st.tuples(st.just("crash"), st.just(0), st.just(0)),
)


class TestGeneratedMixes:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(step_strategy, max_size=60))
    def test_counters_equal_the_scan(self, steps):
        env, server, fh = build()
        for op, arg, size in steps:
            live = list(server.outstanding.values())
            if op == "submit":
                kind = IOKind.ACTIVE if arg else IOKind.NORMAL
                server.submit(make(env, fh, kind, size))
            elif op == "crash":
                server.crash()
                server.restart()
            elif live:
                request = live[arg % len(live)]
                if op == "cancel":
                    server.cancel(request.rid)
                else:
                    server.finish(request, IOReply.demoted(request, None, env.now))
            assert server.queue_stats() == scan(server)


@pytest.fixture
def probe_checks(monkeypatch):
    """Compare ``queue_stats`` with :func:`scan` at every live probe."""
    record = {"probes": 0, "busy": 0, "mismatches": []}
    init = NodeProber.__init__

    def checking_init(self, node, queue_inspector=None):
        init(self, node, queue_inspector)
        server = getattr(queue_inspector, "__self__", None)
        if not isinstance(server, IOServer):
            return

        def inspect():
            stats = queue_inspector()
            reference = scan(server)
            record["probes"] += 1
            record["busy"] += reference[1] > 0
            if stats != reference:
                record["mismatches"].append((node.env.now, stats, reference))
            return stats

        self.queue_inspector = inspect

    monkeypatch.setattr(NodeProber, "__init__", checking_init)
    return record


@pytest.mark.parametrize("name", ["noisy-neighbor-queue", "kitchen-sink-chaos"])
def test_scenario_probes_match_the_scan(probe_checks, name):
    report = run_scenario(get_scenario(name), seeds=(0, 1, 2, 3))
    modes = {run.mode for seed in report.seeds for run in seed.runs}
    assert {"protected", report.baseline} <= modes
    assert probe_checks["mismatches"] == []
    assert probe_checks["busy"] > 0
    assert probe_checks["probes"] > probe_checks["busy"]
