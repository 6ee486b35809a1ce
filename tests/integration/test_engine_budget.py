"""Engine-work ratchet on one fixed paper point.

DOSAS, gaussian2d, 1 GB per request, 8 requests, one storage node,
jitter off.  The work the point does is pinned exactly: server
requests, demotions and makespan.  The engine overhead spent on that
work — scheduler pushes and ``Process`` constructions — may only fall.
When a change lowers a count, lower its budget to the new value in
the same change; never raise a budget to admit a regression.
"""

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme
from repro.pvfs import IOKind, IORequest, IOServer, MetadataServer
from repro.pvfs.requests import next_request_id
from repro.sim import Environment
from repro.sim.process import Process
from repro.sim.scheduler import CalendarScheduler

SPEC = WorkloadSpec(
    kernel="gaussian2d", n_requests=8, request_bytes=1024 * MB,
    n_storage=1, jitter=False,
)

#: Exact: the work itself.
SERVER_REQUESTS = 2056  # 8 active requests + 8 × 256 demoted stripe reads
DEMOTED = 8
MAKESPAN = 82.22372881356193

#: Ceilings: engine overhead per run.
PUSH_BUDGET = 8573  # 18821 while each normal read spawned two processes
PROCESS_BUDGET = 10  # 4106 while each normal read spawned two processes


@pytest.fixture
def counters(monkeypatch):
    """Count scheduler pushes and Process constructions."""
    counts = {"pushes": 0, "processes": 0}
    push = CalendarScheduler.push
    init = Process.__init__

    def counting_push(self, when, prio, event):
        counts["pushes"] += 1
        push(self, when, prio, event)

    def counting_init(self, env, generator):
        counts["processes"] += 1
        init(self, env, generator)

    monkeypatch.setattr(CalendarScheduler, "push", counting_push)
    monkeypatch.setattr(Process, "__init__", counting_init)
    return counts


def test_fixed_point_work_is_exact_and_overhead_within_budget(counters):
    result = run_scheme(Scheme.DOSAS, SPEC)
    received = sum(m["requests_received"] for m in result.server_metrics)
    assert received == SERVER_REQUESTS
    assert result.demoted == DEMOTED
    assert result.makespan == pytest.approx(MAKESPAN, rel=1e-12)
    assert counters["pushes"] <= PUSH_BUDGET
    assert counters["processes"] <= PROCESS_BUDGET


def test_bare_normal_read_spawns_no_process(counters):
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, 4 * MB)
    mds.create("/a", size=8 * MB)
    node = topo.storage_nodes[0]
    server = IOServer(env, node, topo.link_for(node), mds, config)
    request = IORequest(
        rid=next_request_id(), parent_id=0, kind=IOKind.NORMAL,
        fh=mds.open("/a"), offset=0, size=8 * MB, operation=None,
        client_name="cn0", reply=env.event(), submitted_at=env.now,
    )
    server.submit(request)
    env.run()
    assert request.reply.value.completed
    assert server.link.bytes_transferred == 8 * MB
    assert counters["processes"] == 0
