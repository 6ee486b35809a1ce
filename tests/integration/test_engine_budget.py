"""Engine-work ratchet on one fixed paper point and three scenarios.

DOSAS, gaussian2d, 1 GB per request, 8 requests, one storage node,
jitter off, run twice: without a retry policy, where each demoted
request's remainder is one normal read, and with one, where the
remainder is read one recovered attempt per 4 MB stripe.  The work
each run does is pinned exactly: server requests, demotions and
makespan.  The engine overhead spent on that work — scheduler pushes
and ``Process`` constructions — may only fall.  When a change lowers a
count, lower its budget to the new value in the same change; never
raise a budget to admit a regression.  The Contention Estimator's
probes read the I/O queue's counters and never scan
``IOServer.outstanding``.

Three library scenarios, one seed each, pin the engine's order
itself: the ``(when, priority)`` sequence of every scheduler push, as
a count and a sha256.  Ties at one timestamp pop in push order, so a
change that keeps every push but moves one (say, a child process's
start or finish entry) reorders the run even where no test of its
outputs notices.  Their ``Process`` counts are pinned exactly, as
fixed points of the same ratchet.

The same point with 64 ``sum`` requests keeps the Contention
Estimator probing and re-deciding a busy queue for the whole run (305
policies).  Its tracemalloc peak, measured after a warm-up run, may
only fall too: state a run keeps per probe or per policy shows up
there.
"""

import gc
import hashlib
import tracemalloc
from dataclasses import replace

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.config import MB
from repro.core import RetryPolicy, Scheme, WorkloadSpec, run_scheme
from repro.pvfs import IOKind, IORequest, IOServer, MetadataServer
from repro.pvfs.requests import next_request_id
from repro.scenario import get_scenario, run_scenario
from repro.sim import Environment
from repro.sim.process import Process
from repro.sim.scheduler import HeapScheduler

SPEC = WorkloadSpec(
    kernel="gaussian2d", n_requests=8, request_bytes=1024 * MB,
    n_storage=1, jitter=False,
)

#: Exact: the work itself.
SERVER_REQUESTS = 16  # 8 active requests + 8 one-read demoted remainders
DEMOTED = 8
MAKESPAN = 82.22372881355932

#: Ceilings: engine overhead per run.
#: 413 while the Contention Estimator probed the idle node every
#: period (328 probes; it now parks after its first); 8573 while each
#: remainder was re-read as 256 stripe reads; 18821 before that, while
#: each normal read spawned two processes.
PUSH_BUDGET = 85
PROCESS_BUDGET = 10  # 4106 while each normal read spawned two processes

#: The same point under a retry policy: one attempt per stripe.
RETRY = RetryPolicy(timeout=60)
RETRY_SERVER_REQUESTS = 2056  # 8 active requests + 8 × 256 stripe attempts
RETRY_MAKESPAN = 82.22372881356193
#: 18853 while the Contention Estimator probed the idle node every
#: period and each single-piece recovered read pushed the three queue
#: entries of the child process it once spawned (18525 with the first
#: gone, 12357 with both).
RETRY_PUSH_BUDGET = 12357
#: 2066 while each single-piece gather spawned one recovery process.
RETRY_PROCESS_BUDGET = 10
#: Iterations over ``IOServer.outstanding`` and the records they visit
#: (329 and 2222 while every probe scanned the queue).
QUEUE_SCAN_BUDGET = 0

#: Ceiling on the tracemalloc peak of one run of the 64-request point,
#: in bytes: 0.40 MB.  The point was 64 ``gaussian2d`` requests until
#: the Contention Estimator began parking on an idle node: that run
#: demotes everything at once, so its 2,273 probes of an idle node
#: became 2.  Its peak was 1.74 MB while every probe snapshot and
#: every policy of the run was kept; 0.73 MB (budget 1.2 MB) while
#: every client seeded its backoff RNG at construction and probe
#: snapshots and policies carried a ``__dict__``; 0.51 MB (budget
#: 0.84 MB) since.  The budget keeps the same headroom ratio over the
#: measured peak.
LONG_SPEC = replace(SPEC, kernel="sum", n_requests=64)
PEAK_MEMORY_BUDGET = int(0.66 * MB)

#: One seeded ``run_scenario`` (protected plus baseline, DOSAS) of each
#: scenario: (pushes, sha256 of the push sequence, processes).  The
#: processes were 410, 250 and 440 while each single-piece recovered
#: read spawned a process.  The pushes were 4628, 2366 and 3890 while
#: the Contention Estimator probed an idle node every period and each
#: such read pushed the three queue entries of the child it once
#: spawned.
SCENARIO_SEED = 1
SCENARIOS = {
    "kitchen-sink-chaos": (
        3483, "aa58f388ef80acc60822ad02a31b52d25558ca0822881b82f0895b88d889dfff", 50,
    ),
    "straggler-degrade": (
        1734, "b9f3dfe334cd99952d6ea18c2654b62c2e8780ef9fb4626aa1ca89669bff6b63", 50,
    ),
    "noisy-neighbor-queue": (
        2856, "f3c115929ea7b6bf376d19e034b076531abeb1fcebed844834bc03eedadc0e6b", 116,
    ),
}


class ScanCountingDict(dict):
    """A dict that counts iterations over it and the records visited."""

    def __init__(self, counts, items):
        super().__init__(items)
        self.counts = counts

    def _count(self, records):
        self.counts["queue_scans"] += 1
        for record in records:
            self.counts["queue_records"] += 1
            yield record

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


@pytest.fixture
def counters(monkeypatch):
    """Count scheduler pushes, Process constructions and queue scans.

    ``counts["sequence"]`` hashes every push's ``(when, priority)``.
    """
    counts = {"pushes": 0, "processes": 0, "queue_scans": 0, "queue_records": 0,
              "sequence": hashlib.sha256()}
    push = HeapScheduler.push
    init = Process.__init__
    server_init = IOServer.__init__

    def counting_push(self, when, prio, event):
        counts["pushes"] += 1
        counts["sequence"].update(f"{when!r} {prio}\n".encode())
        push(self, when, prio, event)

    def counting_init(self, env, generator):
        counts["processes"] += 1
        init(self, env, generator)

    def counting_server_init(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        self.outstanding = ScanCountingDict(counts, self.outstanding)

    monkeypatch.setattr(HeapScheduler, "push", counting_push)
    monkeypatch.setattr(Process, "__init__", counting_init)
    monkeypatch.setattr(IOServer, "__init__", counting_server_init)
    return counts


def test_fixed_point_work_is_exact_and_overhead_within_budget(counters):
    result = run_scheme(Scheme.DOSAS, SPEC)
    received = sum(m["requests_received"] for m in result.server_metrics)
    assert received == SERVER_REQUESTS
    assert result.demoted == DEMOTED
    assert result.makespan == pytest.approx(MAKESPAN, rel=1e-12)
    assert 0 < counters["pushes"] <= PUSH_BUDGET
    assert counters["processes"] <= PROCESS_BUDGET
    assert counters["queue_scans"] <= QUEUE_SCAN_BUDGET
    assert counters["queue_records"] <= QUEUE_SCAN_BUDGET


def test_retry_point_reads_the_remainder_one_stripe_per_attempt(counters):
    result = run_scheme(Scheme.DOSAS, SPEC, retry_policy=RETRY)
    received = sum(m["requests_received"] for m in result.server_metrics)
    assert received == RETRY_SERVER_REQUESTS
    assert result.demoted == DEMOTED
    assert result.makespan == RETRY_MAKESPAN
    assert 0 < counters["pushes"] <= RETRY_PUSH_BUDGET
    assert counters["processes"] <= RETRY_PROCESS_BUDGET
    assert counters["queue_scans"] <= QUEUE_SCAN_BUDGET


def test_long_point_peak_memory_within_budget():
    run_scheme(Scheme.DOSAS, LONG_SPEC)  # warm-up: imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        run_scheme(Scheme.DOSAS, LONG_SPEC)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_MEMORY_BUDGET


def test_bare_normal_read_spawns_no_process(counters):
    env = Environment()
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, 4 * MB)
    mds.create("/a", size=8 * MB)
    node = topo.storage_nodes[0]
    server = IOServer(env, node, topo.link_for(node), mds)
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_push_sequence_is_a_fixed_point(counters, name):
    pushes, sequence, processes = SCENARIOS[name]
    run_scenario(get_scenario(name), seeds=(SCENARIO_SEED,))
    assert counters["pushes"] == pushes
    assert counters["sequence"].hexdigest() == sequence
    assert counters["processes"] == processes
