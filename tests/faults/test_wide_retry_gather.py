"""The retry gather over a file striped across two servers.

A logical read of a width-2 file is two per-server requests, so the
ASC recovers them in one process each, concurrently: a crash on one
server delays only its own piece, and the first piece to exhaust its
retries reaches the caller while the other piece still runs.  That
piece then gives up at its next re-issue instead of retrying for a
read nobody waits on.
"""

import numpy as np
import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.config import MB
from repro.core.asc import ActiveStorageClient, RetryExhausted, RetryPolicy
from repro.core.estimator import AlwaysOffloadEstimator
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.pvfs import IOServer, MetadataServer, PVFSClient
from repro.pvfs.server import ServerUnavailable
from repro.sim import Environment
from repro.sim.process import Process

RETRY = RetryPolicy(timeout=5.0, max_retries=3, backoff_base=0.05,
                    backoff_factor=1.0, backoff_cap=0.05)


def build(env, size=64 * MB, execute=True):
    """Two storage servers serving active reads, one file over both."""
    config = discfarm_config(n_storage=2, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(2, 1 * MB)
    servers = [
        IOServer(env, node, topo.link_for(node), mds, server_index=i)
        for i, node in enumerate(topo.storage_nodes)
    ]
    for server in servers:
        ActiveIORuntime(env, server, AlwaysOffloadEstimator(),
                        config=RuntimeConfig(execute_kernels=execute))
    mds.create("/wide", size=size, seed=7)
    node = topo.compute_node(0)
    asc = ActiveStorageClient(env, node, PVFSClient(env, node, servers, mds),
                              execute_kernels=execute)
    return mds, servers, asc


@pytest.fixture
def pieces(monkeypatch):
    """Every ``_recover_piece`` process the run spawns, in spawn order."""
    spawned = []
    init = Process.__init__

    def recording(self, env, generator):
        init(self, env, generator)
        if self.name == "_recover_piece":
            spawned.append(self)

    monkeypatch.setattr(Process, "__init__", recording)
    return spawned


def at(env, when, action):
    def fire():
        yield env.timeout(when)
        action()

    env.process(fire())


def test_both_pieces_recover_from_a_mid_read_crash(pieces):
    env = Environment()
    mds, servers, asc = build(env)
    fh = mds.open("/wide")
    assert fh.layout.n_servers == 2
    at(env, 0.01, servers[0].crash)
    at(env, 0.05, servers[0].restart)

    outcome = env.run(until=env.process(asc.read_ex(fh, "sum", retry=RETRY)))

    assert len(pieces) == 2
    assert outcome.served_active == [True, True]
    data = mds.lookup("/wide").read_bytes_as_array(0, 64 * MB)
    assert np.isclose(float(outcome.result), float(data.sum()))
    # Only server 0's piece was abandoned, once, and it came back.
    assert asc.stats["requests_recovered"] == 1
    assert [e["reason"][:8] for e in asc.retry_log] == ["failed: "]
    received = [s.counts["requests_received"] for s in servers]
    assert received == [2, 1]
    assert pieces[0].value.completed and pieces[1].value.completed


def test_exhausted_piece_reaches_the_caller_while_the_other_runs(pieces):
    env = Environment()
    # Timing only, and large enough that piece 1 is still being read
    # when piece 0 runs out of retries.
    mds, servers, asc = build(env, size=1024 * MB, execute=False)
    fh = mds.open("/wide")
    at(env, 0.01, servers[0].crash)  # no restart: piece 0 gives up
    caught = []

    def app():
        try:
            yield from asc.read_ex(fh, "sum", retry=RETRY)
        except RetryExhausted as err:
            caught.append(err)
            # The read gave up on piece 0 while piece 1 still runs;
            # the gather defused it, so its own late failure cannot
            # crash the engine.
            assert not pieces[0].is_alive and pieces[1].is_alive
            assert pieces[0].defused and pieces[1].defused
            # Kill piece 1's in-flight attempt: the read is abandoned,
            # so the piece gives up instead of re-issuing, and its
            # RetryExhausted lands with nobody waiting on it.
            servers[1].crash()

    env.run(until=env.process(app()))
    env.run()

    err, = caught
    assert isinstance(err.last_cause, ServerUnavailable)
    assert err.reasons == {"failed: ServerCrashed": 1, "failed: ServerUnavailable": 3}
    late = pieces[1].value
    assert isinstance(late, RetryExhausted)
    assert "gave up (read abandoned)" in str(late)
    assert late.reasons == {"failed: ServerCrashed": 1}
    assert servers[1].counts["requests_rejected"] == 0
