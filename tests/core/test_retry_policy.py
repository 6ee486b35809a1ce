"""RetryPolicy knob validation, the seeded full-jitter backoff, and
what ``RetryExhausted`` says about the attempts it gave up on."""

import random

import pytest

from repro.cluster import ClusterTopology, discfarm_config
from repro.cluster.config import MB
from repro.core.asc import ActiveStorageClient, RetryExhausted, RetryPolicy
from repro.pvfs import IOServer, MetadataServer, PVFSClient
from repro.pvfs.server import ServerUnavailable
from repro.qos.breaker import BreakerBoard
from repro.sim import Environment


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(timeout=0.0),
        dict(max_retries=-1),
        dict(backoff_base=-0.1),
        dict(backoff_factor=0.5),
        dict(backoff_base=1.0, backoff_cap=0.5),
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_zero_backoff_policy_is_legal(self):
        # cap == base == 0 is the (storm-prone but valid) extreme.
        policy = RetryPolicy(backoff_base=0.0, backoff_factor=1.0,
                             backoff_cap=0.0)
        assert policy.backoff(3) == 0.0


class TestBackoff:
    def test_exponential_growth_under_the_cap(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_factor=2.0,
                             backoff_cap=4.0)
        assert [policy.backoff(a) for a in range(6)] == [
            0.25, 0.5, 1.0, 2.0, 4.0, 4.0
        ]

    def test_full_jitter_stays_within_the_nominal_delay(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_factor=2.0,
                             backoff_cap=4.0, full_jitter=True)
        rng = random.Random(7)
        for attempt in range(8):
            nominal = min(4.0, 0.25 * 2.0 ** attempt)
            assert 0.0 <= policy.backoff(attempt, rng) <= nominal

    def test_full_jitter_is_deterministic_given_the_seed(self):
        policy = RetryPolicy(full_jitter=True)
        a = [policy.backoff(i, random.Random(42)) for i in range(5)]
        b = [policy.backoff(i, random.Random(42)) for i in range(5)]
        assert a == b

    def test_jitter_needs_an_rng(self):
        # Without an RNG the policy falls back to the nominal delay, so
        # callers that never opted in see no behaviour change.
        policy = RetryPolicy(full_jitter=True)
        assert policy.backoff(0) == policy.backoff(0) == 0.25


class TestRetryExhausted:
    def test_carries_the_last_cause(self):
        cause = TimeoutError("boom")
        err = RetryExhausted("gave up", last_cause=cause)
        assert err.last_cause is cause

    def test_cause_defaults_to_none(self):
        assert RetryExhausted("gave up").last_cause is None

    def test_reasons_default_to_empty(self):
        assert RetryExhausted("gave up").reasons == {}


def one_server_client(env, breakers=None):
    """A client reading a 4 MB file held by one I/O server."""
    config = discfarm_config(n_storage=1, n_compute=1)
    topo = ClusterTopology(env, config)
    mds = MetadataServer(1, 4 * MB)
    mds.create("/f", size=4 * MB)
    node = topo.storage_nodes[0]
    server = IOServer(env, node, topo.link_for(node), mds)
    client = topo.compute_node(0)
    asc = ActiveStorageClient(env, client, PVFSClient(env, client, [server], mds),
                              breakers=breakers)
    return asc, server, mds.open("/f")


def exhausted(env, asc, fh, retry):
    """The ``RetryExhausted`` a normal read of ``fh`` ends in."""
    def app():
        with pytest.raises(RetryExhausted) as info:
            yield from asc.read(fh, retry=retry)
        return info.value

    return env.run(until=env.process(app()))


class TestExhaustionReasons:
    def test_breaker_fast_fails_are_named(self):
        # Every attempt is refused by an open breaker, so no attempt
        # has a cause: the tally is the only account of what happened.
        env = Environment()
        breakers = BreakerBoard(threshold=1, cooldown=100.0)
        breakers.for_server(0).on_failure(0.0)
        asc, server, fh = one_server_client(env, breakers)
        retry = RetryPolicy(max_retries=8, backoff_base=0.01, backoff_factor=1.0,
                            backoff_cap=0.01)
        err = exhausted(env, asc, fh, retry)
        assert err.last_cause is None
        assert err.reasons == {"breaker-open": 9}
        assert str(err).endswith("gave up after 9 attempts: 9× breaker-open")
        assert server.counts["requests_received"] == 0

    def test_classes_count_in_order_of_first_occurrence(self):
        # The first attempt times out; the server then crashes, so the
        # re-issues fail on intake.  A failure counts by its type.
        env = Environment()
        asc, server, fh = one_server_client(env)

        def crash():
            yield env.timeout(0.002)
            server.crash()

        env.process(crash())
        retry = RetryPolicy(timeout=0.001, max_retries=2, backoff_base=0.01,
                            backoff_factor=1.0, backoff_cap=0.01)
        err = exhausted(env, asc, fh, retry)
        assert isinstance(err.last_cause, ServerUnavailable)
        assert err.reasons == {"timeout": 1, "failed: ServerUnavailable": 2}
        assert str(err).endswith(
            "gave up after 3 attempts: 1× timeout, 2× failed: ServerUnavailable"
        )
        # The per-attempt log keeps each failure's own message.
        assert [e["reason"][:20] for e in asc.retry_log] == [
            "timeout", "failed: server sn0 i", "failed: server sn0 i",
        ]
