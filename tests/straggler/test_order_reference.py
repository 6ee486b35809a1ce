"""``StragglerDispatcher.order`` against the key-function ranking it replaced.

``order`` ranks eligible candidates with one sort of ``(in-flight,
EWMA, candidate position, server)`` tuples read straight off the
board.  :func:`reference_order` below is the ranking it replaced: a
``sorted`` over a per-call key closure and a position dict, reading
the board through its accessors, and recomputing the hedge delay from
the latency window on every read.  Over generated boards the two must
return the same ranking, leave the dispatcher's RNG in the same state,
count the same stats and create the same breakers, call after call.
"""

from hypothesis import given, settings, strategies as st

from repro.qos.breaker import BreakerBoard
from repro.straggler import LatencyBoard, StragglerConfig, StragglerDispatcher

CONFIG = StragglerConfig(min_samples=3, window=8)
SERVERS = range(6)
NOW = 1.0


def fresh_hedge_delay(board):
    """The hedge delay computed from the latency window, uncached."""
    cfg = board.config
    if len(board.overall) < cfg.min_samples:
        return cfg.hedge_delay_floor
    return max(cfg.hedge_delay_floor, board.overall.percentile(cfg.hedge_quantile))


def reference_order(d, candidates, now, breakers=None, deadline=None):
    """The ranking ``order`` replaced, kept verbatim but for the hedge delay."""
    if not candidates:
        raise ValueError("need at least one candidate server")
    eligible = [
        c
        for c in candidates
        if breakers is None or not breakers.for_server(c).blocked(now)
    ]
    if not eligible:
        eligible = list(candidates)
    pos = {c: k for k, c in enumerate(candidates)}

    def key(c):
        return (d.board.inflight_of(c), d.board.score(c), pos[c])

    ranked = sorted(eligible, key=key)
    if len(ranked) <= 1:
        return ranked
    if deadline is not None:
        slack = deadline - now
        if slack < d.config.deadline_slack_factor * fresh_hedge_delay(d.board):
            d.stats["deadline_overrides"] += 1
            return ranked
    primary = candidates[0]
    if primary not in eligible:
        return ranked
    alts = [c for c in eligible if c != primary]
    alt = alts[0] if len(alts) == 1 else d.rng.choice(alts)
    alt_load = d.board.inflight_of(alt)
    primary_load = d.board.inflight_of(primary)
    lead = primary
    if alt_load < primary_load or (
        alt_load == primary_load
        and d.board.score(alt) * d.config.reroute_ratio < d.board.score(primary)
    ):
        lead = alt
        d.stats["p2c_picks"] += 1
    return [lead] + [c for c in ranked if c != lead]


#: Per server: requests in flight and the latencies observed.  A few
#: distinct latencies make equal EWMAs, so position ties get exercised.
servers = st.fixed_dictionaries({
    s: st.tuples(
        st.integers(min_value=0, max_value=3),
        st.lists(st.sampled_from([0.1, 0.2, 0.4, 1.0, 3.0]), max_size=4),
    )
    for s in SERVERS
})
queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(list(SERVERS)), min_size=3, max_size=5, unique=True),
        st.one_of(st.none(), st.sampled_from([0.2, 0.8, 1.5, 4.0, 20.0])),
    ),
    min_size=1, max_size=4,
)


def build(board_spec, blocked, seed):
    board = LatencyBoard(CONFIG)
    for server, (inflight, latencies) in board_spec.items():
        for _ in range(inflight):
            board.note_submit(server)
        for latency in latencies:
            board.observe(server, latency)
    breakers = BreakerBoard(threshold=1, cooldown=10.0)
    for server in blocked:
        breakers.for_server(server).on_failure(0.0)
    return StragglerDispatcher(board, seed=seed), breakers


@settings(max_examples=400, deadline=None)
@given(
    board_spec=servers,
    blocked=st.lists(st.sampled_from(list(SERVERS)), max_size=4, unique=True),
    with_breakers=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
    calls=queries,
)
def test_order_matches_the_reference(board_spec, blocked, with_breakers, seed, calls):
    new, new_breakers = build(board_spec, blocked, seed)
    old, old_breakers = build(board_spec, blocked, seed)
    for candidates, slack in calls:
        deadline = None if slack is None else NOW + slack
        got = new.order(candidates, NOW, new_breakers if with_breakers else None,
                        deadline)
        want = reference_order(old, candidates, NOW,
                               old_breakers if with_breakers else None, deadline)
        assert got == want
        assert new.rng.getstate() == old.rng.getstate()
        assert new.stats == old.stats
        assert list(new_breakers.breakers) == list(old_breakers.breakers)


@settings(max_examples=200, deadline=None)
@given(
    observations=st.lists(
        st.tuples(st.sampled_from(list(SERVERS)),
                  st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                  st.booleans()),
        max_size=30,
    ),
)
def test_hedge_delay_follows_every_observation(observations):
    """Reads may skip observations; none may see a stale delay."""
    board = LatencyBoard(CONFIG)
    assert board.hedge_delay() == fresh_hedge_delay(board)
    for server, latency, read in observations:
        board.observe(server, latency)
        if read:
            # Twice: a read answered from the kept value must agree too.
            assert board.hedge_delay() == fresh_hedge_delay(board)
            assert board.hedge_delay() == fresh_hedge_delay(board)
    assert board.hedge_delay() == fresh_hedge_delay(board)
