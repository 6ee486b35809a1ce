"""Property-based tests of the DES engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30))
def test_timeouts_fire_in_sorted_order(delays):
    """Whatever the creation order, events process in time order."""
    env = Environment()
    fired = []

    def proc(env, d):
        yield env.timeout(d)
        fired.append(d)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert fired == sorted(fired)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.01, max_value=100, allow_nan=False),
                   min_size=1, max_size=40),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Invariant: users ≤ capacity at every observable instant."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    violations = []

    def proc(env, res, hold):
        with res.request() as req:
            yield req
            if res.count > res.capacity:
                violations.append(env.now)
            yield env.timeout(hold)

    for hold in holds:
        env.process(proc(env, res, hold))
    env.run()
    assert not violations
    assert res.count == 0
    assert res.queue_length == 0


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.01, max_value=10, allow_nan=False),
                   min_size=1, max_size=20),
)
def test_resource_work_conserving(capacity, holds):
    """Total makespan equals the optimal greedy schedule's bound.

    With identical release order, a FIFO resource finishes no later
    than ceil(total_work / capacity) ... but exactly: busy time on the
    bottleneck equals sum(holds)/capacity when capacity=1.
    """
    env = Environment()
    res = Resource(env, capacity=capacity)

    def proc(env, res, hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    for hold in holds:
        env.process(proc(env, res, hold))
    env.run()
    if capacity == 1:
        assert abs(env.now - sum(holds)) < 1e-6 * max(1, sum(holds))
    else:
        # No idling while work is queued: finish within [W/c, W].
        total = sum(holds)
        assert env.now <= total + 1e-9
        assert env.now >= total / capacity - 1e-9


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_items_fifo(items):
    """Every item comes out exactly once, in insertion order."""
    env = Environment()
    st_ = Store(env)

    def producer(env, st_):
        for item in items:
            yield st_.put(item)

    def consumer(env, st_):
        out = []
        for _ in items:
            item = yield st_.get()
            out.append(item)
        return out

    env.process(producer(env, st_))
    result = env.run(until=env.process(consumer(env, st_)))
    assert result == items
