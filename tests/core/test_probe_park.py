"""The Contention Estimator's probe parks on an idle node.

A periodic probe that finds nothing queued or running and leaves the
ACTIVE default parks: it pushes nothing until the next arrival.  That
arrival re-arms the probe at the next time of the grid the unparked
loop would have followed, ``t_{k+1} = t_k + period`` accumulated in
floats, and evaluates the node at once (the catch-up) before the
new-arrival rule applies.
"""

import pytest

from repro.core.estimator import DOSASEstimator
from repro.core.policy import Decision

from tests.core.test_runtime_asc import MB, build_stack, make_asc

#: Not a power-of-two fraction, so accumulated grid times drift from
#: ``k * PERIOD``.
PERIOD = 0.1


def parked_stack(env, **estimator_kwargs):
    topo, mds, server, runtime = build_stack(
        env, DOSASEstimator, file_bytes=8 * MB, probe_period=PERIOD,
    )
    for name, value in estimator_kwargs.items():
        setattr(runtime.estimator, name, value)
    return topo, mds, server, runtime


def tick_times(env, runtime):
    """Record the time of every refresh the periodic probe makes."""
    times = []
    refresh = runtime.refresh_policy

    def logged():
        proc = env.active_process
        if proc is not None and proc.name == "_periodic":
            times.append(env.now)
        return refresh()

    runtime.refresh_policy = logged
    return times


def unparked_grid(horizon):
    grid, t = [], 0.0
    while t < horizon:
        t += PERIOD
        grid.append(t)
    return grid


def test_idle_node_pushes_nothing_after_its_first_probe(env):
    _topo, _mds, _server, runtime = parked_stack(env)
    env.run(until=1.5 * PERIOD)  # the first probe parks
    pushes = env.scheduler._n
    env.run(until=100 * PERIOD)
    assert env.scheduler._n == pushes
    assert runtime.estimator.objective_values == [0.0]


def test_resumed_probes_keep_the_unparked_grid(env):
    topo, mds, server, runtime = parked_stack(env)
    asc, _node = make_asc(env, topo, server, mds)
    times = tick_times(env, runtime)
    arrivals = [0.37, 1.2345, 2.71828, 4.4, 6.0000001]

    def app():
        for at in arrivals:
            yield env.timeout(at - env.now)
            yield from asc.read_ex(mds.open("/f0"), "gaussian2d")

    env.run(until=env.process(app()))
    env.run(until=env.now + 3 * PERIOD)
    grid = unparked_grid(env.now)
    assert times and all(t in grid for t in times)
    # Each wake-up re-arms at the first grid time at or after it.
    for at in arrivals:
        assert min(t for t in times if t >= at) == min(g for g in grid if g >= at)
    # Between wake-ups the probe parks: far fewer probes than periods.
    assert len(times) < len(grid) // 2


def test_arrival_after_a_stale_parked_gap_is_demoted_at_once(env):
    topo, mds, server, runtime = parked_stack(env, stale_probe_timeout=0.2)
    asc, _node = make_asc(env, topo, server, mds)

    def app():
        yield env.timeout(0.15)  # parked at 0.1
        runtime.estimator.prober.suppress_until(10.0)
        yield env.timeout(0.85)  # the parking probe is now 0.9 s old
        outcome = yield from asc.read_ex(mds.open("/f0"), "gaussian2d")
        return outcome

    outcome = env.run(until=env.process(app()))
    assert runtime.stats["demoted_new"] == 1
    assert runtime.stats["demoted_queued"] == 0
    assert outcome.demotions == 1
    # The stale NORMAL default keeps the probe going, so it can lift.
    assert runtime.policy.default is Decision.NORMAL
    n = len(runtime.estimator.objective_values)
    env.run(until=env.now + 5 * PERIOD)
    assert len(runtime.estimator.objective_values) == pytest.approx(n + 5, abs=1)
