"""``join_inline`` against the spawned-and-joined child it stands for.

``value = yield from join_inline(env, gen)`` must push the queue
entries of ``proc = env.process(gen); yield AllOf(env, [proc])`` at the
same times and priorities and in the same order: one URGENT entry
before the child's first step, two NORMAL entries after its last.
Ties at one timestamp pop in push order, so any entry moved or dropped
reorders the steps of whatever else runs at that instant.  Each
example runs one model twice, once per way of running the children,
with competitors acting at the children's timestamps at both
priorities, and compares the two step logs and push sequences.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import AllOf, Environment, join_inline
from repro.sim.events import PRIORITY_URGENT


class Boom(Exception):
    """What a raising child raises."""


#: A caller and its child: when the caller starts the child (None: as
#: soon as the caller itself starts, otherwise at that gate), the
#: delays the child yields (0 is a zero-delay yield), and whether the
#: child raises after its last step.
children = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    st.lists(st.sampled_from([0, 0, 1, 2]), max_size=5),
    st.booleans(),
)
#: The gates a competitor wakes at.
competitors = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


def run(inline, callers, rivals, rivals_first):
    """The step log and ``(when, priority)`` push sequence of one model.

    Callers and competitors wake on shared gates (one timeout per
    instant), so a competitor woken first by a gate queues its URGENT
    entries ahead of a caller woken by the same gate.
    """
    env = Environment()
    pushes = []
    push = env._push

    def recording(when, prio, event):
        pushes.append((when, prio))
        push(when, prio, event)

    env._push = recording
    gates = [env.timeout(when) for when in range(7)]
    log = []

    def child(k, delays, raises):
        log.append((env.now, "child", k, "start"))
        for step, delay in enumerate(delays):
            yield env.timeout(delay)
            log.append((env.now, "child", k, step))
        if raises:
            raise Boom(k)
        return k

    def caller(k, start, delays, raises):
        if start is not None:
            yield gates[start]
        log.append((env.now, "caller", k, "spawn"))
        gen = child(k, delays, raises)
        try:
            if inline:
                value = yield from join_inline(env, gen)
            else:
                proc = env.process(gen)
                yield AllOf(env, [proc])
                value = proc.value
        except Boom:
            value = "raised"
        log.append((env.now, "caller", k, value))

    def blip(k):
        log.append((env.now, "blip", k, "start"))
        yield env.timeout(0)
        log.append((env.now, "blip", k, "end"))

    def rival(k, wakes):
        log.append((env.now, "rival", k))
        for when in sorted(wakes):
            yield gates[when]
            log.append((env.now, "rival", k))
            # An URGENT entry (a process start) and a NORMAL one
            # (the blip's zero-delay yield), plus a bare URGENT event.
            env.process(blip(k))
            urgent = env.event()
            urgent.callbacks.append(lambda _e, k=k: log.append((env.now, "urgent", k)))
            env.schedule(urgent, priority=PRIORITY_URGENT)

    competing = [rival(k, wakes) for k, wakes in enumerate(rivals)]
    calling = [caller(k, *c) for k, c in enumerate(callers)]
    for gen in (competing + calling if rivals_first else calling + competing):
        env.process(gen)
    env.run()
    return log, pushes


@settings(max_examples=300, deadline=None)
@given(callers=st.lists(children, min_size=1, max_size=3),
       rivals=st.lists(competitors, max_size=3),
       rivals_first=st.booleans())
def test_inline_join_matches_spawned_child(callers, rivals, rivals_first):
    inline_log, inline_pushes = run(True, callers, rivals, rivals_first)
    spawned_log, spawned_pushes = run(False, callers, rivals, rivals_first)
    assert inline_log == spawned_log
    assert inline_pushes == spawned_pushes


def test_returns_the_value_and_reraises_the_exception():
    env = Environment()

    def child(fail):
        yield env.timeout(1)
        if fail:
            raise Boom("late")
        return "value"

    def caller():
        value = yield from join_inline(env, child(False))
        with pytest.raises(Boom, match="late"):
            yield from join_inline(env, child(True))
        return value

    assert env.run(until=env.process(caller())) == "value"
    assert env.now == 2


def test_the_child_runs_in_its_caller():
    env = Environment()

    def child():
        yield env.timeout(1)
        return env.active_process

    def caller():
        runner = yield from join_inline(env, child())
        return runner

    proc = env.process(caller())
    assert env.run(until=proc) is proc
