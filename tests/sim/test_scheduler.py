"""The event queue pops in ``(when, priority, eid)`` order.

Raw push/pop sequences — mixed timestamps, priorities and mid-dispatch
same-timestamp pushes — are checked against a reference queue that
takes ``min()`` over a plain list, full simulations with randomized
process structure (hypothesis) must give the same trace under
``run()`` and under single ``step()``\\ s, and the compaction sweep and
the stats/factory surface are pinned with literal expectations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Event,
    HeapScheduler,
    Timer,
    make_event_scheduler,
)
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.scheduler import COMPACT_MIN_DEAD

# A deliberately collision-heavy timestamp grid: ties at equal (when,
# priority) are where ordering bugs live.
WHENS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5, 64.0]


class MinQueue:
    """Reference queue: ``min()`` over ``(when, prio, push index)``."""

    def __init__(self, env):
        self.env = env
        self.entries = []

    def push(self, when, prio, event):
        self.entries.append((when, prio, len(self.entries), event))

    def pop(self):
        live = [e for e in self.entries if e is not None]
        if not live:
            return None
        entry = min(live, key=lambda e: e[:3])
        self.entries[entry[2]] = None
        self.env._now = entry[0]
        return entry[3]


def drain_order(sched, env, ops):
    """Apply ``ops`` to a fresh queue, then drain; return labels.

    Each op is ``(when_idx, prio, n_child_pushes)``: pushing a labeled
    event, where the event additionally pushes ``n_child_pushes``
    same-timestamp children *while it is being dispatched*.
    """
    order = []
    counter = [0]

    def mk(label):
        ev = Event(env)
        ev._ok = True
        ev._value = None
        return ev, label

    pending = []
    for when_idx, prio, n_children in ops:
        ev, label = mk(f"e{counter[0]}")
        counter[0] += 1
        pending.append((ev, label, n_children))
        sched.push(WHENS[when_idx], prio, ev)
    by_event = {ev: (label, n_children) for ev, label, n_children in pending}

    while True:
        ev = sched.pop()
        if ev is None:
            break
        label, n_children = by_event.get(ev, (None, 0))
        order.append((env.now, label))
        # Mid-dispatch pushes at the current timestamp: children must
        # run after everything already queued at (now, their prio).
        for k in range(n_children):
            child = Event(env)
            child._ok = True
            child._value = None
            by_event[child] = (f"{label}.c{k}", 0)
            sched.push(env.now, PRIORITY_NORMAL, child)
    return order


op_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(WHENS) - 1),
    st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL]),
    st.integers(min_value=0, max_value=2),
)


class TestRawOrderEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(op_strategy, min_size=0, max_size=60))
    def test_identical_pop_order(self, ops):
        env = Environment()
        ref_env = Environment()
        assert drain_order(env.scheduler, env, ops) == \
            drain_order(MinQueue(ref_env), ref_env, ops)

    def test_urgent_overtakes_normal_mid_slot(self):
        """An URGENT push at ``now`` runs before queued NORMALs."""
        env = Environment()
        sched = env.scheduler
        first = Event(env)
        normals = [Event(env) for _ in range(3)]
        urgent = Event(env)
        sched.push(1.0, PRIORITY_NORMAL, first)
        for ev in normals:
            sched.push(1.0, PRIORITY_NORMAL, ev)
        seen = []
        ev = sched.pop()
        assert ev is first
        # Urgent arrival at the same timestamp, mid-dispatch.
        sched.push(1.0, PRIORITY_URGENT, urgent)
        while True:
            ev = sched.pop()
            if ev is None:
                break
            seen.append(ev)
        assert seen[0] is urgent
        assert seen[1:] == normals

    def test_bucket_edge_timestamp_not_skipped(self):
        """Regression: close timestamps pop in order, clock monotonic.

        A bucketed calendar queue once returned 6.5625 before 6.125
        (the earlier timestamp sat on its bucket's upper edge), so
        simulated time ran backwards.  The same pushes must pop in
        timestamp order.
        """
        env = Environment()
        sched = env.scheduler
        opener = Event(env)
        sched.push(6.0, PRIORITY_NORMAL, opener)
        assert sched.pop() is opener
        assert env.now == 6.0
        edge_case = Event(env)
        later = Event(env)
        sched.push(6.125, PRIORITY_NORMAL, edge_case)
        sched.push(6.5625, PRIORITY_NORMAL, later)
        assert sched.pop() is edge_case
        assert env.now == 6.125
        assert sched.pop() is later
        assert env.now == 6.5625
        assert sched.pop() is None
        assert env.now == 6.5625


# -- full simulations -------------------------------------------------------


def random_model(env, layout, drive=Environment.run):
    """Deterministically build a process soup from ``layout``; drive it.

    ``layout`` is a list of per-process specs: a list of (delay_idx,
    spawn, cancel_timer) steps.  Returns the trace of (time, label)
    tuples.
    """
    trace = []

    def worker(name, steps):
        for i, (delay_idx, spawn, cancel_timer) in enumerate(steps):
            yield env.timeout(WHENS[delay_idx])
            trace.append((env.now, f"{name}.{i}"))
            if spawn:
                env.process(worker(f"{name}.{i}s", [(0, False, False)]))
            if cancel_timer:
                t = Timer(env, 50.0, lambda: trace.append((env.now, "BOOM")))
                t.cancel()

    for p, steps in enumerate(layout):
        env.process(worker(f"p{p}", steps))
    drive(env)
    return trace


def step_through(env):
    while env.peek() < float("inf"):
        env.step()


step_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(WHENS) - 1),
    st.booleans(),
    st.booleans(),
)
layout_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=5), min_size=1, max_size=8
)


class TestSimulationEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(layout_strategy)
    def test_identical_trace(self, layout):
        trace = random_model(Environment(), layout)
        assert trace == random_model(Environment(), layout, step_through)
        assert all(label != "BOOM" for _, label in trace)

    def test_many_distinct_timestamps_pop_in_order(self):
        """600 pending distinct timestamps pop in timestamp order."""
        env = Environment()
        seen = []

        def sleeper(i):
            yield env.timeout(0.01 + i * 1.37)
            seen.append(i)

        for i in reversed(range(600)):
            env.process(sleeper(i))
        env.run()
        assert seen == list(range(600))
        assert env.scheduler_stats()["max_depth"] >= 600

    def test_sweep_that_empties_a_timestamp_drops_it(self):
        """Regression: a compaction sweep empties whole timestamps.

        Every event at 1.0 and at 2.5 is a cancelled ``Timer``, so the
        sweep leaves those timestamps without events: ``peek()`` must
        not answer 1.0, and nothing may pop at 2.5.
        """
        env = Environment()
        sched = env.scheduler
        labels = {}
        for when in (2.0, 3.0):
            live = Event(env)
            labels[live] = f"live@{when}"
            sched.push(when, PRIORITY_NORMAL, live)
        timers = [
            Timer(env, 1.0 if i % 2 else 2.5, lambda: None)
            for i in range(COMPACT_MIN_DEAD)
        ]
        for timer in timers:
            timer.cancel()
        assert sched.compactions == 1
        observed = [sched.peek(), len(sched)]
        while True:
            event = sched.pop()
            if event is None:
                break
            observed.append((env.now, labels.get(event)))
        assert observed == [2.0, 2, (2.0, "live@2.0"), (3.0, "live@3.0")]


# -- factory / stats surface ------------------------------------------------


class TestSchedulerSurface:
    def test_factory_and_default(self):
        assert isinstance(make_event_scheduler("heap", None), HeapScheduler)
        for name in ("calendar", "ladder"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                make_event_scheduler(name, None)
        assert isinstance(Environment().scheduler, HeapScheduler)
        with pytest.raises(TypeError):
            Environment(scheduler="heap")

    def test_stats_keys(self):
        def napper(env):
            yield env.timeout(1.0)

        env = Environment()
        env.process(napper(env))
        assert env.scheduler_stats() == {
            "pending": 1, "max_depth": 1, "compactions": 0,
        }
