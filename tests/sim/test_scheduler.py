"""Heap-vs-calendar scheduler equivalence.

The acceptance gate of the calendar scheduler: for any push
sequence — mixed delays, priorities, cancellations, mid-dispatch
same-timestamp pushes — the calendar scheduler must pop events in
exactly the heap's ``(when, priority, eid)`` order.  These tests pin
that at three levels: raw scheduler push/pop, full simulations with
randomized process structure (hypothesis), and the engine-facing
stats/selection surface.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CalendarScheduler,
    Environment,
    Event,
    HeapScheduler,
    SimulationError,
    Timer,
    make_event_scheduler,
)
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.scheduler import COMPACT_MIN_DEAD

# A deliberately collision-heavy timestamp grid: ties at equal (when,
# priority) are where ordering bugs live.
WHENS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5, 64.0]


def drain_order(sched, env, ops):
    """Apply ``ops`` to a fresh scheduler, then drain; return labels.

    Each op is ``(when_idx, prio, n_child_pushes)``: pushing a labeled
    event, where the event additionally pushes ``n_child_pushes``
    same-timestamp children *while its slot is draining* (exercising
    the mid-slot append fast path against batch execution).
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
        env_h = Environment(scheduler="heap")
        env_c = Environment(scheduler="calendar")
        heap_order = drain_order(env_h.scheduler, env_h, ops)
        cal_order = drain_order(env_c.scheduler, env_c, ops)
        assert heap_order == cal_order

    def test_urgent_overtakes_normal_mid_slot(self):
        """An URGENT push while a slot drains runs before queued NORMALs."""
        for name in ("heap", "calendar"):
            env = Environment(scheduler=name)
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
            # Mid-slot urgent arrival, same timestamp.
            sched.push(1.0, PRIORITY_URGENT, urgent)
            while True:
                ev = sched.pop()
                if ev is None:
                    break
                seen.append(ev)
            assert seen[0] is urgent, name
            assert seen[1:] == normals, name

    def test_bucket_edge_timestamp_not_skipped(self):
        """Regression: close timestamps pop in order, clock monotonic.

        The bucketed calendar this scheduler replaced once returned
        6.5625 before 6.125 (the earlier timestamp sat on its bucket's
        upper edge), so simulated time ran backwards.  The same pushes
        must pop in timestamp order.
        """
        env = Environment(scheduler="calendar")
        sched = env.scheduler
        opener = Event(env)
        sched.push(6.0, PRIORITY_NORMAL, opener)
        assert sched.pop() is opener  # opens the slot: cur = 6.0
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

    def test_calendar_rejects_unknown_priority(self):
        env = Environment(scheduler="calendar")
        with pytest.raises(SimulationError):
            env.scheduler.push(1.0, 2, Event(env))
        with pytest.raises(SimulationError):
            # Same check on the open-slot fast path.
            env.scheduler.push(0.0, 2, Event(env))


# -- full-simulation equivalence ------------------------------------------


def random_model(env, layout):
    """Deterministically build a process soup from ``layout``.

    ``layout`` is a list of per-process specs: a list of (delay_idx,
    spawn, cancel_timer) steps.  The trace of (time, label) tuples is
    the observable the two schedulers must agree on.
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
    env.run()
    return trace


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
        trace_h = random_model(Environment(scheduler="heap"), layout)
        trace_c = random_model(Environment(scheduler="calendar"), layout)
        assert trace_h == trace_c
        assert all(label != "BOOM" for _, label in trace_h)

    def test_many_distinct_timestamps_match_heap(self):
        """600 pending distinct timestamps pop in the heap's order."""

        def model(env):
            seen = []

            def sleeper(i):
                yield env.timeout(0.01 + i * 1.37)
                seen.append((env.now, i))

            for i in range(600):
                env.process(sleeper(i))
            env.run()
            return seen

        env_c = Environment(scheduler="calendar")
        assert model(Environment(scheduler="heap")) == model(env_c)
        assert env_c.scheduler_stats()["max_depth"] >= 600

    def test_sweep_that_empties_a_timestamp_drops_it(self):
        """Regression: a compaction sweep empties whole timestamps.

        Every event at 1.0 and at 2.5 is a cancelled ``Timer``, so the
        sweep leaves those timestamps without events.  They must leave
        the timestamp heap too: a stale 1.0 would be ``peek()``'s
        answer, and a stale 2.5 would be opened after 2.0.
        """

        def swept(name):
            env = Environment(scheduler=name)
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
            return observed

        calendar = swept("calendar")
        assert calendar == swept("heap")
        assert calendar == [2.0, 2, (2.0, "live@2.0"), (3.0, "live@3.0")]


# -- selection / stats surface --------------------------------------------


class TestSchedulerSurface:
    def test_factory_and_default(self):
        assert isinstance(make_event_scheduler("heap", None), HeapScheduler)
        assert isinstance(
            make_event_scheduler("calendar", None), CalendarScheduler
        )
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_event_scheduler("ladder", None)
        assert Environment().scheduler.name == "calendar"
        assert Environment(scheduler="heap").scheduler.name == "heap"

    def test_stats_keys(self):
        def napper(env):
            yield env.timeout(1.0)

        for name in ("heap", "calendar"):
            env = Environment(scheduler=name)
            env.process(napper(env))
            stats = env.scheduler_stats()
            assert stats["scheduler"] == name
            assert stats["pending"] == len(env.scheduler)
            assert {"max_depth", "compactions"} <= stats.keys()

    def test_len_tracks_slot_and_calendar(self):
        env = Environment(scheduler="calendar")
        sched = env.scheduler
        for i in range(5):
            sched.push(1.0, PRIORITY_NORMAL, Event(env))
        sched.push(2.0, PRIORITY_NORMAL, Event(env))
        assert len(sched) == 6
        assert sched.pop() is not None  # opens the 1.0 slot
        assert len(sched) == 5
        for _ in range(4):
            sched.pop()
        assert len(sched) == 1
        assert sched.pop() is not None
        assert sched.pop() is None
        assert len(sched) == 0
