"""Event lifecycle, composition and failure semantics."""

import pytest

from repro.sim import Environment, Event, SimulationError, Timeout
from repro.sim.events import AllOf, AnyOf


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_succeed_at_resumes_a_waiter_at_that_time(self, env):
        ev = env.event()

        def waiter():
            value = yield ev
            return env.now, value

        proc = env.process(waiter())
        env.run(until=0.5)
        ev.succeed_at(0.7999999999999999, "tick")
        assert env.run(until=proc) == (0.7999999999999999, "tick")

    def test_succeed_at_rejects_the_past_and_a_second_trigger(self, env):
        env.run(until=1.0)
        with pytest.raises(ValueError):
            env.event().succeed_at(0.5)
        ev = env.event().succeed_at(1.0)
        with pytest.raises(SimulationError):
            ev.succeed_at(2.0)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_then_succeed_raises(self, env):
        ev = env.event().fail(RuntimeError("boom"))
        ev.defuse()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_processed_after_run(self, env):
        ev = env.event().succeed("x")
        env.run()
        assert ev.processed

    def test_callbacks_fire_with_event(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("payload")
        env.run()
        assert seen == ["payload"]


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_advances_clock(self, env):
        t = env.timeout(5.5)
        env.run()
        assert env.now == 5.5
        assert t.processed

    def test_timeout_value(self, env):
        def proc(env):
            v = yield env.timeout(1, value="hello")
            return v

        assert env.run(until=env.process(proc(env))) == "hello"

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0)
        env.run()
        assert env.now == 0.0
        assert t.processed


class TestConditions:
    def test_any_of_triggers_on_first(self, env):
        def proc(env):
            yield env.timeout(3) | env.timeout(7)
            return env.now

        assert env.run(until=env.process(proc(env))) == 3

    def test_all_of_waits_for_last(self, env):
        def proc(env):
            yield env.timeout(3) & env.timeout(7)
            return env.now

        assert env.run(until=env.process(proc(env))) == 7

    def test_condition_value_maps_events(self, env):
        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            got = yield t1 & t2
            return sorted(got.values())

        assert env.run(until=env.process(proc(env))) == ["a", "b"]

    def test_empty_all_of_succeeds_immediately(self, env):
        cond = AllOf(env, [])
        env.run()
        assert cond.processed and cond.ok

    def test_all_of_with_already_processed_events(self, env):
        t = env.timeout(1)
        env.run()
        cond = AllOf(env, [t])
        env.run()
        assert cond.processed and cond.ok

    def test_condition_fails_if_member_fails(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env, p):
            yield p & env.timeout(10)

        p = env.process(failer(env))
        w = env.process(waiter(env, p))
        with pytest.raises(ValueError, match="inner"):
            env.run(until=w)

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        t_here = env.timeout(1)
        t_there = other.timeout(1)
        with pytest.raises(SimulationError):
            AllOf(env, [t_here, t_there])

    def test_any_of_ignores_later_events(self, env):
        log = []

        def proc(env):
            first = yield AnyOf(env, [env.timeout(1, "fast"), env.timeout(5, "slow")])
            log.append(list(first.values()))
            yield env.timeout(10)  # let the slow one fire too

        env.run(until=env.process(proc(env)))
        assert log == [["fast"]]


class TestFailurePropagation:
    def test_unhandled_failure_crashes_run(self, env):
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_crash(self, env):
        ev = env.event()
        ev.fail(RuntimeError("handled"))
        ev.defuse()
        env.run()  # no raise

    def test_waiting_process_receives_exception(self, env):
        def proc(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        ev = env.event()
        p = env.process(proc(env, ev))
        ev.fail(RuntimeError("delivered"))
        assert env.run(until=p) == "delivered"
