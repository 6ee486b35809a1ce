"""Environment event-loop semantics: ordering, run(), determinism."""

import pytest

from repro.sim import Environment, SimulationError


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=10).now == 10.0

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_run_until_time_stops_clock_there(self, env):
        env.timeout(100)
        env.run(until=30)
        assert env.now == 30

    def test_run_until_past_raises(self, env):
        env.timeout(5)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_run_until_boundary_excludes_events_at_t(self, env):
        # simpy semantics: run(until=t) stops *before* processing
        # events scheduled at exactly t.
        fired = []

        def proc(env):
            yield env.timeout(30)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=30)
        assert env.now == 30
        assert fired == []
        env.run()  # the boundary event is still queued and fires now
        assert fired == [30]

    def test_run_until_none_with_drained_queue_keeps_clock_finite(self, env):
        env.timeout(7)
        env.run()
        assert env.now == 7
        env.run()  # idempotent on an empty queue
        assert env.now == 7

    def test_run_until_now_is_noop(self, env):
        env.timeout(3)
        env.run(until=0)
        assert env.now == 0


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "done"

        assert env.run(until=env.process(proc(env))) == "done"

    def test_reraises_event_failure(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("inner")

        with pytest.raises(KeyError):
            env.run(until=env.process(proc(env)))

    def test_already_processed_event_returns_immediately(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_deadlock_detected(self, env):
        def proc(env):
            yield env.event()  # never triggered

        p = env.process(proc(env))
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=p)

    def test_simulation_continues_past_event(self, env):
        log = []

        def short(env):
            yield env.timeout(1)
            log.append("short")

        def long(env):
            yield env.timeout(5)
            log.append("long")

        s = env.process(short(env))
        env.process(long(env))
        env.run(until=s)
        assert log == ["short"]
        env.run()
        assert log == ["short", "long"]


class TestOrdering:
    def test_fifo_at_same_timestamp(self, env):
        order = []

        def proc(env, name):
            yield env.timeout(1)
            order.append(name)

        for name in "abcd":
            env.process(proc(env, name))
        env.run()
        assert order == list("abcd")

    def test_events_process_in_time_order(self, env):
        order = []

        def proc(env, delay):
            yield env.timeout(delay)
            order.append(delay)

        for delay in (5, 1, 3, 2, 4):
            env.process(proc(env, delay))
        env.run()
        assert order == [1, 2, 3, 4, 5]

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1)

    def test_determinism_across_runs(self):
        def build_and_run():
            env = Environment()
            order = []

            def proc(env, name, delay):
                yield env.timeout(delay)
                order.append((env.now, name))

            for i in range(20):
                env.process(proc(env, f"p{i}", (i * 7) % 5))
            env.run()
            return order

        assert build_and_run() == build_and_run()


class TestStep:
    def test_step_processes_one_event(self, env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        env.step()
        assert t1.processed and not t2.processed
        assert env.now == 1

    def test_step_on_empty_queue_raises_simulation_error(self, env):
        with pytest.raises(SimulationError, match="no scheduled events"):
            env.step()
