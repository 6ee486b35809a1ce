"""Lazy-deletion compaction of dead queue entries.

Cancelled :class:`Timer`\\ s and abandoned events used to sit in the
pending queue until their timestamps — a long soak with per-request
deadline timers carried thousands of corpses.  These tests pin the
sweep behavior: the pending set stays bounded over a soak-length
cancel workload, swept events behave exactly like processed no-ops,
and live events are never touched.
"""

from repro.sim import Environment, Event, Timer
from repro.sim.scheduler import COMPACT_MIN_DEAD


class TestTimerCancelSweep:
    def test_cancelled_timers_are_swept(self, env):
        fired = []
        timers = [
            Timer(env, 1000.0 + i, lambda i=i: fired.append(i))
            for i in range(3 * COMPACT_MIN_DEAD)
        ]
        for t in timers:
            t.cancel()
        # The sweep triggered while cancelling: the corpses are gone
        # long before their 1000s timestamps.
        assert len(env.scheduler) < COMPACT_MIN_DEAD
        assert env.scheduler.compactions >= 1
        env.run()
        assert fired == []
        assert all(t.processed for t in timers)

    def test_soak_length_queue_stays_bounded(self, env):
        """Regression: create/cancel deadline timers for 10k requests.

        Before lazy deletion the queue grew to ~10k entries (every
        cancelled timer queued until its far-future deadline); with the
        sweep the high-water mark stays within a small constant of the
        live population.
        """

        def request_lifecycle():
            for _ in range(10_000):
                deadline = Timer(env, 5_000.0, lambda: None)
                yield env.timeout(0.001)  # request completes quickly
                deadline.cancel()

        env.process(request_lifecycle())
        env.run()
        # Live population is ~2 events at any instant; the dead backlog
        # may grow to the sweep threshold but no further.
        assert env.scheduler.max_depth <= 4 * COMPACT_MIN_DEAD
        assert env.scheduler.compactions > 0
        assert len(env.scheduler) == 0

    def test_cancel_after_fire_is_noop(self, env):
        fired = []
        t = Timer(env, 1.0, lambda: fired.append("x"))
        env.run()
        assert fired == ["x"]
        t.cancel()  # must not mark a processed event dead
        assert env.scheduler.compactions == 0


class TestAbandonSweep:
    def test_abandoned_events_are_swept(self, env):
        corpses = [env.timeout(900.0) for _ in range(3 * COMPACT_MIN_DEAD)]
        live = env.timeout(901.0, value="live")
        for ev in corpses:
            ev.abandon()
        assert len(env.scheduler) < COMPACT_MIN_DEAD
        waited = []

        def waiter():
            waited.append((yield live))

        env.process(waiter())
        env.run()
        assert waited == ["live"]
        assert env.now == 901.0

    def test_abandon_pending_event_is_noop(self, env):
        ev = Event(env)  # never triggered, never queued
        ev.abandon()
        assert not ev.processed
        for _ in range(3 * COMPACT_MIN_DEAD):
            env.timeout(100.0).abandon()
        # The pending (unqueued) event must have survived untouched.
        assert not ev.processed

    def test_abandon_is_idempotent(self, env):
        ev = env.timeout(50.0)
        ev.abandon()
        ev.abandon()
        env.run()
        assert ev.processed


class TestSweepCorrectness:
    def test_live_events_survive_interleaved_sweeps(self, env, monkeypatch):
        """Corpses interleaved in time with live timeouts, swept mid-run.

        The sweep filters the heap list, which breaks the heap shape
        unless it is restored; live events must still pop in order.
        """

        def model(env):
            seen = []
            corpses = [
                Timer(env, 1.0 + (k % 13) * 0.125, lambda: None)
                for k in range(3 * COMPACT_MIN_DEAD)
            ]

            def sleeper(i):
                yield env.timeout(1.0 + (i % 7) * 0.25)
                seen.append((env.now, i))

            def canceller():
                yield env.timeout(0.5)
                for timer in corpses:
                    timer.cancel()

            for i in range(50):
                env.process(sleeper(i))
            env.process(canceller())
            env.run()
            return seen, env.scheduler.compactions

        seen, compactions = model(env)
        assert len(seen) == 50
        assert compactions > 0
        # The reference: the same model with the sweep out of reach.
        monkeypatch.setattr("repro.sim.scheduler.COMPACT_MIN_DEAD", 10**9)
        assert model(Environment()) == (seen, 0)
