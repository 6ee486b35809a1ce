"""Resource and PriorityResource semantics."""

import pytest

from repro.obs import Tracer
from repro.sim import Environment, PriorityResource, Resource, SimulationError


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)

        def proc(env, res):
            req = res.request()
            yield req
            return env.now

        assert env.run(until=env.process(proc(env, res))) == 0

    def test_queueing_over_capacity(self, env):
        res = Resource(env, capacity=1)
        order = []

        def proc(env, res, name, hold):
            with res.request() as req:
                yield req
                order.append((name, env.now))
                yield env.timeout(hold)

        env.process(proc(env, res, "a", 2))
        env.process(proc(env, res, "b", 3))
        env.process(proc(env, res, "c", 1))
        env.run()
        assert order == [("a", 0), ("b", 2), ("c", 5)]

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def snooper(env, res, out):
            yield env.timeout(1)
            out["count"] = res.count
            out["queued"] = res.queue_length

        out = {}
        env.process(holder(env, res))
        env.process(holder(env, res))
        env.process(snooper(env, res, out))
        env.run()
        assert out == {"count": 1, "queued": 1}

    def test_release_unowned_request_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # second release: not a user any more
            yield env.timeout(0)

        with pytest.raises(SimulationError):
            env.run(until=env.process(proc(env, res)))

    def test_cancel_pending_request_dequeues(self, env):
        res = Resource(env, capacity=1)
        got = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def impatient(env, res):
            req = res.request()
            yield env.timeout(1)
            req.cancel()  # give up before grant

        def patient(env, res):
            req = res.request()
            yield req
            got.append(env.now)

        env.process(holder(env, res))
        env.process(impatient(env, res))
        env.process(patient(env, res))
        env.run()
        assert got == [5]  # impatient's slot went to patient

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)
        times = []

        def proc(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)
            # released here
            times.append(env.now)

        env.process(proc(env, res))
        env.process(proc(env, res))
        env.run()
        assert times == [1, 2]

    def test_suspend_queues_new_requests(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def claimant(env, res, name):
            with res.request() as req:
                yield req
                granted.append((name, env.now))

        def operator(env, res):
            res.suspend()
            assert res.suspended
            env.process(claimant(env, res, "a"))
            yield env.timeout(5)
            res.resume_service()
            assert not res.suspended

        env.process(operator(env, res))
        env.run()
        # Not granted at t=0 despite free capacity; served on resume.
        assert granted == [("a", 5)]

    def test_suspend_does_not_evict_holder(self, env):
        res = Resource(env, capacity=1)
        log = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(4)
                log.append(("holder-done", env.now))

        def operator(env, res):
            yield env.timeout(1)
            res.suspend()
            res.suspend()  # idempotent
            yield env.timeout(1)
            res.resume_service()
            res.resume_service()  # idempotent

        env.process(holder(env, res))
        env.process(operator(env, res))
        env.run()
        assert log == [("holder-done", 4)]

    def test_release_while_suspended_defers_grant(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(2)

        def waiter(env, res):
            with res.request() as req:
                yield req
                granted.append(env.now)

        def operator(env, res):
            yield env.timeout(1)
            res.suspend()  # before the holder releases at t=2
            yield env.timeout(5)
            res.resume_service()

        env.process(holder(env, res))
        env.process(waiter(env, res))
        env.process(operator(env, res))
        env.run()
        # The slot freed at t=2 but the grant waited for resume at t=6.
        assert granted == [6]


class TestPriorityResource:
    def test_priority_order(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def proc(env, res, name, prio, arrive):
            yield env.timeout(arrive)
            req = res.request(priority=prio)
            yield req
            order.append(name)
            yield env.timeout(10)
            res.release(req)

        env.process(proc(env, res, "holder", 0, 0))
        env.process(proc(env, res, "low", 5, 1))
        env.process(proc(env, res, "high", 0, 2))
        env.process(proc(env, res, "mid", 2, 3))
        env.run()
        assert order == ["holder", "high", "mid", "low"]

    def test_fifo_within_priority(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def proc(env, res, name, arrive):
            yield env.timeout(arrive)
            req = res.request(priority=1)
            yield req
            order.append(name)
            yield env.timeout(10)
            res.release(req)

        env.process(proc(env, res, "first", 0))
        env.process(proc(env, res, "second", 1))
        env.process(proc(env, res, "third", 2))
        env.run()
        assert order == ["first", "second", "third"]

    def test_cancel_from_priority_queue(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env, res):
            req = res.request(priority=0)
            yield req
            yield env.timeout(5)
            res.release(req)

        def quitter(env, res):
            req = res.request(priority=0)
            yield env.timeout(1)
            req.cancel()

        def last(env, res):
            yield env.timeout(2)
            req = res.request(priority=9)
            yield req
            order.append(env.now)

        env.process(holder(env, res))
        env.process(quitter(env, res))
        env.process(last(env, res))
        env.run()
        assert order == [5]


def _assert_consistent(res: PriorityResource) -> None:
    """The documented queue/heap/users invariant of PriorityResource."""
    heap_requests = [r for (_key, r) in res._heap]
    assert len(heap_requests) == len(res.queue)
    assert set(heap_requests) == set(res.queue)
    assert not set(res.queue) & set(res.users)


class TestPriorityResourceConsistency:
    """`.queue` and `._heap` must never diverge, whatever the interleaving."""

    def test_interleaved_request_cancel_release(self, env):
        res = PriorityResource(env, capacity=2)
        log = []

        def worker(env, res, name, prio, arrive, hold, bail=None):
            yield env.timeout(arrive)
            req = res.request(priority=prio)
            _assert_consistent(res)
            if bail is not None:
                yield env.timeout(bail)
                req.cancel()
                _assert_consistent(res)
                return
            yield req
            _assert_consistent(res)
            log.append(name)
            yield env.timeout(hold)
            res.release(req)
            _assert_consistent(res)

        env.process(worker(env, res, "a", 1, 0, 5))
        env.process(worker(env, res, "b", 1, 0, 5))
        env.process(worker(env, res, "q1", 0, 1, 2))
        env.process(worker(env, res, "q2", 2, 1, 2, bail=1))  # cancels queued
        env.process(worker(env, res, "q3", 1, 2, 1))
        env.run()
        _assert_consistent(res)
        assert not res.queue and not res._heap and not res.users
        assert log == ["a", "b", "q1", "q3"]

    def test_cancel_granted_while_suspended_with_waiters(self, env):
        """Cancelling a *granted* request during suspension must not
        grant a waiter early, and resume must serve the backlog in
        priority order with queue and heap still in lockstep."""
        res = PriorityResource(env, capacity=1)
        granted = []

        def holder(env, res):
            req = res.request(priority=0)
            yield req
            yield env.timeout(2)
            res.suspend()
            req.cancel()  # give up the slot while service is stopped
            _assert_consistent(res)
            assert res.users == []
            assert len(res.queue) == 2  # waiters still parked
            yield env.timeout(2)
            res.resume_service()
            _assert_consistent(res)

        def waiter(env, res, name, prio):
            yield env.timeout(1)
            req = res.request(priority=prio)
            yield req
            granted.append((name, env.now))
            res.release(req)

        env.process(holder(env, res))
        env.process(waiter(env, res, "low", 5))
        env.process(waiter(env, res, "high", 0))
        env.run()
        _assert_consistent(res)
        # Nobody was served before resume at t=4; high goes first.
        assert granted == [("high", 4), ("low", 4)]

    def test_double_cancel_is_idempotent(self, env):
        res = PriorityResource(env, capacity=1)

        def proc(env, res):
            req = res.request(priority=0)
            yield req
            req.cancel()
            _assert_consistent(res)
            req.cancel()  # second cancel: already released
            _assert_consistent(res)
            yield env.timeout(0)

        env.run(until=env.process(proc(env, res)))
        assert not res.users and not res.queue and not res._heap

    def test_cancel_queued_while_suspended(self, env):
        res = PriorityResource(env, capacity=1)

        def holder(env, res):
            req = res.request(priority=0)
            yield req
            yield env.timeout(5)
            res.release(req)

        def quitter(env, res):
            yield env.timeout(1)
            req = res.request(priority=1)
            res.suspend()
            req.cancel()
            _assert_consistent(res)
            assert not res.queue and not res._heap
            res.resume_service()

        env.process(holder(env, res))
        env.process(quitter(env, res))
        env.run()
        _assert_consistent(res)


class TestSlotWaitTracing:
    def test_named_resource_emits_slot_wait_spans(self, env):
        env.tracer = Tracer()
        res = PriorityResource(env, capacity=1, name="sn0.cpu")

        def worker(env, res, hold):
            with res.request(priority=1) as req:
                yield req
                yield env.timeout(hold)

        env.process(worker(env, res, 2))
        env.process(worker(env, res, 1))
        env.run()
        waits = env.tracer.by_kind("slot-wait")
        # Only the second worker queued: one begin/end pair.
        assert [(e.phase, e.time) for e in waits] == [("b", 0), ("e", 2)]
        assert waits[0].track == "res:sn0.cpu"
        assert waits[0].span_id == waits[1].span_id
        assert env.tracer.open_spans() == []

    def test_cancelled_wait_closes_with_flag(self, env):
        env.tracer = Tracer()
        res = Resource(env, capacity=1, name="pipe")

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def quitter(env, res):
            req = res.request()
            yield env.timeout(1)
            req.cancel()

        env.process(holder(env, res))
        env.process(quitter(env, res))
        env.run()
        waits = env.tracer.by_kind("slot-wait")
        assert [e.phase for e in waits] == ["b", "e"]
        assert dict(waits[1].attrs) == {"cancelled": True}

    def test_anonymous_resource_stays_silent(self, env):
        env.tracer = Tracer()
        res = Resource(env, capacity=1)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        env.process(worker(env, res))
        env.process(worker(env, res))
        env.run()
        assert env.tracer.events == []
