"""Link models: serial priority-FIFO and fluid fair sharing."""

import random

import pytest

from repro.sim import Environment
from repro.sim.events import Timer
from repro.cluster import FairShareLink, SerialLink

MB = 1024 * 1024


def xfer(env, link, size, start=0.0, priority=1, log=None, tag=None):
    """Start one transfer at ``start``; the process returns its landing
    time and, with ``log``, appends ``tag`` in landing order."""
    def proc(env):
        if start:
            yield env.timeout(start)
        yield link.transfer(size, priority=priority)
        if log is not None:
            log.append(tag)
        return env.now
    return env.process(proc(env))


class TestLinkValidation:
    def test_bad_bandwidth(self, env):
        with pytest.raises(ValueError):
            SerialLink(env, bandwidth=0)

    def test_bad_jitter(self, env):
        with pytest.raises(ValueError):
            SerialLink(env, bandwidth=1, jitter=1.0)

    def test_bad_latency(self, env):
        with pytest.raises(ValueError):
            SerialLink(env, bandwidth=1, latency=-1)

    def test_negative_size_rejected(self, env):
        link = SerialLink(env, bandwidth=100)
        with pytest.raises(ValueError):
            link.transfer(-1)
        fair = FairShareLink(env, bandwidth=100)
        with pytest.raises(ValueError):
            fair.transfer(-1)


class TestSerialLink:
    def test_single_transfer_time(self, env):
        link = SerialLink(env, bandwidth=118 * MB)
        p = xfer(env, link, 118 * MB)
        assert env.run(until=p) == pytest.approx(1.0)

    def test_transfers_serialise(self, env):
        link = SerialLink(env, bandwidth=100.0)
        p1 = xfer(env, link, 100)
        p2 = xfer(env, link, 100)
        p3 = xfer(env, link, 50)
        env.run()
        assert p1.value == pytest.approx(1)
        assert p2.value == pytest.approx(2)
        assert p3.value == pytest.approx(2.5)

    def test_latency_added_per_transfer(self, env):
        link = SerialLink(env, bandwidth=100.0, latency=0.5)
        p1 = xfer(env, link, 100)
        p2 = xfer(env, link, 100)
        env.run()
        assert p1.value == pytest.approx(1.5)
        assert p2.value == pytest.approx(3.0)

    def test_jitter_bounded_and_deterministic(self, env):
        link = SerialLink(env, bandwidth=100.0, jitter=0.1, seed=3)
        times = []
        for _ in range(20):
            times.append(xfer(env, link, 100))
        env.run()
        durations = [t.value for t in times]
        steps = [b - a for a, b in zip([0] + durations, durations)]
        assert all(1 / 1.1 - 1e-9 <= s <= 1 / 0.9 + 1e-9 for s in steps)
        # Determinism: same seed, same draws.
        env2 = Environment()
        link2 = SerialLink(env2, bandwidth=100.0, jitter=0.1, seed=3)
        times2 = [xfer(env2, link2, 100) for _ in range(20)]
        env2.run()
        assert [t.value for t in times2] == durations

    def test_bytes_accounted(self, env):
        link = SerialLink(env, bandwidth=100.0)
        xfer(env, link, 70)
        xfer(env, link, 30)
        env.run()
        assert link.bytes_transferred == 100

    def test_zero_size_transfer(self, env):
        link = SerialLink(env, bandwidth=100.0)
        p = xfer(env, link, 0)
        assert env.run(until=p) == 0


class TestSerialLinkSemantics:
    """What SerialLink promises about order, faults and accounting."""

    def test_control_overtakes_queued_bulk_not_in_flight(self, env):
        link = SerialLink(env, bandwidth=100.0)
        log = []
        a = xfer(env, link, 100, log=log, tag="a")
        b = xfer(env, link, 100, log=log, tag="b")
        c = xfer(env, link, 100, log=log, tag="c")
        # A 10 B control payload arrives while `a` is on the wire and
        # `b`, `c` wait: it goes next, but `a` is not preempted.
        ctl = xfer(env, link, 10, priority=0, start=0.5, log=log, tag="ctl")
        env.run()
        assert log == ["a", "ctl", "b", "c"]
        assert a.value == pytest.approx(1.0)
        assert ctl.value == pytest.approx(1.1)
        assert b.value == pytest.approx(2.1)
        assert c.value == pytest.approx(3.1)

    def test_equal_priority_is_fifo(self, env):
        link = SerialLink(env, bandwidth=100.0)
        log = []
        # Sizes chosen so any reordering would change the landing order.
        for tag, size, at in [("a", 300, 0.0), ("b", 10, 0.0),
                              ("c", 200, 0.5), ("d", 5, 1.0)]:
            xfer(env, link, size, start=at, log=log, tag=tag)
        env.run()
        assert log == ["a", "b", "c", "d"]

    def test_partition_drains_in_flight_and_heal_resumes(self, env):
        link = SerialLink(env, bandwidth=100.0)
        a = xfer(env, link, 100)
        b = xfer(env, link, 100)
        late = xfer(env, link, 100, start=2.0)
        Timer(env, 0.5, link.partition)
        Timer(env, 3.0, link.heal)
        env.run()
        assert a.value == pytest.approx(1.0)  # in flight: drains
        assert b.value == pytest.approx(4.0)  # queued: waits for heal
        assert late.value == pytest.approx(5.0)  # FIFO behind b
        assert link.bytes_transferred == 300

    def test_active_transfers_counts_in_flight_and_queued(self, env):
        link = SerialLink(env, bandwidth=100.0)
        seen = []
        for _ in range(3):
            xfer(env, link, 100)
        for at in (0.5, 1.5, 2.5, 3.5):
            Timer(env, at, lambda: seen.append(link.active_transfers))
        env.run()
        assert seen == [3, 2, 1, 0]

    def test_jitter_draws_follow_grant_order(self, env):
        link = SerialLink(env, bandwidth=100.0, jitter=0.1, seed=3)
        log = []
        a = xfer(env, link, 100, log=log, tag="a")
        b = xfer(env, link, 100, log=log, tag="b")
        ctl = xfer(env, link, 50, priority=0, start=0.1, log=log, tag="ctl")
        env.run()
        assert log == ["a", "ctl", "b"]
        # Each grant draws the next rate from the link's seeded stream,
        # so the draws are consumed in grant order: a, ctl, b.
        rng = random.Random(3)
        lo, hi = 100.0 * (1 - 0.1), 100.0 * (1 + 0.1)
        t_a = 100 / rng.uniform(lo, hi)
        t_ctl = t_a + 50 / rng.uniform(lo, hi)
        t_b = t_ctl + 100 / rng.uniform(lo, hi)
        assert a.value == pytest.approx(t_a, rel=1e-12)
        assert ctl.value == pytest.approx(t_ctl, rel=1e-12)
        assert b.value == pytest.approx(t_b, rel=1e-12)

    def test_degrade_does_not_replan_in_flight(self, env):
        link = SerialLink(env, bandwidth=100.0)
        first = xfer(env, link, 100)
        second = xfer(env, link, 100)
        Timer(env, 0.5, lambda: link.degrade(0.5))
        env.run()
        # The rate is fixed at grant: the in-flight transfer still
        # lands at 1.0; the next one is granted at the degraded rate.
        assert first.value == pytest.approx(1.0)
        assert second.value == pytest.approx(3.0)

    def test_fair_share_link_replans_on_degrade(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        p = xfer(env, link, 100)
        Timer(env, 0.5, lambda: link.degrade(0.5))
        env.run()
        # 50 B by t=0.5, the other 50 B at 50 B/s.
        assert p.value == pytest.approx(1.5)


class TestFairShareLink:
    def test_single_flow_full_rate(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        p = xfer(env, link, 200)
        assert env.run(until=p) == pytest.approx(2.0)

    def test_equal_flows_share_equally(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        p1 = xfer(env, link, 100)
        p2 = xfer(env, link, 100)
        env.run()
        assert p1.value == pytest.approx(2.0)
        assert p2.value == pytest.approx(2.0)

    def test_short_flow_departs_long_flow_speeds_up(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        long = xfer(env, link, 150)
        short = xfer(env, link, 50)
        env.run()
        # Both at 50 B/s until short finishes at t=1 (50B);
        # long then has 100 left at full rate: t = 1 + 1 = 2.
        assert short.value == pytest.approx(1.0)
        assert long.value == pytest.approx(2.0)

    def test_late_arrival_shares_remaining(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        early = xfer(env, link, 150)
        late = xfer(env, link, 50, start=1.0)
        env.run()
        assert early.value == pytest.approx(2.0)
        assert late.value == pytest.approx(2.0)

    def test_total_throughput_conserved(self, env):
        """Aggregate completion equals serial completion for same work."""
        link = FairShareLink(env, bandwidth=100.0)
        procs = [xfer(env, link, 100) for _ in range(5)]
        env.run()
        assert max(p.value for p in procs) == pytest.approx(5.0)

    def test_zero_size_completes_immediately(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        p = xfer(env, link, 0)
        assert env.run(until=p) == 0

    def test_residue_too_small_to_advance_the_clock_completes(self):
        # Found in an AS run on a fair link: 1.5e-9 bytes left at
        # 123.7 MB/s drain in 1.2e-17 s, so now + eta == now.  The
        # wake-up for that eta fires at the same instant and drains
        # nothing; before the fix it was re-armed forever.
        env = Environment(initial_time=0.20003310381355932)
        link = FairShareLink(env, bandwidth=123731968.0)
        done = link.transfer(1.5133991837501526e-09)
        for _ in range(5):
            if done.processed:
                break
            env.step()
        assert done.processed
        assert env.now == 0.20003310381355932
        assert link.active_transfers == 0

    def test_latency_delays_flow_start(self, env):
        link = FairShareLink(env, bandwidth=100.0, latency=0.25)
        p = xfer(env, link, 100)
        assert env.run(until=p) == pytest.approx(1.25)

    def test_active_transfers_counter(self, env):
        link = FairShareLink(env, bandwidth=100.0)
        seen = []

        def watcher(env, link):
            yield env.timeout(0.5)
            seen.append(link.active_transfers)

        xfer(env, link, 100)
        xfer(env, link, 100)
        env.process(watcher(env, link))
        env.run()
        assert seen == [2]
