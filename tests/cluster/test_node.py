"""CPU core pool and node models."""

import pytest

from repro.sim import Environment, Interrupt
from repro.cluster import NodeSpec
from repro.cluster.node import ComputeInterrupted, CpuCores

MB = 1024 * 1024


class TestCpuCores:
    def test_single_compute_duration(self, env):
        cpu = CpuCores(env, NodeSpec(cores=2))

        def proc(env, cpu):
            done = yield from cpu.compute(80 * MB, 80 * MB)
            return (env.now, done)

        t, done = env.run(until=env.process(proc(env, cpu)))
        assert t == pytest.approx(1.0)
        assert done == 80 * MB

    def test_core_speed_scales_rate(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1, core_speed=2.0))

        def proc(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB)
            return env.now

        assert env.run(until=env.process(proc(env, cpu))) == pytest.approx(0.5)

    def test_contention_serialises_beyond_cores(self, env):
        cpu = CpuCores(env, NodeSpec(cores=2))
        finishes = []

        def proc(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB)
            finishes.append(env.now)

        for _ in range(4):
            env.process(proc(env, cpu))
        env.run()
        assert finishes == pytest.approx([1, 1, 2, 2])

    def test_already_done_shortens_work(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))

        def proc(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB, already_done=40 * MB)
            return env.now

        assert env.run(until=env.process(proc(env, cpu))) == pytest.approx(0.5)

    def test_already_complete_returns_instantly(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))

        def proc(env, cpu):
            done = yield from cpu.compute(10, 100, already_done=10)
            return (env.now, done)

        assert env.run(until=env.process(proc(env, cpu))) == (0, 10)

    def test_interrupt_reports_partial_progress(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))
        out = {}

        def victim(env, cpu):
            try:
                yield from cpu.compute(80 * MB, 80 * MB)
            except ComputeInterrupted as ci:
                out["done"] = ci.bytes_done
                out["cause"] = ci.cause

        def attacker(env, p):
            yield env.timeout(0.25)
            p.interrupt("migrate")

        p = env.process(victim(env, cpu))
        env.process(attacker(env, p))
        env.run()
        assert out["done"] == pytest.approx(20 * MB)
        assert out["cause"] == "migrate"

    def test_interrupt_while_queued_reports_zero_progress(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))
        out = {}

        def holder(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB)

        def victim(env, cpu):
            try:
                yield from cpu.compute(80 * MB, 80 * MB)
            except ComputeInterrupted as ci:
                out["done"] = ci.bytes_done

        def attacker(env, p):
            yield env.timeout(0.5)  # victim still queued (holder runs 1s)
            p.interrupt()

        env.process(holder(env, cpu))
        p = env.process(victim(env, cpu))
        env.process(attacker(env, p))
        env.run()
        assert out["done"] == 0

    def test_interrupt_releases_core(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))
        finishes = []

        def victim(env, cpu):
            try:
                yield from cpu.compute(80 * MB, 80 * MB)
            except ComputeInterrupted:
                pass

        def other(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB)
            finishes.append(env.now)

        def attacker(env, p):
            yield env.timeout(0.5)
            p.interrupt()

        p = env.process(victim(env, cpu))
        env.process(other(env, cpu))
        env.process(attacker(env, p))
        env.run()
        # Other gets the core at 0.5 and runs a full second.
        assert finishes == pytest.approx([1.5])

    def test_utilization_tracks_busy_cores(self, env):
        cpu = CpuCores(env, NodeSpec(cores=2))
        samples = []

        def worker(env, cpu):
            yield from cpu.compute(80 * MB, 80 * MB)

        def sampler(env, cpu):
            yield env.timeout(0.5)
            samples.append(cpu.utilization())
            yield env.timeout(1)
            samples.append(cpu.utilization())

        env.process(worker(env, cpu))
        env.process(sampler(env, cpu))
        env.run()
        assert samples == [0.5, 0.0]

    def test_validation(self, env):
        cpu = CpuCores(env, NodeSpec(cores=1))
        with pytest.raises(ValueError):
            list(cpu.compute(-1, 10))
        with pytest.raises(ValueError):
            list(cpu.compute(10, 0))

