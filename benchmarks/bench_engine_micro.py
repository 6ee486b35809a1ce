"""Micro-benchmarks of the simulation substrate itself.

These time the machinery every figure bench runs on: raw event
throughput, resource churn, fair-share link bookkeeping, and one full
scheme run — useful for catching performance regressions in the
engine.

Engine-facing benches run under both event schedulers (see
:mod:`repro.sim.scheduler`) and record the variant plus the
scheduler's queue statistics (max depth, compactions, slot pairs) in the
result JSON via ``benchmark.extra_info``, so a saved run states which
data structure produced which numbers.
"""

import pytest

from repro.sim import Environment, Resource, Store
from repro.sim.scheduler import SCHEDULERS
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme


def _record_queue_stats(benchmark, env):
    """Stamp the scheduler variant and queue stats into the JSON."""
    stats = env.scheduler_stats()
    benchmark.extra_info["scheduler"] = stats.pop("scheduler")
    benchmark.extra_info["queue_stats"] = stats


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def bench_event_throughput(benchmark, scheduler):
    """Schedule + process 10k chained timeouts."""
    last_env = {}

    def run():
        env = Environment(scheduler=scheduler)

        def chain(env, n):
            for _ in range(n):
                yield env.timeout(1)

        env.process(chain(env, 10_000))
        env.run()
        last_env["env"] = env
        return env.now

    assert benchmark(run) == 10_000
    _record_queue_stats(benchmark, last_env["env"])


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def bench_resource_churn(benchmark, scheduler):
    """1000 processes contending for a 4-slot resource."""
    last_env = {}

    def run():
        env = Environment(scheduler=scheduler)
        res = Resource(env, capacity=4)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        for _ in range(1000):
            env.process(worker(env, res))
        env.run()
        last_env["env"] = env
        return env.now

    assert benchmark(run) == 250
    _record_queue_stats(benchmark, last_env["env"])


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def bench_store_pipeline(benchmark, scheduler):
    """Producer/consumer through a bounded store."""
    last_env = {}

    def run():
        env = Environment(scheduler=scheduler)
        st = Store(env, capacity=16)

        def producer(env, st):
            for i in range(2000):
                yield st.put(i)

        def consumer(env, st):
            for _ in range(2000):
                yield st.get()

        env.process(producer(env, st))
        env.process(consumer(env, st))
        env.run()
        last_env["env"] = env

    benchmark(run)
    _record_queue_stats(benchmark, last_env["env"])


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def bench_full_scheme_run(benchmark, scheduler):
    """Wall cost of one paper experiment point (DOSAS, 16 x 256 MB)."""
    spec = WorkloadSpec(kernel="gaussian2d", n_requests=16,
                        request_bytes=256 * MB)
    benchmark(run_scheme, Scheme.DOSAS, spec, sim_scheduler=scheduler)
    benchmark.extra_info["scheduler"] = scheduler
