"""Micro-benchmarks of the simulation substrate itself.

These time the machinery every figure bench runs on: raw event
throughput, resource churn, fair-share link bookkeeping, and one full
scheme run — useful for catching performance regressions in the
engine.

Engine-facing benches record the event queue's statistics (max depth,
compactions; see :mod:`repro.sim.scheduler`) in the result JSON via
``benchmark.extra_info``.
"""

from repro.sim import Environment, Resource, Store
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme


def _record_queue_stats(benchmark, env):
    """Stamp the event queue's stats into the JSON."""
    benchmark.extra_info["queue_stats"] = env.scheduler_stats()


def bench_event_throughput(benchmark):
    """Schedule + process 10k chained timeouts."""
    last_env = {}

    def run():
        env = Environment()

        def chain(env, n):
            for _ in range(n):
                yield env.timeout(1)

        env.process(chain(env, 10_000))
        env.run()
        last_env["env"] = env
        return env.now

    assert benchmark(run) == 10_000
    _record_queue_stats(benchmark, last_env["env"])


def bench_resource_churn(benchmark):
    """1000 processes contending for a 4-slot resource."""
    last_env = {}

    def run():
        env = Environment()
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


def bench_store_pipeline(benchmark):
    """Producer/consumer through a bounded store."""
    last_env = {}

    def run():
        env = Environment()
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


def bench_full_scheme_run(benchmark):
    """Wall cost of one paper experiment point (DOSAS, 16 x 256 MB)."""
    spec = WorkloadSpec(kernel="gaussian2d", n_requests=16,
                        request_bytes=256 * MB)
    benchmark(run_scheme, Scheme.DOSAS, spec)
