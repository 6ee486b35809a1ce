"""The PR-3 substrate: parallel sweeps, the result cache, and the
seed-sentinel / plan-indexing fixes they depend on.

The load-bearing property throughout is *determinism*: a sweep's
merged output must be byte-identical whatever the job count, and a
cache hit must reproduce the simulation it memoised.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cache import (
    ResultCache,
    point_key,
    result_from_dict,
    result_to_dict,
    salted_modules,
)
from repro.cluster.config import MB
from repro.core import DEFAULT_SEED, resolve_seed
from repro.core.planrun import run_plan
from repro.core.schemes import Scheme, WorkloadSpec, run_scheme
from repro.parallel import SweepPoint, SweepRunner, run_point
from repro.pvfs.filehandle import SyntheticData
from repro.workload.generator import PlannedRequest, RequestPlan


def canon(result) -> str:
    """Canonical byte form of a result — the determinism yardstick."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))


SMALL = dict(kernel="sum", n_requests=2, request_bytes=1 * MB,
             execute_kernels=True)


# --------------------------------------------------------------- seed sentinel
class TestSeedSentinel:
    def test_resolve(self):
        assert resolve_seed(None) == DEFAULT_SEED
        assert resolve_seed(0) == 0
        assert resolve_seed(7) == 7

    def test_seed_zero_is_not_the_default(self):
        """Regression: ``seed=0`` was silently aliased to the default
        by an ``or`` expression; it must now be a real, distinct seed."""
        with_zero = run_scheme(Scheme.AS, WorkloadSpec(seed=0, **SMALL))
        with_none = run_scheme(Scheme.AS, WorkloadSpec(seed=None, **SMALL))
        assert [float(v) for v in with_zero.results] != \
               [float(v) for v in with_none.results]

    def test_file_seeds_follow_the_resolved_seed(self):
        r = run_scheme(Scheme.AS, WorkloadSpec(seed=None, **SMALL))
        for i in range(2):
            expected = SyntheticData(DEFAULT_SEED + i).read(0, 1 * MB).sum()
            assert r.results[i] == pytest.approx(float(expected))

    def test_seed_zero_reproduces_historical_file_data(self):
        r = run_scheme(Scheme.AS, WorkloadSpec(seed=0, **SMALL))
        for i in range(2):
            expected = SyntheticData(i).read(0, 1 * MB).sum()
            assert r.results[i] == pytest.approx(float(expected))


# -------------------------------------------------------- PlanResult guards
class TestEmptyPlanResult:
    """No run returns a record without requests, so ``makespan`` and
    ``mean_latency`` are always defined: an empty plan is refused up
    front (``TestPlanRunner::test_empty_plan_rejected``), and a plan
    run that cannot finish raises instead of returning."""

    def test_makespan_raises_clearly(self):
        from repro.faults import WatchdogTimeout

        plan = RequestPlan(requests=[_request(0), _request(1)])
        with pytest.raises(WatchdogTimeout):
            run_plan(Scheme.AS, plan, max_virtual_time=0.001)

    def test_mean_latency_raises_clearly(self):
        from repro.core.asc import RetryExhausted, RetryPolicy
        from repro.faults import FaultEvent, FaultKind, FaultSchedule

        perma_crash = FaultSchedule(
            name="perma-crash",
            events=(FaultEvent(at=0.0, kind=FaultKind.CRASH),),
            retry=RetryPolicy(timeout=0.2, max_retries=1, backoff_base=0.05),
            horizon=30.0,
        )
        plan = RequestPlan(requests=[_request(0), _request(1)])
        with pytest.raises(RetryExhausted):
            run_plan(Scheme.AS, plan, fault_schedule=perma_crash)


# ------------------------------------------------------- index-keyed handles
def _request(seq: int, arrival: float = 0.0) -> PlannedRequest:
    return PlannedRequest(app="a", process_index=0, sequence=seq,
                          arrival_time=arrival, size=1 * MB, active=True,
                          operation="sum")


class TestPlanHandleKeying:
    def test_duplicate_request_object_gets_two_files(self):
        """Regression for ``handles[id(req)]``: the *same* request
        object listed twice must still map to two distinct files (the
        id-keyed dict collapsed them, so both reads saw one file)."""
        req = _request(0)
        plan = RequestPlan(requests=[req, req])
        r = run_plan(Scheme.AS, plan, WorkloadSpec(execute_kernels=True))
        assert len(r.outcomes) == 2
        values = sorted(float(o.result) for o in r.outcomes)
        seed = DEFAULT_SEED
        expected = sorted(
            float(SyntheticData(seed + i).read(0, 1 * MB).sum())
            for i in range(2)
        )
        assert values == pytest.approx(expected)


# --------------------------------------------------------------- sweep runner
def _points():
    plan = RequestPlan(requests=[_request(0), _request(1, arrival=0.01)])
    return [
        SweepPoint(Scheme.TS, WorkloadSpec(**SMALL)),
        SweepPoint(Scheme.AS, WorkloadSpec(**SMALL)),
        SweepPoint(Scheme.DOSAS, WorkloadSpec(**SMALL), label="dosas-small"),
        SweepPoint(Scheme.AS, WorkloadSpec(execute_kernels=True), plan=plan),
    ]


class TestSweepRunnerDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        points = _points()
        serial = SweepRunner(jobs=1).run(points)
        parallel = SweepRunner(jobs=4).run(points)
        assert len(serial) == len(parallel) == len(points)
        for s, p in zip(serial, parallel):
            assert canon(s) == canon(p)

    def test_results_align_with_point_order(self):
        points = _points()
        results = SweepRunner(jobs=4).run(points)
        for point, result in zip(points, results):
            assert result.scheme is point.scheme
        assert canon(results[0]) == canon(run_point(points[0]))

    def test_progress_reaches_total(self):
        points = _points()
        seen = []
        runner = SweepRunner(
            jobs=2, progress=lambda done, total, pt, cached: seen.append(
                (done, total, cached)
            ),
        )
        runner.run(points)
        assert len(seen) == len(points)
        assert max(done for done, _, _ in seen) == len(points)
        assert all(total == len(points) for _, total, _ in seen)
        assert not any(cached for _, _, cached in seen)

    def test_pool_fallback_is_equivalent(self, monkeypatch):
        """A pool that cannot start degrades to in-process execution
        with identical output."""
        messages = []
        runner = SweepRunner(jobs=4, log=messages.append)
        monkeypatch.setattr(
            SweepRunner, "_run_pool",
            lambda self, *a, **k: (self._say("forced fallback"), False)[1],
        )
        points = _points()
        assert [canon(r) for r in runner.run(points)] == \
               [canon(r) for r in SweepRunner(jobs=1).run(points)]
        assert messages == ["forced fallback"]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


# --------------------------------------------------------------------- cache
class TestResultCache:
    def test_round_trip_scheme_and_plan(self):
        for point in (_points()[1], _points()[3]):
            result = run_point(point)
            doc = json.loads(canon(result))
            assert canon(result_from_dict(doc)) == canon(result)

    def test_miss_then_hit(self, tmp_path):
        points = _points()[:3]
        cold = ResultCache(tmp_path / "c")
        fresh = SweepRunner(jobs=1, cache=cold, log=lambda m: None).run(points)
        assert (cold.hits, cold.misses, cold.stores) == (0, 3, 3)

        warm = ResultCache(tmp_path / "c")
        cached = SweepRunner(jobs=1, cache=warm, log=lambda m: None).run(points)
        assert (warm.hits, warm.misses, warm.stores) == (3, 0, 0)
        assert [canon(r) for r in cached] == [canon(r) for r in fresh]
        assert len(warm) == 3

    def test_hits_report_cached_in_progress(self, tmp_path):
        points = _points()[:2]
        cache = ResultCache(tmp_path / "c")
        SweepRunner(jobs=1, cache=cache).run(points)
        seen = []
        SweepRunner(
            jobs=1, cache=ResultCache(tmp_path / "c"),
            progress=lambda done, total, pt, cached: seen.append(cached),
        ).run(points)
        assert seen == [True, True]

    def test_salt_change_invalidates(self, tmp_path):
        points = _points()[:2]
        a = ResultCache(tmp_path / "c", salt="salt-a")
        SweepRunner(jobs=1, cache=a).run(points)
        b = ResultCache(tmp_path / "c", salt="salt-b")
        SweepRunner(jobs=1, cache=b).run(points)
        assert b.hits == 0 and b.misses == 2 and b.stores == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        point = _points()[0]
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key(point.scheme, point.spec, point.plan)
        cache.put(key, run_point(point))
        path = cache._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.corrupt_entries == 1

    def test_every_simulation_module_a_protected_run_loads_is_salted(self):
        """A fresh interpreter runs the chaos, straggler and tenant
        library scenarios; each ``repro`` module it loads is salted or
        belongs to the harness that orchestrates runs, whose inputs the
        cache key already carries."""
        script = (
            "import sys\n"
            "from repro.scenario import get_scenario, run_scenario\n"
            "for name in ('kitchen-sink-chaos', 'straggler-tail',"
            " 'tenant-fairness'):\n"
            "    run_scenario(get_scenario(name), seeds=(0,))\n"
            "print(' '.join(m for m in sys.modules if m.startswith('repro')))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        harness = ("repro.cache", "repro.parallel", "repro.scenario")
        salted = salted_modules()
        unsalted = [
            name for name in loaded
            if name != "repro" and name not in salted
            and not any(name == h or name.startswith(h + ".") for h in harness)
        ]
        assert unsalted == []
        for name in ("repro.core.asc", "repro.pvfs.layout", "repro.faults.injector",
                     "repro.qos.tenancy", "repro.straggler.dispatch"):
            assert name in loaded and name in salted

    def test_key_distinguishes_every_input(self):
        spec = WorkloadSpec(**SMALL)
        base = point_key(Scheme.AS, spec, salt="s")
        assert point_key(Scheme.TS, spec, salt="s") != base
        assert point_key(Scheme.AS, WorkloadSpec(seed=0, **SMALL),
                         salt="s") != base
        assert point_key(Scheme.AS, spec, salt="t") != base
        plan = RequestPlan(requests=[_request(0)])
        assert point_key(Scheme.AS, spec, plan, salt="s") != base
        assert point_key(Scheme.AS, spec, salt="s") == base


# ------------------------------------------------------------ the CLI report
class TestCliCacheReport:
    """``repro sweep --cache DIR`` ends by reporting the cache's counters
    on stderr, so a warm run is told apart from a cold one."""

    ARGS = ["sweep", "--kernel", "sum", "--mb", "8"]

    @staticmethod
    def _sweep(cache_dir, capsys):
        from repro.cli import main

        assert main(TestCliCacheReport.ARGS + ["--cache", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err.splitlines()

    def test_warm_run_reports_hits_and_keeps_stdout(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        cold_out, cold_err = self._sweep(cache_dir, capsys)
        warm_out, warm_err = self._sweep(cache_dir, capsys)
        assert cold_err[-1].endswith(
            f"result cache {cache_dir}: 0 hits, 21 misses, 21 stores, 0 corrupt")
        assert warm_err[-1].endswith(
            f"result cache {cache_dir}: 21 hits, 0 misses, 0 stores, 0 corrupt")
        assert len(warm_err) == 1
        assert warm_out == cold_out

    def test_corrupt_entry_is_reported_and_warned(self, tmp_path, capsys, caplog):
        cache_dir = tmp_path / "c"
        self._sweep(cache_dir, capsys)
        entry = sorted(cache_dir.glob("*/*.json"))[0]
        entry.write_text("garbage", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.cache"):
            _out, err = self._sweep(cache_dir, capsys)
        assert err[-1].endswith("20 hits, 1 misses, 1 stores, 1 corrupt")
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert str(entry) in warnings[0].getMessage()
