"""Parallel sweep execution (``repro.parallel``).

Every figure and table of the paper's evaluation is a *sweep*: dozens
of independent (scheme, workload) simulations whose results are then
merged into a series.  Each point is a self-contained simulation —
its own :class:`~repro.sim.engine.Environment`, cluster and RNGs — so
points can run in any order, in any process, and merge back
deterministically.

:class:`SweepRunner` fans the points across a
``concurrent.futures.ProcessPoolExecutor``:

- **Deterministic ordering** — results are returned in point order
  regardless of completion order, so a ``jobs=4`` sweep is
  byte-identical to the serial one once serialised.
- **Caching** — give the runner a :class:`~repro.cache.ResultCache`
  and already-computed points are loaded instead of re-simulated.
- **Graceful fallback** — ``jobs=1`` never touches multiprocessing,
  and a pool that cannot start (restricted sandbox, missing
  semaphores) degrades to in-process execution with a log line
  instead of an error.

.. code-block:: python

    from repro.parallel import SweepPoint, SweepRunner
    from repro.cache import ResultCache
    from repro.core import Scheme, WorkloadSpec

    points = [SweepPoint(s, WorkloadSpec(n_requests=n))
              for s in Scheme for n in (1, 4, 16)]
    runner = SweepRunner(jobs=4, cache=ResultCache(".sweep-cache"))
    results = runner.run(points)   # aligned with `points`
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.planrun import run_plan
from repro.core.schemes import Scheme, SchemeResult, WorkloadSpec, run_scheme
from repro.workload.generator import RequestPlan

from repro.cache import ResultCache

__all__ = ["SweepPoint", "SweepRunner", "run_point"]

ProgressFn = Callable[[int, int, "SweepPoint", bool], None]
LogFn = Callable[[str], None]


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation of a sweep.

    A point either runs :func:`~repro.core.run_scheme` (``plan is
    None``) or :func:`~repro.core.run_plan` (``plan`` set; ``spec``
    then supplies the machine knobs).
    """

    scheme: Scheme
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    plan: Optional[RequestPlan] = None
    #: Free-form tag carried through to progress callbacks (e.g.
    #: ``"gaussian2d/8x256MB"``); not part of the cache key.
    label: str = ""

    def describe(self) -> str:
        """Short human-readable id for progress lines."""
        if self.label:
            return f"{self.scheme.value}:{self.label}"
        if self.plan is not None:
            return f"{self.scheme.value}:plan[{len(self.plan)}]"
        mb = self.spec.request_bytes // (1024 * 1024)
        return f"{self.scheme.value}:{self.spec.kernel}/{self.spec.n_requests}x{mb}MB"


def run_point(point: SweepPoint) -> SchemeResult:
    """Execute one point in this process.

    Module-level (not a method) so the process pool can pickle it.
    """
    if point.plan is None:
        return run_scheme(point.scheme, point.spec)
    return run_plan(point.scheme, point.plan, point.spec)


class SweepRunner:
    """Runs sweep points, optionally in parallel and through a cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) stays in-process.
    cache:
        Optional :class:`~repro.cache.ResultCache`; hits skip the
        simulation entirely and fresh results are stored back.
    progress:
        ``progress(done, total, point, cached)`` called after every
        resolved point (from the parent process, never a worker).
    log:
        Sink for one-line notices (pool fallback, cache stats);
        defaults to stderr.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional["ResultCache"] = None,
        progress: Optional[ProgressFn] = None,
        log: Optional[LogFn] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.log = log

    # -- internals ----------------------------------------------------------
    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)
        else:
            print(f"[sweep] {message}", file=sys.stderr)

    def _tick(self, done: int, total: int, point: SweepPoint, cached: bool) -> None:
        if self.progress is not None:
            self.progress(done, total, point, cached)

    # -- execution ----------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> List[SchemeResult]:
        """Resolve every point; results align index-for-index.

        The merged output is independent of ``jobs``: each point is a
        sealed simulation, and results slot into their input position
        whatever order workers finish in.
        """
        points = list(points)
        total = len(points)
        results: List[Optional[SchemeResult]] = [None] * total

        def tick(point: SweepPoint, cached: bool) -> None:
            self._tick(sum(1 for r in results if r is not None),
                       total, point, cached)

        # Pass 1 — cache lookups.
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * total
        for i, point in enumerate(points):
            if self.cache is not None:
                keys[i] = self.cache.key(point.scheme, point.spec, point.plan)
                hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    tick(point, True)
                    continue
            pending.append(i)

        # Pass 2 — execute the misses.
        if pending:
            ran_in_pool = False
            if self.jobs > 1 and len(pending) > 1:
                ran_in_pool = self._run_pool(points, pending, results, keys, tick)
            if not ran_in_pool:
                for i in pending:
                    if results[i] is not None:
                        continue  # filled before a pool later broke
                    results[i] = self._finish(points[i], keys[i],
                                              run_point(points[i]))
                    tick(points[i], False)

        assert all(r is not None for r in results)
        if self.cache is not None:
            c = self.cache
            self._say(f"result cache {c.root}: {c.hits} hits, {c.misses} misses, "
                      f"{c.stores} stores, {c.corrupt_entries} corrupt")
        return results  # type: ignore[return-value]

    def _finish(
        self, point: SweepPoint, key: Optional[str], result: SchemeResult
    ) -> SchemeResult:
        if self.cache is not None and key is not None:
            self.cache.put(key, result)
        return result

    def _run_pool(
        self,
        points: Sequence[SweepPoint],
        pending: List[int],
        results: List[Optional[SchemeResult]],
        keys: List[Optional[str]],
        tick: Callable[[SweepPoint, bool], None],
    ) -> bool:
        """Fan ``pending`` across a process pool.

        Returns False (after logging) when the pool itself cannot run —
        the caller then falls back to in-process execution.  Exceptions
        raised *by a point's simulation* propagate unchanged.
        """
        try:
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool
        except ImportError as exc:  # pragma: no cover - stdlib always has it
            self._say(f"process pool unavailable ({exc}); running in-process")
            return False

        workers = min(self.jobs, len(pending))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(run_point, points[i]): i for i in pending}
                for future in as_completed(futures):
                    i = futures[future]
                    results[i] = self._finish(points[i], keys[i], future.result())
                    tick(points[i], False)
        except BrokenProcessPool as exc:
            self._say(
                f"process pool broke ({exc}); finishing remaining points "
                "in-process"
            )
            return False
        except (OSError, PermissionError) as exc:
            self._say(
                f"cannot start process pool ({exc}); running in-process"
            )
            return False
        return True
