"""The three benchmark workloads and the pass that runs one of them.

A *workload* is a fixed, closed batch of simulator runs derived from
the benchmark seed.  A *pass* executes the whole batch once, serially
and in this process, through the library's public entry points:
paper points through ``run_scheme``, library scenarios through
``run_scenario``.  Every run leaves a :class:`RunOutcome` carrying a
digest of its simulated outputs and the reasons, if any, it failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.scenario.runner as scenario_runner
from repro.cluster.config import MB
from repro.core.schemes import Scheme, SchemeResult, WorkloadSpec, run_scheme
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids
from repro.scenario import get_scenario, run_scenario, validate_scenario
from repro.scenario.invariants import check_run
from repro.scenario.schema import Scenario

WORKLOADS = ("paper-grid", "tenant-contention", "chaos-straggler")

#: The paper's sweep (Sec. IV, Figs. 7-12): requests per storage node
#: times (kernel, per-request size), each point under TS, AS and DOSAS.
GRID_REQUESTS = (1, 2, 4, 8, 16, 32, 64)
GRID_SHAPES = (
    ("gaussian2d", 128 * MB),
    ("gaussian2d", 1024 * MB),
    ("sum", 128 * MB),
)
GRID_SCHEMES = (Scheme.TS, Scheme.AS, Scheme.DOSAS)

SCENARIOS: Dict[str, Tuple[str, ...]] = {
    "tenant-contention": (
        "noisy-neighbor-nic", "noisy-neighbor-cpu", "noisy-neighbor-queue",
    ),
    "chaos-straggler": (
        "kitchen-sink-chaos", "straggler-degrade", "nwp-phase-burst",
    ),
}

#: Scenario seeds per benchmark seed.  The noisy-neighbor scenarios
#: draw nothing from their seed, so 8 only sizes the pass.  The chaos
#: scenarios' pooled latency quantiles move about 10 % from one
#: benchmark seed to the next at 8 seeds and about 5 % at 32.
SEEDS_PER_RUN = {"tenant-contention": 8, "chaos-straggler": 32}

#: Chaos scenario seeds screened in ``range(CHAOS_SCREENED)``: on these
#: the protected ``kitchen-sink-chaos`` run dies (a normal read exhausts
#: its retries), which the invariant engine reports as a lifecycle
#: violation.  The other two chaos scenarios were clean on every seed.
#: The list is part of the benchmark's definition, frozen as first
#: screened (``screen_seeds.py`` lists the seeds that fail today).
#: Dropping an entry changes the scenario seeds of the benchmark seeds
#: whose window holds it, so only a change that measures its baseline
#: again may edit the list.
CHAOS_SCREENED = 1024
CHAOS_UNSAFE = frozenset({
    26, 53, 57, 70, 88, 108, 111, 117, 131, 152, 163, 188, 190, 199,
    205, 226, 230, 236, 255, 261, 263, 265, 272, 275, 286, 291, 297,
    301, 304, 307, 321, 330, 331, 337, 339, 368, 378, 380, 413, 430,
    447, 472, 496, 504, 513, 565, 566, 574, 593, 595, 602, 604, 636,
    650, 657, 668, 680, 683, 687, 694, 723, 726, 728, 730, 733, 744,
    751, 757, 758, 787, 800, 805, 807, 819, 821, 832, 859, 866, 868,
    870, 871, 879, 897, 930, 939, 959, 1000, 1001, 1004, 1012,
})


def scenario_seeds(workload: str, seed: int) -> Tuple[int, ...]:
    """The scenario seeds one benchmark seed stands for.

    Chaos seeds are the first ``n`` screened seeds from ``seed * n``
    on, wrapping at :data:`CHAOS_SCREENED`, that are not unsafe; an
    unsafe entry only affects the windows that reach it.
    """
    n = SEEDS_PER_RUN[workload]
    if workload == "chaos-straggler":
        window = ((seed * n + i) % CHAOS_SCREENED for i in range(CHAOS_SCREENED))
        return tuple(s for s in window if s not in CHAOS_UNSAFE)[:n]
    return tuple(seed * n + i for i in range(n))


@dataclass
class RunOutcome:
    """One simulator run inside a pass."""

    #: The experiment point the run belongs to: a grid point, or one
    #: scenario under one seed.  Runs of one point differ by scheme
    #: and mode only.
    point: str
    scheme: str
    #: ``protected`` for paper points and protected scenario runs,
    #: otherwise the scenario's baseline mode.
    mode: str
    result: Optional[SchemeResult]
    #: Logical reads the run's clients issued (its spec's requests).
    requests: int
    #: Why the run failed (empty when it did not).
    failures: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def label(self) -> str:
        """Stable identity of the run across passes."""
        return f"{self.point}/{self.scheme}/{self.mode}"


@dataclass
class Plan:
    """Everything a pass needs, built once during set-up."""

    workload: str
    #: Paper-grid points, in run order: (point, scheme, spec).
    points: List[Tuple[str, Scheme, WorkloadSpec]] = field(default_factory=list)
    #: Validated scenarios, and the scenario seeds to run each on.
    scenarios: List[Scenario] = field(default_factory=list)
    seeds: Tuple[int, ...] = ()


def build_plan(workload: str, seed: int) -> Plan:
    """Set-up: build every spec, or load and validate every scenario."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    plan = Plan(workload=workload)
    if workload == "paper-grid":
        for kernel, size in GRID_SHAPES:
            for n in GRID_REQUESTS:
                # Jitter draws each transfer's bandwidth from the
                # testbed's measured range, so the seed reaches the grid.
                spec = WorkloadSpec(
                    kernel=kernel, n_requests=n, request_bytes=size,
                    n_storage=1, jitter=True, seed=seed,
                )
                point = f"grid/{kernel}-{size // MB}MB-n{n}"
                for scheme in GRID_SCHEMES:
                    plan.points.append((point, scheme, spec))
        return plan
    plan.seeds = scenario_seeds(workload, seed)
    for name in SCENARIOS[workload]:
        scenario = get_scenario(name)
        validate_scenario(scenario)
        plan.scenarios.append(scenario)
    return plan


def digest_of(result: SchemeResult) -> str:
    """SHA-256 over every simulated output field of one run."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


#: Called after every run of a pass (timing and memory meters hook in).
Tick = Callable[[], None]


def _no_tick() -> None:
    pass


@contextlib.contextmanager
def _recording_run_scheme(
    sink: List[Tuple[WorkloadSpec, Optional[SchemeResult]]], tick: Tick
) -> Iterator[None]:
    """Capture the spec and ``SchemeResult`` of each scenario run.

    ``ScenarioRun`` keeps only summary fields; the digest and the
    latency pool need the whole result.  A run that raises records
    None so the capture stays aligned with the report's run order.
    """
    original = scenario_runner.run_scheme

    def recording(scheme: Scheme, spec: WorkloadSpec, **kwargs: Any) -> SchemeResult:
        try:
            result = original(scheme, spec, **kwargs)
        except BaseException:
            sink.append((spec, None))
            raise
        finally:
            tick()
        sink.append((spec, result))
        return result

    scenario_runner.run_scheme = recording
    try:
        yield
    finally:
        scenario_runner.run_scheme = original


def _grid_pass(plan: Plan, tick: Tick) -> List[RunOutcome]:
    outcomes: List[RunOutcome] = []
    for point, scheme, spec in plan.points:
        reset_request_ids()
        reset_parent_ids()
        try:
            result = run_scheme(scheme, spec)
        except Exception as err:  # a raising run is a failed run
            outcomes.append(RunOutcome(
                point, scheme.value, "protected", None, spec.total_requests,
                failures=[f"raised {type(err).__name__}: {err}"],
            ))
            continue
        finally:
            tick()
        outcomes.append(RunOutcome(
            point, scheme.value, "protected", result, spec.total_requests,
        ))
    return outcomes


def _scenario_pass(plan: Plan, tick: Tick) -> List[RunOutcome]:
    outcomes: List[RunOutcome] = []
    for scenario in plan.scenarios:
        captured: List[Tuple[WorkloadSpec, Optional[SchemeResult]]] = []
        try:
            with _recording_run_scheme(captured, tick):
                report = run_scenario(scenario, seeds=plan.seeds)
        except Exception as err:  # the whole scenario is lost
            outcomes.append(RunOutcome(
                scenario.name, "", "protected", None, 0,
                failures=[f"raised {type(err).__name__}: {err}"],
            ))
            continue
        runs = [(sr, run) for sr in report.seeds for run in sr.runs]
        if len(runs) != len(captured):
            raise RuntimeError(
                f"{scenario.name}: {len(runs)} report runs but "
                f"{len(captured)} captured results"
            )
        for (sr, run), (spec, result) in zip(runs, captured):
            outcome = RunOutcome(
                f"{scenario.name}/seed{sr.seed}", run.scheme, run.mode,
                result, spec.total_requests,
            )
            # A protected death arrives as a lifecycle violation; a
            # baseline death is the degradation protection is measured
            # against, not a failure.
            outcome.failures.extend(run.violations)
            if run.mode == "protected":
                # The SLO-floor check compares a pair; it lands on the
                # protected side of the scheme it names.
                outcome.failures.extend(
                    v for v in sr.cross_violations
                    if v.startswith(f"[{run.scheme}]")
                )
            outcomes.append(outcome)
    return outcomes


def run_pass(plan: Plan, tick: Tick = _no_tick) -> List[RunOutcome]:
    """Execute the workload once, calling ``tick`` after every run.

    Digests are left for :func:`finish_pass`.
    """
    if plan.workload == "paper-grid":
        return _grid_pass(plan, tick)
    return _scenario_pass(plan, tick)


def finish_pass(plan: Plan, outcomes: List[RunOutcome]) -> None:
    """Digest every run; push paper points through the invariant engine.

    Kept out of :func:`run_pass` so timed passes measure the simulator
    only.  Scenario runs were already checked inside ``run_scenario``.
    """
    for outcome in outcomes:
        if outcome.result is None:
            continue
        outcome.digest = digest_of(outcome.result)
        if plan.workload == "paper-grid":
            outcome.failures.extend(str(v) for v in check_run(outcome.result))
