"""Real-stack benchmark: one workload, timed untraced, checked, attributed.

Usage (from the repository root)::

    python3 stackbench/run.py --workload paper-grid --seed 0 --seconds 10 --trace 0

A run sets the workload up (timed in fresh interpreters), executes one
untimed warm-up pass, then timed passes until ``--seconds`` have been
measured, and reports medians.  Host times are calibrated against a
fixed loop timed around each measurement (see ``calibrate.py``).
``--trace 0`` adds one tracemalloc pass and prints the end-to-end
metrics; ``--trace 1`` adds one cProfile pass and prints the per-layer
metrics, with a per-layer table written to ``stackbench/out/``.  Every pass must reproduce the
warm-up's simulated outputs digest for digest.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters whose set-up time ``setup_s`` takes the median of.
SETUP_PROBES = 3
#: Timed passes per run, at least, however long they take.
MIN_TIMED_PASSES = 3
#: The latency pool needs ten samples beyond its p90.
MIN_LATENCY_POOL = 100


def declared_metrics(section: str) -> List[Tuple[str, str]]:
    """(name, unit) of each metric ``BENCHMARK.json`` lists in ``section``.

    ``--trace 0`` prints the ``end_to_end`` section, ``--trace 1`` the
    ``per_layer`` one.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, print the seconds it took, and exit",
    )
    return parser.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> float:
    """Median set-up seconds over fresh interpreters (imports included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def sim_metrics(outcomes: List[Any]) -> Dict[str, float]:
    """The deterministic simulated-output metrics of one pass."""
    from workloads import MB

    protected = [o for o in outcomes if o.mode == "protected" and o.result]
    by_point: Dict[str, Dict[str, float]] = {}
    for o in protected:
        by_point.setdefault(o.point, {})[o.scheme] = o.result.makespan
    # DOSAS against the best scheme run at the same point; where DOSAS
    # is the only scheme run, that is DOSAS itself.
    vs_best = max(
        makespans["dosas"] / min(makespans.values())
        for makespans in by_point.values() if "dosas" in makespans
    )
    gold = [
        o.result.qos_stats["tenants"]["per_tenant"]["gold"]["slo_attainment"]
        for o in protected
        if "gold" in o.result.qos_stats.get("tenants", {}).get("per_tenant", {})
    ]
    dosas = [o.result for o in protected if o.scheme == "dosas"]
    pool = sorted(x for r in dosas for x in r.per_request_latencies)
    return {
        "sim_dosas_vs_best": vs_best,
        # No gold tenant means no gold SLO to miss.
        "sim_gold_slo_attainment": min(gold) if gold else 1.0,
        "sim_goodput_mb_s": statistics.fmean(r.goodput for r in dosas) / MB,
        "sim_latency_p50_s": statistics.median(pool),
        "sim_latency_p90_s": statistics.quantiles(pool, n=10)[8],
        "latency_pool": float(len(pool)),
    }


class Checker:
    """Failure bookkeeping: per run label, across every pass."""

    def __init__(self, reference: List[Any]) -> None:
        self.digests = {o.label: o.digest for o in reference}
        self.failures: Dict[str, List[str]] = {o.label: [] for o in reference}
        self.record(reference, "warm-up")

    def record(self, outcomes: List[Any], name: str) -> None:
        seen = set()
        for o in outcomes:
            seen.add(o.label)
            problems = self.failures.setdefault(o.label, [])
            problems.extend(f"{name}: {f}" for f in o.failures)
            if o.digest != self.digests.get(o.label):
                problems.append(f"{name}: simulated outputs differ from the warm-up's")
        for label in self.digests.keys() - seen:
            self.failures[label].append(f"{name}: run missing")

    @property
    def failed(self) -> List[str]:
        return sorted(label for label, f in self.failures.items() if f)


def _setup_seconds(workload: str, seed: int, cal: calibrate.Calibrator) -> float:
    """Calibrated seconds to import the stack and build the workload."""
    before = cal.sample()
    start = time.perf_counter()
    import workloads

    workloads.build_plan(workload, seed)
    elapsed = time.perf_counter() - start
    return calibrate.calibrated(elapsed, before + cal.sample())


def _timed_passes(
    plan: Any, seconds: float, checker: Checker, cal: calibrate.Calibrator
) -> Tuple[List[float], List[float]]:
    """Run passes until ``seconds`` are measured: (raw, calibrated) walls."""
    import workloads

    raw: List[float] = []
    walls: List[float] = []
    while len(raw) < MIN_TIMED_PASSES or sum(raw) < seconds:
        gc.collect()
        with calibrate.PassClock(cal) as clock:
            outcomes = workloads.run_pass(plan, clock.tick)
        raw.append(clock.elapsed)
        walls.append(clock.calibrated)
        workloads.finish_pass(plan, outcomes)
        checker.record(outcomes, f"timed pass {len(raw)}")
    return raw, walls


def _memory_pass(plan: Any, checker: Checker) -> float:
    """Median over runs of a run's tracemalloc peak, in MB.

    Each run's peak is taken above what was live when it started, so
    results kept from earlier runs do not count against it.  A pass
    peak would instead follow the single largest run, and a mean the
    few largest, both of which move with the seed.
    """
    import tracemalloc

    import workloads

    peaks: List[int] = []
    base = 0

    def tick() -> None:
        nonlocal base
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - base)
        tracemalloc.reset_peak()
        base = current

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcomes = workloads.run_pass(plan, tick)
    finally:
        tracemalloc.stop()
    workloads.finish_pass(plan, outcomes)
    checker.record(outcomes, "memory pass")
    return statistics.median(peaks) / workloads.MB


def _print_table(rows: List[Tuple[str, Any, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # One core for the calibration loop and the work it scales.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = calibrate.Calibrator()
    if args.setup_probe:
        print(repr(_setup_seconds(args.workload, args.seed, cal)))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = _setup_probe(args.workload, args.seed)
    plan = workloads.build_plan(args.workload, args.seed)

    reference = workloads.run_pass(plan)  # warm-up, untimed
    workloads.finish_pass(plan, reference)
    checker = Checker(reference)
    raw, walls = _timed_passes(plan, args.seconds, checker, cal)
    wall_s = statistics.median(walls)
    requests = sum(len(o.result.per_request_times) for o in reference if o.result)

    sim = sim_metrics(reference)
    checks_ok = sim["latency_pool"] >= MIN_LATENCY_POOL

    print(f"workload {args.workload}  seed {args.seed}  "
          f"scenario seeds {list(plan.seeds) or '-'}")
    print(f"  {len(reference)} runs, {requests} simulated requests per pass; "
          f"{len(walls)} timed passes")
    print("  raw s:        " + " ".join(f"{w:.3f}" for w in raw))
    print("  calibrated s: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  latency pool {int(sim['latency_pool'])} samples "
          f"(need {MIN_LATENCY_POOL})")

    if args.trace:
        import traced

        values, report = traced.traced_pass(plan, wall_s, checker, cal)
        traced.print_report(report)
        path = traced.write_report(
            os.path.join(HERE, "out"), args.workload, args.seed, report,
        )
        print(f"  per-layer report written to {os.path.relpath(path, ROOT)}")
    else:
        values = {
            "wall_s": wall_s,
            "throughput_req_per_s": requests / wall_s,
            "peak_mem_mb": _memory_pass(plan, checker),
            "setup_s": setup_s,
            **sim,
        }
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: (values[name], unit) for name, unit in declared_metrics(section)}

    failed = checker.failed
    for label in failed[:10]:
        print(f"  FAILED {label}: {checker.failures[label][0]}")
    failed_share = len(failed) / len(reference)
    print(f"  failed_share {failed_share:.6g}  ({len(failed)} of "
          f"{len(reference)} runs)")
    _print_table([(name, value, unit) for name, (value, unit) in metrics.items()])

    print(json.dumps({
        "correct": checks_ok and not failed,
        "attempted": len(reference),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
