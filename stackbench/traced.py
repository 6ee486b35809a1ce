"""The traced pass: one profiled pass and the per-layer numbers it gives.

Self time per layer and entry-point call counts come from ``cProfile``
(see ``layers.py``); outcome counters (demotions, retries, hedges,
refusals, applied faults) come from the runs' ``SchemeResult`` fields;
queue depth and compactions come from the event schedulers the pass
created.  All counts are deterministic per seed.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import os
import pstats
import time
from typing import Any, Dict, Iterator, List, Tuple

import repro.sim.engine as sim_engine

import calibrate
import layers
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Server counters that mean "refused at intake".
REFUSALS = ("requests_rejected", "requests_overloaded", "deadline_rejected")


@contextlib.contextmanager
def _capturing_schedulers(sink: List[Any]) -> Iterator[None]:
    """Keep every event scheduler the pass creates, for its queue stats."""
    original = sim_engine.make_event_scheduler

    def capturing(name: str, env: Any) -> Any:
        scheduler = original(name, env)
        sink.append(scheduler)
        return scheduler

    sim_engine.make_event_scheduler = capturing
    try:
        yield
    finally:
        sim_engine.make_event_scheduler = original


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there was nothing to divide."""
    return numerator / denominator if denominator else 0.0


def outcome_counters(outcomes: List[Any]) -> Dict[str, float]:
    """Counters read from the runs' results (baselines included)."""
    results = [o.result for o in outcomes if o.result is not None]

    def total(get: Any) -> float:
        return sum(get(r) for r in results)

    issued = total(lambda r: r.hedges_issued)
    return {
        "pvfs.refused": total(lambda r: sum(
            int(m.get(name, 0)) for m in r.server_metrics for name in REFUSALS
        )),
        "core.policy_refreshes": total(lambda r: len(r.policy_values)),
        "core.served_active": total(lambda r: r.served_active),
        "core.demoted": total(lambda r: r.demoted),
        "core.interrupted": total(lambda r: r.interrupted),
        "core.retries": total(lambda r: r.retries),
        "qos.shed": total(lambda r: r.qos_stats["requests_shed"]
                          + r.qos_stats["requests_shed_queued"]),
        "straggler.hedges_issued": issued,
        "straggler.hedge_win_ratio": _ratio(total(lambda r: r.hedges_won), issued),
        "faults.events_applied": total(lambda r: len(r.fault_log)),
    }


def traced_pass(
    plan: workloads.Plan,
    untraced_wall: float,
    checker: Any,
    cal: calibrate.Calibrator,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Profile one pass; return the per-layer values and the report.

    ``untraced_wall`` is the calibrated median of the timed passes; the
    traced pass is calibrated the same way, and self times are scaled
    to match, so they sum to the traced wall at nominal speed.
    """
    schedulers: List[Any] = []
    profiler = cProfile.Profile()
    gc.collect()
    with _capturing_schedulers(schedulers):
        before = cal.sample()
        start = time.perf_counter()
        profiler.enable()
        outcomes = workloads.run_pass(plan)
        profiler.disable()
        elapsed = time.perf_counter() - start
    traced_wall = calibrate.calibrated(elapsed, before + cal.sample())
    workloads.finish_pass(plan, outcomes)
    checker.record(outcomes, "traced pass")

    stats = pstats.Stats(profiler).stats
    resolve = layers.ModuleResolver(SRC)
    scale = traced_wall / elapsed
    self_s = {
        name: seconds * scale
        for name, seconds in layers.attribute(stats, resolve).items()
    }
    calls = layers.counts(stats, resolve)
    values: Dict[str, float] = {
        f"{name}.self_s": self_s[name] for name in layers.MEASURED_LAYERS
    }
    values.update(calls)
    values.update(
        (name, seconds * scale)
        for name, seconds in layers.phases(stats, resolve).items()
    )
    values.update(outcome_counters(outcomes))
    values["sim.events_per_s"] = calls["sim.events"] / untraced_wall
    values["sim.max_queue_depth"] = max(s.max_depth for s in schedulers)
    values["sim.compactions"] = sum(s.compactions for s in schedulers)
    values["pvfs.pieces_per_read"] = _ratio(
        calls["pvfs.requests"], sum(o.requests for o in outcomes)
    )
    values["qos.admit_ratio"] = _ratio(
        calls["qos.screens"] - calls["qos.overflows"], calls["qos.screens"]
    )
    values["trace_overhead"] = traced_wall / untraced_wall - 1.0

    accounted = sum(self_s.values())
    rows = []
    for name in layers.REPORT_LAYERS:
        layer_calls = {
            metric: count for metric, count in calls.items()
            if metric.split(".")[0] == name
        }
        if self_s[name] or layer_calls:
            rows.append({
                "layer": name,
                "self_s": self_s[name],
                "share": self_s[name] / traced_wall,
                "calls": layer_calls,
            })
    report = {
        "workload": plan.workload,
        "scenario_seeds": list(plan.seeds),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "trace_overhead": values["trace_overhead"],
        "accounted_s": accounted,
        "accounted_share": accounted / traced_wall,
        "top_layer": max(rows, key=lambda r: r["self_s"])["layer"],
        "layers": sorted(rows, key=lambda r: -r["self_s"]),
        "metrics": values,
    }
    return values, report


def print_report(report: Dict[str, Any]) -> None:
    """The per-layer table: self time, share of traced wall, call counts."""
    print(f"  traced pass {report['traced_wall_s']:.3f} s vs untraced "
          f"{report['untraced_wall_s']:.3f} s (overhead "
          f"{report['trace_overhead']:.1%}); layers account for "
          f"{report['accounted_share']:.1%} of traced wall")
    print(f"  {'layer':<11} {'self_s':>9} {'share':>7}  calls")
    for row in report["layers"]:
        calls = ", ".join(f"{k.split('.', 1)[1]}={v}" for k, v in row["calls"].items())
        print(f"  {row['layer']:<11} {row['self_s']:>9.4f} {row['share']:>7.1%}  {calls}")


def write_report(directory: str, workload: str, seed: int, report: Dict[str, Any]) -> str:
    """Write the report as JSON; return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}-layers.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
