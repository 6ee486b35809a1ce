"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q stackbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def _repro_files():
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_every_repro_module_maps_to_exactly_one_layer():
    assert len(set(layers.REPORT_LAYERS)) == len(layers.REPORT_LAYERS)
    resolve = layers.ModuleResolver(SRC)
    modules = [resolve(path) for path in _repro_files()]
    assert len(modules) > 100
    assert "repro" in modules and "repro.sim.engine" in modules
    for module in modules:
        assert layers.layer(module) in layers.REPORT_LAYERS, module


def test_layer_examples():
    assert layers.layer("repro.sim.engine") == "sim"
    assert layers.layer("repro.qos.tenancy") == "qos"
    # Harness submodules are re-homed by the architecture table.
    assert layers.layer("repro.qos.soak") == "experiment"
    assert layers.layer("repro.straggler.bench") == "experiment"
    assert layers.layer("repro.faults.injector") == "faults"
    assert layers.layer("repro.workload.generator") == "storage"
    assert layers.layer("repro.cli") == "app"
    assert layers.layer("json") == "other"
    assert layers.layer(None) == "other"
    assert set(layers.MEASURED_LAYERS) <= set(layers.REPORT_LAYERS)


def test_chaos_seeds_skip_unsafe_and_repeat():
    for seed in (0, 5, 97, 10_000):
        seeds = workloads.scenario_seeds("chaos-straggler", seed)
        assert len(seeds) == workloads.SEEDS_PER_RUN["chaos-straggler"]
        assert not set(seeds) & workloads.CHAOS_UNSAFE
        assert seeds == workloads.scenario_seeds("chaos-straggler", seed)
    assert workloads.scenario_seeds("tenant-contention", 3) == tuple(range(24, 32))


def test_dropping_an_unsafe_seed_only_moves_windows_that_reach_it(monkeypatch):
    n = workloads.SEEDS_PER_RUN["chaos-straggler"]
    seeds = range(workloads.CHAOS_SCREENED // n)
    before = {s: workloads.scenario_seeds("chaos-straggler", s) for s in seeds}
    monkeypatch.setattr(workloads, "CHAOS_UNSAFE", workloads.CHAOS_UNSAFE - {26})
    changed = [
        s for s in seeds
        if workloads.scenario_seeds("chaos-straggler", s) != before[s]
    ]
    assert changed == [0]


class _Checker:
    def __init__(self):
        self.failures = []

    def record(self, outcomes, name):
        self.failures.extend((o.label, f) for o in outcomes for f in o.failures)


def test_unseen_seed_is_clean_and_counts_repeat():
    plan = workloads.build_plan("chaos-straggler", 97)
    assert not set(plan.seeds) & set(range(8))
    plan.seeds = plan.seeds[:2]  # keep the test short
    counts = []
    for _ in range(2):
        checker = _Checker()
        values, _report = traced.traced_pass(
            plan, 1.0, checker, calibrate.Calibrator()
        )
        assert checker.failures == []
        # Every declared per-layer metric is produced.
        counts.append({
            name: values[name] for name, unit in run.declared_metrics("per_layer")
            if unit in ("count", "ratio") and name != "trace_overhead"
        })
    assert counts[0] == counts[1]
    assert counts[0]["straggler.orders"] > 0
    assert counts[0]["faults.events_applied"] > 0
