"""Per-layer attribution of a profiled pass.

The traced pass runs the workload under ``cProfile``.  Each profiled
function's self time goes to the layer of the module that defines it:
a ``repro`` module maps to its package name when the architecture
table in ``repro.lint.layers`` places it where its package sits, and
to that table's layer name otherwise, which is how harness submodules
such as ``repro.qos.soak`` leave the ``qos`` row.  Time in the stdlib
and in the benchmark's own files goes to ``other``.  C builtins have
no module, so their time goes to the layer of the function that called
them: a ``deque.popleft`` issued by the event loop is engine time.

Call counts of a few public entry points come from the same profile,
so no counter lives inside the program.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.layers import layer_of

#: Packages reported under their own name.
PACKAGE_LAYERS = (
    "sim", "obs", "cluster", "kernels", "pvfs", "core",
    "qos", "straggler", "faults", "scenario",
)

#: Every row the attribution can produce, in report order: the named
#: packages, then the architecture-table layers of the remaining
#: ``repro`` modules, then everything outside ``repro``.
REPORT_LAYERS = PACKAGE_LAYERS + (
    "machine", "storage", "experiment", "app", "other",
)

#: Layers that get a ``<layer>.self_s`` metric.
MEASURED_LAYERS = (
    "sim", "obs", "cluster", "pvfs", "core",
    "qos", "straggler", "faults", "other",
)

#: Profile key: (file name, first line, function name), as cProfile has it.
FuncKey = Tuple[str, int, str]

#: Counted entry points: metric name -> (module, function names).
#: cProfile records bare function names, so every function of that name
#: defined in that module counts (all ``transfer`` methods of the link
#: classes, say).
COUNTED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sim.events": ("repro.sim.scheduler", ("push",)),
    "sim.processes": ("repro.sim.process", ("__init__",)),
    "cluster.transfers": ("repro.cluster.network", ("transfer",)),
    "cluster.probes": ("repro.cluster.probe", ("probe",)),
    "pvfs.requests": ("repro.pvfs.server", ("submit",)),
    "core.ce_evaluations": ("repro.core.estimator", ("evaluate",)),
    "qos.screens": ("repro.qos.admission", ("screen",)),
    "qos.overflows": ("repro.qos.admission", ("_overflow",)),
    "qos.tenant_consumes": ("repro.qos.tenancy", ("try_consume",)),
    "straggler.orders": ("repro.straggler.dispatch", ("order",)),
}

#: Scenario-layer phases timed inclusively (cumulative profile time).
PHASES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "scenario.compile_s": ("repro.scenario.compile", (
        "compile_workload", "compile_qos", "compile_retry", "compile_faults",
    )),
    "scenario.invariants_s": ("repro.scenario.invariants", (
        "check_run", "check_slo_floor",
    )),
}


def layer(module: Optional[str]) -> str:
    """The report row for a dotted module name (None: not a module)."""
    if not module:
        return "other"
    placed = layer_of(module)
    if placed is None:
        return "other"
    parts = module.split(".")
    if len(parts) > 1 and parts[1] in PACKAGE_LAYERS:
        if layer_of(f"repro.{parts[1]}") == placed:
            return parts[1]
    return placed[1]


class ModuleResolver:
    """File name -> dotted module name, for files under one source root."""

    def __init__(self, src_root: str) -> None:
        self.src_root = os.path.realpath(src_root)
        self._cache: Dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        cached = self._cache.get(filename, "")
        if cached != "":
            return cached
        module: Optional[str] = None
        if filename.endswith(".py"):
            path = os.path.realpath(filename)
            rel = os.path.relpath(path, self.src_root)
            if not rel.startswith(".."):
                parts = rel[:-3].split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                module = ".".join(parts)
        self._cache[filename] = module
        return module


def is_builtin(key: FuncKey) -> bool:
    """cProfile files C functions under the pseudo file name ``~``."""
    return key[0] == "~"


def attribute(
    stats: Dict[FuncKey, tuple], resolve: ModuleResolver
) -> Dict[str, float]:
    """Self seconds per report layer from ``pstats.Stats(...).stats``."""
    layer_of_key: Dict[FuncKey, str] = {}

    def row(key: FuncKey) -> str:
        found = layer_of_key.get(key)
        if found is None:
            found = "other" if is_builtin(key) else layer(resolve(key[0]))
            layer_of_key[key] = found
        return found

    totals = {name: 0.0 for name in REPORT_LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if not is_builtin(key) or not callers:
            totals[row(key)] += tt
            continue
        # Split a builtin's self time across its callers' layers.
        for caller, caller_stats in callers.items():
            totals[row(caller)] += caller_stats[2]
    return totals


def _matching(
    stats: Dict[FuncKey, tuple],
    resolve: ModuleResolver,
    module: str,
    names: Iterable[str],
) -> List[tuple]:
    wanted = set(names)
    return [
        entry for key, entry in stats.items()
        if key[2] in wanted and resolve(key[0]) == module
    ]


def counts(stats: Dict[FuncKey, tuple], resolve: ModuleResolver) -> Dict[str, int]:
    """Total calls of each :data:`COUNTED` entry point."""
    return {
        metric: sum(entry[1] for entry in _matching(stats, resolve, module, names))
        for metric, (module, names) in COUNTED.items()
    }


def phases(stats: Dict[FuncKey, tuple], resolve: ModuleResolver) -> Dict[str, float]:
    """Inclusive seconds of each :data:`PHASES` group."""
    return {
        metric: sum(entry[3] for entry in _matching(stats, resolve, module, names))
        for metric, (module, names) in PHASES.items()
    }
