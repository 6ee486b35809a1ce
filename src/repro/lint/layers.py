"""Architecture gate (RPR5xx): declarative layering + import cycles.

The allowed dependency order is **declared here** and enforced
mechanically, mirroring the diagram in ``docs/architecture.md``: a
module may import from its own layer or any layer *below* it, never
above.  Back-edges that are intentionally deferred (imports inside a
function body) or typing-only (under ``if TYPE_CHECKING:``) are exempt
— deferring is exactly the sanctioned mechanism for a harness module
that drives higher layers lazily.

Layer membership is resolved by the longest matching module prefix, so
a package can live in one layer while a named harness submodule of it
lives higher (``repro.qos`` is pure policy; a harness module such as
``repro.qos.soak`` that drives ``repro.core`` belongs to the
experiment layer).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import FileContext, Finding, Rule, rule

__all__ = ["LAYERS", "layer_of", "UpwardImportRule", "ImportCycleRule"]

#: The layering table, lowest layer first.  Each entry is
#: ``(layer name, module prefixes)``.  A module belongs to the entry
#: with the *longest* matching prefix (exact match or prefix followed
#: by a dot), so specific submodules can be re-homed upward without
#: moving their package.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # The DES engine and its observability hooks are one foundation
    # layer: the engine carries a tracer field, and the windowed
    # latency histogram reuses the engine's percentile.
    ("foundation", ("repro.sim", "repro.obs")),
    # The machine model: nodes/CPUs/NICs and kernels.
    ("machine", ("repro.cluster", "repro.kernels")),
    # Pure policy packages: no upward imports by design — pvfs and
    # core consume them (docs/architecture.md).
    ("policy", ("repro.qos", "repro.straggler")),
    # The parallel file system substrate, plus workload synthesis —
    # an input *producer* (imports only the machine model) consumed by
    # core's plan runner; same rank as pvfs, neither imports the other.
    ("storage", ("repro.pvfs", "repro.workload")),
    # The paper's contribution (ASC/ASS/CE/R) and the MPI-IO surface.
    ("core", ("repro.core", "repro.mpiio")),
    # Experiment machinery that *drives* the stack: fault injection,
    # workloads, analysis, caching/parallel sweeps, declarative
    # scenarios.  The two policy-package harness prefixes match no
    # module today (their campaigns are library scenarios); they stay
    # because the per-layer benchmark (stackbench/layers.py) pins both
    # names to this layer.
    ("experiment", (
        "repro.faults", "repro.analysis",
        "repro.cache", "repro.parallel", "repro.scenario",
        "repro.qos.soak", "repro.straggler.bench",
    )),
    # Entry points and tooling; may import anything.
    ("app", ("repro.cli", "repro.lint", "repro.__main__", "repro")),
)

#: Prefixes that only match *exactly* (never as a package prefix) —
#: the bare distribution root would otherwise swallow every module.
_EXACT_ONLY = frozenset({"repro"})


def layer_of(module: str) -> Optional[Tuple[int, str]]:
    """``(layer index, layer name)`` for a module, or None if unmapped.

    Longest-prefix match over the table; unmapped modules (tests,
    fixtures, third-party) are unconstrained.
    """
    best: Optional[Tuple[int, str]] = None
    best_len = -1
    for index, (name, prefixes) in enumerate(LAYERS):
        for prefix in prefixes:
            if module == prefix or (
                prefix not in _EXACT_ONLY
                and module.startswith(prefix + ".")
            ):
                if len(prefix) > best_len:
                    best = (index, name)
                    best_len = len(prefix)
    return best


def _toplevel_graph(project: object) -> Dict[str, Set[str]]:
    """Module → imported project modules, top-level imports only."""
    graph: Dict[str, Set[str]] = {}
    modules = getattr(project, "modules", {})
    for name, summary in modules.items():
        deps: Set[str] = set()
        for edge in summary.imports:
            if edge.context != "toplevel":
                continue
            target = _resolve_to_project(edge.module, modules)
            if target is not None and target != name:
                deps.add(target)
        graph[name] = deps
    return graph


def _resolve_to_project(target: str, modules: Dict[str, object]) -> Optional[str]:
    """Map an imported dotted name onto a project module, if any.

    ``from repro.sim.engine import Environment`` records
    ``repro.sim.engine``; ``from repro.sim import engine`` records
    ``repro.sim`` — both resolve.  Names outside the project (stdlib,
    numpy) resolve to None.
    """
    if target in modules:
        return target
    # An ``import a.b.c`` where only ``a.b`` is a project module (c is
    # an attribute), or a package __init__ recorded without suffix.
    parts = target.split(".")
    while parts:
        parts.pop()
        candidate = ".".join(parts)
        if candidate in modules:
            return candidate
    return None


@rule
class UpwardImportRule(Rule):
    """RPR501 — import against the declared layering.

    A lower layer importing a higher one (``repro.sim`` importing
    ``repro.qos``, say) inverts the architecture: the engine would
    depend on policy built on top of it, and the next refactor turns
    the back-edge into an import cycle.  Either the dependency is
    wrong, or the importing module belongs in a higher layer — move it
    (or re-home it in the table in ``repro/lint/layers.py``), or defer
    the import into the function that needs it.
    """

    code = "RPR501"
    name = "upward-import"
    summary = "top-level import from a higher architecture layer"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.module is not None and layer_of(ctx.module) is not None

    def check(self, tree: ast.Module) -> None:
        project = self.ctx.project
        module = self.ctx.module
        if project is None or module is None:
            return
        own = layer_of(module)
        if own is None:
            return
        summary = project.modules.get(module)
        if summary is None:
            return
        for edge in summary.imports:
            if edge.context != "toplevel":
                continue
            target_layer = layer_of(edge.module)
            if target_layer is None:
                continue
            if target_layer[0] > own[0]:
                self.ctx.findings.append(
                    self._finding(edge, own[1], target_layer[1])
                )

    def _finding(self, edge: object, own_name: str, target_name: str) -> Finding:
        return Finding(
            path=self.ctx.path,
            line=edge.lineno,
            col=edge.col + 1,
            code=self.code,
            message=(
                f"'{self.ctx.module}' (layer {own_name}) imports "
                f"'{edge.module}' (layer {target_name}) — layers only "
                "import downward; defer the import into the using "
                "function or move the module up the table in "
                "repro/lint/layers.py"
            ),
        )


@rule
class ImportCycleRule(Rule):
    """RPR502 — module-level import cycle inside the project.

    Cycles make import order load-bearing: whichever module imports
    first sees a half-initialised partner, and the failure mode moves
    around with unrelated edits.  Break the cycle by deferring one
    edge into a function body or extracting the shared names into a
    lower module.  Typing-only back-references belong under
    ``if TYPE_CHECKING:``.
    """

    code = "RPR502"
    name = "import-cycle"
    summary = "top-level import cycle between project modules"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.module is not None and ctx.project is not None

    def check(self, tree: ast.Module) -> None:
        project = self.ctx.project
        module = self.ctx.module
        if project is None or module is None:
            return
        sccs = _cycles_of(project)
        members = sccs.get(module)
        if members is None:
            return
        summary = project.modules.get(module)
        if summary is None:
            return
        cycle = ", ".join(sorted(members))
        flagged: Set[str] = set()
        for edge in summary.imports:
            if edge.context != "toplevel":
                continue
            target = _resolve_to_project(edge.module, project.modules)
            if target in members and target != module and target not in flagged:
                flagged.add(target)
                self.ctx.findings.append(Finding(
                    path=self.ctx.path,
                    line=edge.lineno,
                    col=edge.col + 1,
                    code=self.code,
                    message=(
                        f"import of '{edge.module}' closes a module-level "
                        f"import cycle [{cycle}]; defer one edge into a "
                        "function body or extract the shared names downward"
                    ),
                ))


def _cycles_of(project: object) -> Dict[str, Set[str]]:
    """Module → its strongly-connected component, for SCCs of size > 1.

    Cached on the project object so the SCC computation runs once per
    lint invocation, not once per file.
    """
    cached = getattr(project, "_scc_cache", None)
    if cached is not None:
        return cached
    graph = _toplevel_graph(project)
    result: Dict[str, Set[str]] = {}
    for component in _tarjan(graph):
        if len(component) > 1:
            members = set(component)
            for member in component:
                result[member] = members
    # Self-loops (a module importing itself) are pathological but
    # possible through package __init__ re-imports; flag those too.
    for name, deps in graph.items():
        if name in deps and name not in result:
            result[name] = {name}
    project._scc_cache = result
    return result


def _tarjan(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC over a module graph (deterministic order)."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    components: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children: Sequence[str] = sorted(graph.get(node, ()))
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in graph:
                    continue
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                components.append(sorted(component))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
