"""repro.scenario — declarative scenarios: one file drives every harness.

A scenario is a strict, typed description of an experiment (cluster
shape, workload + tenant mix, arrival process, fault schedule, QoS /
straggler / run knobs) loadable from YAML or JSON.  The compiler
lowers it onto the engine's native objects, the runner executes it
with the scenario's baseline pairing, and the invariant engine asserts
the stack's conservation laws on every run and the pair's claim
(SLO floor, work conservation, tail cut) per scheme and seed.  The
chaos soak, the tenant-fairness comparison and the straggler tail are
library scenarios run through this one path.

Layering: this package sits at the experiment tier — it may import
``repro.core``, ``repro.faults``, ``repro.qos``; nothing below the
experiment tier may import it back.
"""

from repro.scenario.compile import (
    BASELINES,
    arrival_offsets,
    compile_faults,
    compile_qos,
    compile_retry,
    compile_workload,
    strip_guarantees,
    validate_scenario,
)
from repro.scenario.invariants import (
    INVARIANT_FAMILIES,
    Violation,
    check_baseline_claim,
    check_run,
    check_slo_floor,
)
from repro.scenario.library import (
    BUILTIN,
    get_scenario,
    list_scenarios,
    smoke_scenarios,
)
from repro.scenario.loader import (
    dump_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
)
from repro.scenario.runner import (
    ScenarioReport,
    ScenarioRun,
    ScenarioSeedResult,
    run_scenario,
)
from repro.scenario.schema import (
    Scenario,
    ScenarioError,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "loads_scenario",
    "dump_scenario",
    "dumps_scenario",
    "arrival_offsets",
    "compile_workload",
    "compile_qos",
    "compile_retry",
    "compile_faults",
    "strip_guarantees",
    "BASELINES",
    "validate_scenario",
    "Violation",
    "INVARIANT_FAMILIES",
    "check_run",
    "check_slo_floor",
    "check_baseline_claim",
    "BUILTIN",
    "get_scenario",
    "list_scenarios",
    "smoke_scenarios",
    "ScenarioRun",
    "ScenarioSeedResult",
    "ScenarioReport",
    "run_scenario",
]
