"""DOSAS core — the paper's contribution.

Components (paper Sec. III):

``model``
    The analytic cost model of Table II / Eq. 1–7: f(x), g(x), h(x),
    T_A, T_N, and the per-request x_i, y_i, z terms.
``scheduler``
    The 0/1 offload optimisation (Eq. 8): the paper's exhaustive
    matrix enumeration (Eq. 9–11), an exact branch-and-bound, an exact
    O(k²) threshold solver, and a naive greedy baseline.
``estimator``
    The Contention Estimator: probes CPU/derate/queue state and emits
    scheduling policies.  Static estimators (always-offload /
    never-offload) express the AS and TS baselines in the same
    machinery.
``runtime``
    The Active I/O Runtime (R): executes kernels on storage cores,
    demotes requests the policy rejects, interrupts and checkpoints
    running kernels on policy reversals.  It is the PVFS server's
    active handler, so a server with its runtime, that runtime's
    estimator and kernel registry is the Active Storage Server.
``asc``
    The Active Storage Client, which finishes demoted work on compute
    nodes.
``schemes`` / ``planrun``
    The one run driver (``build_system`` → client processes →
    ``drive`` → ``summarise``) and its two lowerings: ``run_scheme``
    for the paper's TS / AS / DOSAS batches behind every evaluation
    figure, ``run_plan`` for Figure 1's multi-application plans.
"""

from repro.core.model import CostModel, RequestCost, SchedulingInstance
from repro.core.scheduler import (
    BranchAndBoundScheduler,
    ExhaustiveScheduler,
    GreedyScheduler,
    Scheduler,
    SchedulerDecision,
    ThresholdScheduler,
    make_scheduler,
)
from repro.core.policy import Decision, SchedulingPolicy
from repro.core.estimator import (
    AlwaysOffloadEstimator,
    ContentionEstimator,
    DOSASEstimator,
    NeverOffloadEstimator,
)
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.core.asc import (
    ActiveReadOutcome,
    ActiveStorageClient,
    RetryExhausted,
    RetryPolicy,
)
from repro.core.schemes import (
    DEFAULT_SEED,
    RequestOutcome,
    Scheme,
    SchemeResult,
    WorkloadSpec,
    resolve_seed,
    run_scheme,
)
from repro.core.planrun import PlanResult, run_plan
from repro.core.advisor import Advisor, Prediction
from repro.core.estimators_ext import HysteresisDOSASEstimator

__all__ = [
    "DEFAULT_SEED",
    "ActiveIORuntime",
    "Advisor",
    "HysteresisDOSASEstimator",
    "Prediction",
    "ActiveReadOutcome",
    "ActiveStorageClient",
    "AlwaysOffloadEstimator",
    "BranchAndBoundScheduler",
    "ContentionEstimator",
    "CostModel",
    "DOSASEstimator",
    "Decision",
    "ExhaustiveScheduler",
    "GreedyScheduler",
    "NeverOffloadEstimator",
    "PlanResult",
    "RequestCost",
    "RequestOutcome",
    "RetryExhausted",
    "RetryPolicy",
    "RuntimeConfig",
    "Scheduler",
    "SchedulerDecision",
    "SchedulingInstance",
    "SchedulingPolicy",
    "Scheme",
    "SchemeResult",
    "ThresholdScheduler",
    "WorkloadSpec",
    "make_scheduler",
    "resolve_seed",
    "run_plan",
    "run_scheme",
]
