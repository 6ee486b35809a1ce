"""Solvers for the DOSAS 0/1 offload optimisation (paper Eq. 8–11).

The problem (in the generalised per-request-weight form, where
``w_i = d_i / C_{C,op_i}`` — identical to the paper's Eq. 4 when all
requests share one operation)::

    minimise   Σ_i [x_i a_i + y_i (1 - a_i)]  +  max_i w_i (1 - a_i)
    over       a ∈ {0, 1}^k

Four solvers:

``ExhaustiveScheduler``
    The paper's own method (Eq. 9–11): build the k×2^k matrix A of all
    assignments and evaluate ``X·A + Y·B + max(Z∘B)/C`` column-wise.
    Vectorised with numpy exactly as the paper writes it, and kept so:
    it is the paper's Eq. 9–11 verbatim.  Exponential — fine for the
    paper's k ≤ 64-situation grids but capped at k ≤ 20.
``BranchAndBoundScheduler``
    Exact solver standing in for the paper's "general constraint
    programming solver" remark, with admissible lower bounds.  Handles
    k in the hundreds.
``ThresholdScheduler``
    Exact O(k²) solver exploiting the objective's structure: condition
    on M = max demoted weight.  Given M, every request with w_i > M
    must be active and every other request independently picks
    min(x_i, y_i); scan all k+1 candidate M values.  The default in
    the DOSAS estimator, written in plain Python: a probed queue holds
    at most a few dozen requests, where building numpy arrays on every
    solve costs more than the scan itself.
``GreedyScheduler``
    Naive baseline ignoring the z term (a_i = [x_i < y_i]); used by the
    ablation bench to show why z matters.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.model import SchedulingInstance


@dataclass(frozen=True)
class SchedulerDecision:
    """Solver output.

    Attributes
    ----------
    assignment:
        a vector — ``assignment[i] == 1`` means execute the i-th
        request actively on the storage node.
    value:
        Objective value t of the assignment (Eq. 4).
    evaluations:
        How many assignments the solver examined (work metric for the
        ablation bench).
    """

    assignment: Tuple[int, ...]
    value: float
    evaluations: int = 0

    @property
    def n_active(self) -> int:
        """Requests kept active."""
        return int(sum(self.assignment))

    @property
    def n_demoted(self) -> int:
        """Requests demoted to normal I/O."""
        return len(self.assignment) - self.n_active


class Scheduler(abc.ABC):
    """Common solver interface."""

    #: Human-readable solver name for reports.
    name: str = "scheduler"

    @abc.abstractmethod
    def solve(self, instance: SchedulingInstance) -> SchedulerDecision:
        """Return the (approximately) optimal assignment for ``instance``."""

    def _empty(self) -> SchedulerDecision:
        return SchedulerDecision(assignment=(), value=0.0, evaluations=0)


class ExhaustiveScheduler(Scheduler):
    """The paper's matrix enumeration (Eq. 9–11), numpy-vectorised.

    Builds B (the complement matrix, b_ij = 1 - a_ij) and computes the
    1×m value vector ``X·A + Y·B + max(Z∘B)/C`` exactly as Eq. 10,
    then Eq. 11's argmin.
    """

    name = "exhaustive"

    def __init__(self, max_k: int = 20) -> None:
        if max_k < 1:
            raise ValueError("max_k must be >= 1")
        self.max_k = int(max_k)

    def solve(self, instance: SchedulingInstance) -> SchedulerDecision:
        k = instance.k
        if k == 0:
            return self._empty()
        if k > self.max_k:
            raise ValueError(
                f"exhaustive enumeration over 2^{k} assignments refused "
                f"(max_k={self.max_k}); use BranchAndBound or Threshold"
            )
        import numpy as np

        m = 1 << k
        # A[i, j] = bit i of column index j — every unique combination,
        # satisfying the paper's A_j ≠ A_p requirement by construction.
        columns = np.arange(m, dtype=np.uint64)
        A = ((columns[None, :] >> np.arange(k, dtype=np.uint64)[:, None]) & 1).astype(
            np.float64
        )
        B = 1.0 - A

        X = instance.x
        Y = instance.y
        W = instance.w

        serial = X @ A + Y @ B                       # Σ x_i a_ij + Σ y_i b_ij
        z_term = (W[:, None] * B).max(axis=0)        # max_i w_i b_ij
        values = serial + z_term                     # Eq. 10
        j = int(np.argmin(values))                   # Eq. 11
        assignment = tuple(int((j >> i) & 1) for i in range(k))
        return SchedulerDecision(
            assignment=assignment, value=float(values[j]), evaluations=m
        )


class ThresholdScheduler(Scheduler):
    """Exact polynomial solver conditioning on the max demoted weight.

    For every candidate M ∈ {0} ∪ {w_i}: any request with w_i > M must
    stay active (else it would exceed the assumed max); every request
    with w_i ≤ M independently picks min(x_i, y_i); the z term is M,
    charged only if some request of weight exactly M is demoted.  A
    candidate where none is skipped: a smaller candidate is never
    worse.
    """

    name = "threshold"

    def solve(self, instance: SchedulingInstance) -> SchedulerDecision:
        costs = instance.costs
        if not costs:
            return self._empty()
        xyw = [(c.x_i, c.y_i, c.w_i) for c in costs]
        w = [c.w_i for c in costs]

        best_value = float("inf")
        best_assignment: Optional[List[int]] = None
        evaluations = 0

        candidates = {0.0}
        candidates.update(w)
        for m_val in sorted(candidates):
            evaluations += 1
            if m_val == 0.0:
                # Nothing costly demoted (zero-weight requests free).
                a = [1 if wi != 0.0 or xi < yi else 0 for xi, yi, wi in xyw]
            else:
                # Eligible (w_i ≤ M) requests demote when y_i < x_i.
                a = [0 if wi <= m_val and yi < xi else 1 for xi, yi, wi in xyw]
                # Witness: some demoted request must have weight ==
                # m_val.  When none volunteers, forcing one down adds
                # y_f ≥ x_f and a z of M to the next lower candidate's
                # assignment, whose z is smaller; float addition is
                # monotone, so that candidate never wins.
                if all(a[i] for i, wi in enumerate(w) if wi == m_val):
                    continue
            # Re-evaluate exactly through the model (guards against any
            # bookkeeping slip and keeps the reported value canonical).
            exact = instance.value(a)
            if exact < best_value - 1e-15:
                best_value = exact
                best_assignment = a

        assert best_assignment is not None
        return SchedulerDecision(
            assignment=tuple(best_assignment),
            value=best_value,
            evaluations=evaluations,
        )


class BranchAndBoundScheduler(Scheduler):
    """Exact depth-first branch-and-bound.

    Requests are considered in descending size order so the z term's
    max resolves early.  Lower bound at a node: committed cost
    + Σ min(x_j, y_j) over undecided + the z already incurred.
    """

    name = "branch_and_bound"

    def solve(self, instance: SchedulingInstance) -> SchedulerDecision:
        k = instance.k
        if k == 0:
            return self._empty()
        import numpy as np

        order = np.argsort(-instance.w, kind="stable")
        w = instance.w[order]
        x = instance.x[order]
        y = instance.y[order]
        min_xy_suffix = np.concatenate(
            [np.cumsum(np.minimum(x, y)[::-1])[::-1], [0.0]]
        )

        best_value = float("inf")
        best_assignment: Optional[List[int]] = None
        evaluations = 0

        # Iterative DFS stack: (index, partial cost, z so far, partial assignment).
        stack: List[Tuple[int, float, float, List[int]]] = [(0, 0.0, 0.0, [])]
        while stack:
            i, cost, z_cur, partial = stack.pop()
            evaluations += 1
            bound = cost + float(min_xy_suffix[i]) + z_cur
            if bound >= best_value:
                continue
            if i == k:
                total = cost + z_cur
                if total < best_value:
                    best_value = total
                    best_assignment = partial
                continue
            # Branch a_i = 1 (active) — z unchanged.
            stack.append((i + 1, cost + float(x[i]), z_cur, partial + [1]))
            # Branch a_i = 0 (demote) — z becomes max(z, w_i); since
            # weights descend, only the first demotion changes z.
            stack.append(
                (i + 1, cost + float(y[i]), max(z_cur, float(w[i])), partial + [0])
            )

        assert best_assignment is not None
        # Undo the size ordering.
        assignment = [0] * k
        for pos, original in enumerate(order):
            assignment[int(original)] = best_assignment[pos]
        return SchedulerDecision(
            assignment=tuple(assignment), value=best_value, evaluations=evaluations
        )


class GreedyScheduler(Scheduler):
    """Per-request min(x_i, y_i), ignoring the z coupling (baseline)."""

    name = "greedy"

    def solve(self, instance: SchedulingInstance) -> SchedulerDecision:
        k = instance.k
        if k == 0:
            return self._empty()
        assignment = tuple(
            1 if c.x_i <= c.y_i else 0 for c in instance.costs
        )
        return SchedulerDecision(
            assignment=assignment,
            value=instance.value(assignment),
            evaluations=k,
        )


_REGISTRY: Dict[str, Callable[..., Scheduler]] = {
    "exhaustive": ExhaustiveScheduler,
    "threshold": ThresholdScheduler,
    "branch_and_bound": BranchAndBoundScheduler,
    "greedy": GreedyScheduler,
}


def make_scheduler(name: str, **kwargs: Any) -> Scheduler:
    """Scheduler factory by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
