"""The 0/1 offload solvers: correctness, optimality, equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import CostModel, RequestCost, SchedulingInstance
from repro.core.scheduler import (
    BranchAndBoundScheduler,
    ExhaustiveScheduler,
    GreedyScheduler,
    SchedulerDecision,
    ThresholdScheduler,
    make_scheduler,
)
from repro.kernels.costs import MB, make_paper_model

BW = 118 * MB


def gauss_instance(sizes, c_factor=1.0, s_factor=1.0):
    k = make_paper_model("gaussian2d")
    model = CostModel(
        kernel=k,
        storage_capability=k.rate * s_factor,
        compute_capability=k.rate * c_factor,
        bandwidth=BW,
    )
    return SchedulingInstance.from_sizes(model, sizes)


EXACT_SOLVERS = [ExhaustiveScheduler, ThresholdScheduler, BranchAndBoundScheduler]


class TestEmptyAndTrivial:
    @pytest.mark.parametrize("solver_cls", EXACT_SOLVERS + [GreedyScheduler])
    def test_empty_instance(self, solver_cls):
        d = solver_cls().solve(gauss_instance([]))
        assert d.assignment == () and d.value == 0.0

    @pytest.mark.parametrize("solver_cls", EXACT_SOLVERS)
    def test_single_request_picks_cheaper(self, solver_cls):
        inst = gauss_instance([128 * MB])
        d = solver_cls().solve(inst)
        # x = 1.6 + eps; y + z = 1.085 + 1.6 = 2.68 → active wins at k=1
        assert d.assignment == (1,)
        assert d.value == pytest.approx(inst.value([1]))


class TestPaperDecisions:
    """Homogeneous queues must flip at the paper's crossover."""

    @pytest.mark.parametrize("solver_cls", EXACT_SOLVERS)
    @pytest.mark.parametrize("k,expect_active", [
        (1, True), (2, True), (3, True),
        (4, False), (8, False), (64, False),
    ])
    def test_gaussian_flip_at_four(self, solver_cls, k, expect_active):
        solver = solver_cls(max_k=20) if solver_cls is ExhaustiveScheduler and k > 20 else solver_cls()
        if solver_cls is ExhaustiveScheduler and k > 20:
            pytest.skip("exhaustive capped")
        d = solver.solve(gauss_instance([128 * MB] * k))
        majority_active = d.n_active * 2 > k
        assert majority_active == expect_active

    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    def test_sum_always_active(self, k):
        km = make_paper_model("sum")
        model = CostModel(kernel=km, storage_capability=km.rate,
                          compute_capability=km.rate, bandwidth=BW)
        inst = SchedulingInstance.from_sizes(model, [128 * MB] * k)
        d = ThresholdScheduler().solve(inst)
        assert d.n_active == k


class TestExhaustive:
    def test_matches_brute_force_python(self):
        """Independent re-implementation as oracle."""
        inst = gauss_instance([100 * MB, 30 * MB, 260 * MB, 5 * MB])
        d = ExhaustiveScheduler().solve(inst)
        best = min(
            (inst.value([(j >> i) & 1 for i in range(4)]), j)
            for j in range(16)
        )
        assert d.value == pytest.approx(best[0])

    def test_refuses_large_k(self):
        with pytest.raises(ValueError, match="refused"):
            ExhaustiveScheduler(max_k=4).solve(gauss_instance([MB] * 5))

    def test_evaluations_counted(self):
        d = ExhaustiveScheduler().solve(gauss_instance([MB] * 6))
        assert d.evaluations == 64


class TestGreedy:
    def test_ignores_z_coupling(self):
        """Greedy demotes whenever y < x even though the z term makes
        a single demotion expensive — exact solvers know better."""
        inst = gauss_instance([128 * MB] * 2)
        greedy = GreedyScheduler().solve(inst)
        exact = ThresholdScheduler().solve(inst)
        # y (1.08) < x (1.6): greedy demotes both, paying z once.
        assert greedy.assignment == (0, 0)
        # k=2 is below the crossover: exact keeps them active.
        assert exact.assignment == (1, 1)
        assert exact.value <= greedy.value

    def test_never_beats_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sizes = rng.integers(1, 1024, size=rng.integers(1, 8)) * MB
            inst = gauss_instance([float(s) for s in sizes])
            g = GreedyScheduler().solve(inst)
            e = ExhaustiveScheduler().solve(inst)
            assert e.value <= g.value + 1e-9


class TestDecisionRecord:
    def test_counts(self):
        d = ThresholdScheduler().solve(gauss_instance([128 * MB] * 8))
        assert d.n_active + d.n_demoted == 8

    def test_factory(self):
        assert isinstance(make_scheduler("greedy"), GreedyScheduler)
        assert isinstance(make_scheduler("exhaustive", max_k=10), ExhaustiveScheduler)
        with pytest.raises(ValueError):
            make_scheduler("nope")


# --------------------------------------------------------------- properties
size_lists = st.lists(
    st.floats(min_value=1.0, max_value=2e9, allow_nan=False),
    min_size=1, max_size=10,
)


@given(
    sizes=size_lists,
    c_factor=st.floats(min_value=0.1, max_value=10),
    s_factor=st.floats(min_value=0.1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_exact_solvers_agree(sizes, c_factor, s_factor):
    """Exhaustive, threshold and B&B find the same optimum value."""
    inst = gauss_instance(sizes, c_factor=c_factor, s_factor=s_factor)
    values = [cls().solve(inst).value for cls in EXACT_SOLVERS]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)


@given(sizes=size_lists)
@settings(max_examples=60, deadline=None)
def test_reported_value_matches_assignment(sizes):
    """Every solver's reported value equals re-evaluating its assignment."""
    inst = gauss_instance(sizes)
    for cls in EXACT_SOLVERS + [GreedyScheduler]:
        d = cls().solve(inst)
        assert d.value == pytest.approx(inst.value(list(d.assignment)))


@given(sizes=size_lists)
@settings(max_examples=60, deadline=None)
def test_optimum_no_better_than_pure_strategies(sizes):
    """The optimum is ≤ both all-active and all-normal."""
    inst = gauss_instance(sizes)
    d = ThresholdScheduler().solve(inst)
    k = inst.k
    assert d.value <= inst.value([1] * k) + 1e-9
    assert d.value <= inst.value([0] * k) + 1e-9


@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=2e9, allow_nan=False),
                   min_size=11, max_size=40),
)
@settings(max_examples=25, deadline=None)
def test_bnb_threshold_agree_beyond_exhaustive_range(sizes):
    """For k too large to enumerate, B&B and threshold still agree."""
    inst = gauss_instance(sizes)
    a = BranchAndBoundScheduler().solve(inst)
    b = ThresholdScheduler().solve(inst)
    assert a.value == pytest.approx(b.value, rel=1e-12)


# ------------------------------------------------- numpy threshold reference
def reference_threshold_solve(instance):
    """The numpy ``ThresholdScheduler.solve`` the plain-Python one replaced.

    Kept verbatim as the oracle for the rules the rewrite must keep: a
    request with w_i <= M is eligible, an eligible one demotes when
    y_i < x_i, the forced witness is ``np.argmax``'s first maximal
    regret, and a candidate replaces the best only when it is lower by
    more than 1e-15.
    """
    k = instance.k
    if k == 0:
        return SchedulerDecision(assignment=(), value=0.0, evaluations=0)
    w = instance.w
    x = instance.x
    y = instance.y

    best_value = float("inf")
    best_assignment = None
    evaluations = 0

    candidates = {0.0}
    candidates.update(float(v) for v in w)
    for m_val in sorted(candidates):
        evaluations += 1
        a = np.ones(k, dtype=np.int64)
        if m_val == 0.0:
            free = w == 0.0
            a[free] = (x[free] < y[free]).astype(np.int64)
        else:
            must_active = w > m_val
            eligible = ~must_active
            choose_demote = y < x
            a[eligible & choose_demote] = 0
            witnesses = eligible & (w == m_val)
            if not witnesses.any():
                continue
            if not (witnesses & (a == 0)).any():
                idx = np.flatnonzero(witnesses)
                regret = x[idx] - y[idx]
                pick = idx[int(np.argmax(regret))]
                a[pick] = 0
        exact = instance.value([int(v) for v in a])
        if exact < best_value - 1e-15:
            best_value = exact
            best_assignment = a.copy()

    assert best_assignment is not None
    return SchedulerDecision(
        assignment=tuple(int(v) for v in best_assignment),
        value=best_value,
        evaluations=evaluations,
    )


#: Few distinct values, so weights repeat, some are zero, and x_i = y_i
#: and equal regrets are common.
TIE_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])


@st.composite
def tie_heavy_instances(draw):
    costs = []
    for rid in range(draw(st.integers(min_value=1, max_value=12))):
        x = draw(TIE_VALUES)
        y = draw(st.one_of(st.just(x), TIE_VALUES))
        costs.append(
            RequestCost(rid=rid, d_i=1.0, x_i=x, y_i=y, w_i=draw(TIE_VALUES))
        )
    return SchedulingInstance.from_costs(costs)


@given(instance=tie_heavy_instances())
@settings(max_examples=300, deadline=None)
def test_threshold_matches_numpy_reference_on_ties(instance):
    """Same assignment, value and evaluations, ties included."""
    assert ThresholdScheduler().solve(instance) == (
        reference_threshold_solve(instance)
    )


@given(
    sizes=st.lists(
        st.sampled_from([4 * MB, 128 * MB, 256 * MB, 1024 * MB]),
        min_size=1, max_size=64,
    ),
    c_factor=st.floats(min_value=0.1, max_value=10),
    s_factor=st.floats(min_value=0.1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_threshold_matches_numpy_reference_on_queues(sizes, c_factor, s_factor):
    """Probed-queue shapes: up to 64 requests of a few sizes."""
    inst = gauss_instance(sizes, c_factor=c_factor, s_factor=s_factor)
    assert ThresholdScheduler().solve(inst) == reference_threshold_solve(inst)
