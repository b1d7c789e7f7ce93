"""Property-based tests of the paper's theorems on random tiny instances.

Each property is a theorem or lemma from the paper:

* every solver returns a feasible arrangement (Definition 5);
* Prune-GEACC == exhaustive search (exactness of pruning, Lemma 6);
* Greedy >= OPT / (1 + max c_u) (Theorem 3);
* MinCostFlow >= OPT / max c_u (Theorem 2);
* MinCostFlow is exact when CF is empty (Lemma 1);
* Greedy leaves no addable pair (Lemma 5).
"""

from hypothesis import given, settings

from repro.core.algorithms import (
    ExhaustiveGEACC,
    GreedyGEACC,
    LocalSearchGEACC,
    MinCostFlowGEACC,
    PruneGEACC,
    RandomU,
    RandomV,
)
from repro.core.conflicts import ConflictGraph
from repro.core.model import Instance
from repro.core.validation import validate_arrangement
from tests.conftest import sspa_relaxation
from tests.property.strategies import tiny_instances

SOLVER_FACTORIES = [
    GreedyGEACC,
    MinCostFlowGEACC,
    PruneGEACC,
    lambda: RandomV(seed=0),
    lambda: RandomU(seed=0),
    lambda: LocalSearchGEACC(base=RandomV(seed=0)),
]


@settings(max_examples=40, deadline=None)
@given(tiny_instances())
def test_all_solvers_feasible(instance):
    for factory in SOLVER_FACTORIES:
        arrangement = factory().solve(instance)
        validate_arrangement(arrangement)


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_prune_equals_exhaustive(instance):
    pruned = PruneGEACC().solve(instance).max_sum()
    exhaustive = ExhaustiveGEACC().solve(instance).max_sum()
    assert abs(pruned - exhaustive) < 1e-9


@settings(max_examples=40, deadline=None)
@given(tiny_instances())
def test_theorem3_greedy_ratio(instance):
    optimum = PruneGEACC().solve(instance).max_sum()
    greedy = GreedyGEACC().solve(instance).max_sum()
    alpha = instance.max_user_capacity
    assert greedy >= optimum / (1 + alpha) - 1e-9


@settings(max_examples=40, deadline=None)
@given(tiny_instances())
def test_theorem2_mincostflow_ratio(instance):
    optimum = PruneGEACC().solve(instance).max_sum()
    mcf = MinCostFlowGEACC().solve(instance).max_sum()
    alpha = instance.max_user_capacity
    assert mcf >= optimum / alpha - 1e-9


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_lemma1_mincostflow_exact_without_conflicts(instance):
    relaxed = Instance.from_matrix(
        instance.sims,
        instance.event_capacities,
        instance.user_capacities,
        ConflictGraph.empty(instance.n_events),
    )
    mcf = MinCostFlowGEACC().solve(relaxed).max_sum()
    optimum = PruneGEACC().solve(relaxed).max_sum()
    assert abs(mcf - optimum) < 1e-9


@settings(max_examples=40, deadline=None)
@given(tiny_instances())
def test_lemma5_greedy_maximal(instance):
    arrangement = GreedyGEACC().solve(instance)
    for v in range(instance.n_events):
        for u in range(instance.n_users):
            if instance.sim(v, u) > 0 and (v, u) not in arrangement:
                assert not arrangement.can_add(v, u)


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_optimum_dominates_every_solver(instance):
    optimum = PruneGEACC().solve(instance).max_sum()
    for factory in SOLVER_FACTORIES:
        assert factory().solve(instance).max_sum() <= optimum + 1e-9


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_local_search_monotone_improvement(instance):
    base = RandomV(seed=1)
    baseline = base.solve(instance).max_sum()
    improved = LocalSearchGEACC(base=base).solve(instance).max_sum()
    assert improved >= baseline - 1e-12


@settings(max_examples=25, deadline=None)
@given(tiny_instances())
def test_mincostflow_engines_find_equally_good_relaxations(instance):
    """The dense kernel and the reference SSP both solve the relaxation
    optimally (Lemma 1), so their relaxed MaxSums agree even when the
    matchings themselves differ."""
    dense_pairs = MinCostFlowGEACC().solve_relaxation(instance)
    generic_pairs = sspa_relaxation(instance)
    dense_sum = sum(instance.sim(v, u) for v, u in dense_pairs)
    generic_sum = sum(instance.sim(v, u) for v, u in generic_pairs)
    assert abs(dense_sum - generic_sum) < 1e-9
