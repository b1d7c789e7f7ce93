"""Regression tests against the paper's worked example (Table I).

The paper reports three concrete MaxSum values on this instance:
4.39 optimal, 4.13 for MinCostFlow-GEACC (Example 2), 4.28 for
Greedy-GEACC (Example 3). All three are reproduced exactly.
"""

import pytest

from repro.core.algorithms import (
    ExhaustiveGEACC,
    GreedyGEACC,
    MinCostFlowGEACC,
    PruneGEACC,
)
from repro.core.toy import (
    GREEDY_MAXSUM,
    MINCOSTFLOW_MAXSUM,
    OPTIMAL_MAXSUM,
    toy_instance,
)
from repro.core.validation import validate_arrangement
from tests.conftest import sspa_mincostflow


@pytest.fixture
def toy():
    return toy_instance()


def test_toy_statistics(toy):
    assert toy.n_events == 3
    assert toy.n_users == 5
    assert len(toy.conflicts) == 1
    assert toy.conflicts.are_conflicting(0, 2)
    assert toy.max_user_capacity == 3
    assert toy.delta_max() == 10  # min(sum c_v = 10, sum c_u = 10)


def test_optimal_maxsum_is_439(toy):
    arrangement = PruneGEACC().solve(toy)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() == pytest.approx(OPTIMAL_MAXSUM)


def test_exhaustive_matches_prune(toy):
    exact = ExhaustiveGEACC().solve(toy)
    assert exact.max_sum() == pytest.approx(OPTIMAL_MAXSUM)


def test_mincostflow_returns_413(toy):
    """Example 2: u1 keeps v1, drops v3; u5 keeps v3, drops v1."""
    arrangement = MinCostFlowGEACC().solve(toy)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() == pytest.approx(MINCOSTFLOW_MAXSUM)
    # The worked example's final pairs: u1 attends v1 but not v3.
    assert (0, 0) in arrangement
    assert (2, 0) not in arrangement


def test_mincostflow_generic_engine_agrees(toy):
    """The dense flow kernel agrees with the reference SSP on a network."""
    dense = MinCostFlowGEACC().solve(toy)
    generic = sspa_mincostflow(toy)
    assert dense.max_sum() == pytest.approx(generic.max_sum())


def test_mincostflow_full_sweep_agrees(toy):
    early = MinCostFlowGEACC().solve(toy)
    full = MinCostFlowGEACC(full_sweep=True).solve(toy)
    assert early.max_sum() == pytest.approx(full.max_sum())


def test_greedy_returns_428(toy):
    """Example 3's final arrangement has MaxSum 4.28."""
    arrangement = GreedyGEACC().solve(toy)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() == pytest.approx(GREEDY_MAXSUM)


def test_greedy_first_iteration_pair(toy):
    """Example 3: {v1, u1} (sim 0.93) is matched; {v3, u1} is blocked."""
    arrangement = GreedyGEACC().solve(toy)
    assert (0, 0) in arrangement
    assert (2, 0) not in arrangement


def test_approximation_guarantees_hold_on_toy(toy):
    alpha = toy.max_user_capacity
    greedy = GreedyGEACC().solve(toy).max_sum()
    mcf = MinCostFlowGEACC().solve(toy).max_sum()
    assert greedy >= OPTIMAL_MAXSUM / (1 + alpha)
    assert mcf >= OPTIMAL_MAXSUM / alpha


def test_relaxation_matches_figure_1b(toy):
    """The min-cost-flow relaxation M_0 of Example 2 / Fig. 1b:
    u1 is temporarily assigned both conflicting events v1 and v3."""
    from repro.core.algorithms import MinCostFlowGEACC

    pairs = set(MinCostFlowGEACC().solve_relaxation(toy))
    assert (0, 0) in pairs and (2, 0) in pairs        # u1 holds v1 AND v3
    assert (0, 4) in pairs and (2, 4) in pairs        # u5 holds v1 AND v3
    relaxed_sum = sum(toy.sim(v, u) for v, u in pairs)
    assert relaxed_sum == pytest.approx(5.64)         # MaxSum(M_0)
    # Corollary 1: the relaxation dominates the true optimum.
    assert relaxed_sum >= OPTIMAL_MAXSUM
