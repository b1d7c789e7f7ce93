"""Tests for MinCostFlow-GEACC (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.algorithms import MinCostFlowGEACC, PruneGEACC
from repro.core.conflicts import ConflictGraph
from repro.core.model import Instance
from repro.core.validation import validate_arrangement
from tests.conftest import random_matrix_instance, sspa_mincostflow


def brute_force_relaxation_optimum(instance) -> float:
    """Optimal conflict-free MaxSum by exhaustive search (tiny only)."""
    relaxed = Instance.from_matrix(
        instance.sims,
        instance.event_capacities,
        instance.user_capacities,
        ConflictGraph.empty(instance.n_events),
    )
    return PruneGEACC().solve(relaxed).max_sum()


def test_feasible_on_small_instance(small_instance):
    arrangement = MinCostFlowGEACC().solve(small_instance)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() > 0


def test_relaxation_is_optimal_lemma1():
    """Lemma 1: M_0 is optimal for the conflict-free instance."""
    rng = np.random.default_rng(21)
    for _ in range(6):
        instance = random_matrix_instance(rng, 4, 6, max_cv=2, max_cu=2)
        pairs = MinCostFlowGEACC().solve_relaxation(instance)
        relaxed_maxsum = sum(instance.sim(v, u) for v, u in pairs)
        optimum = brute_force_relaxation_optimum(instance)
        assert relaxed_maxsum == pytest.approx(optimum, abs=1e-9)


def test_no_conflicts_gives_exact_optimum():
    """With CF empty, MinCostFlow-GEACC is exact (Fig. 5c at ratio 0)."""
    rng = np.random.default_rng(22)
    for _ in range(4):
        instance = random_matrix_instance(
            rng, 4, 6, max_cv=2, max_cu=2, conflict_ratio=0.0
        )
        result = MinCostFlowGEACC().solve(instance).max_sum()
        optimum = PruneGEACC().solve(instance).max_sum()
        assert result == pytest.approx(optimum, abs=1e-9)


def test_approximation_ratio_vs_exact():
    rng = np.random.default_rng(23)
    for _ in range(8):
        instance = random_matrix_instance(rng, 4, 7, max_cv=3, max_cu=3)
        result = MinCostFlowGEACC().solve(instance).max_sum()
        optimum = PruneGEACC().solve(instance).max_sum()
        alpha = instance.max_user_capacity
        assert result >= optimum / alpha - 1e-9


def test_engines_agree(small_instance):
    """The dense flow kernel agrees with the reference SSP on a network."""
    dense = MinCostFlowGEACC().solve(small_instance)
    generic = sspa_mincostflow(small_instance)
    assert dense.max_sum() == pytest.approx(generic.max_sum())


def test_full_sweep_agrees(small_instance):
    early = MinCostFlowGEACC().solve(small_instance)
    full = MinCostFlowGEACC(full_sweep=True).solve(small_instance)
    assert early.max_sum() == pytest.approx(full.max_sum())


def test_relaxation_excludes_zero_sim_pairs():
    sims = np.array([[0.0, 0.9], [0.8, 0.0]])
    instance = Instance.from_matrix(sims, np.array([1, 1]), np.array([1, 1]))
    pairs = MinCostFlowGEACC().solve_relaxation(instance)
    assert set(pairs) == {(0, 1), (1, 0)}


def test_conflict_resolution_keeps_best_event():
    """A user assigned two conflicting events keeps the more similar one."""
    sims = np.array([[0.9], [0.7]])
    instance = Instance.from_matrix(
        sims, np.array([1, 1]), np.array([2]), ConflictGraph(2, [(0, 1)])
    )
    arrangement = MinCostFlowGEACC().solve(instance)
    assert arrangement.pairs() == [(0, 0)]


def test_conflict_resolution_greedy_mwis():
    """Per-user selection is greedy: best event first, then compatibles."""
    # Events: 0 (0.9) conflicts with 1 (0.8) and 2 (0.7); 1 and 2 do not
    # conflict. Greedy keeps 0 alone (0.9) even though {1, 2} sums to 1.5.
    sims = np.array([[0.9], [0.8], [0.7]])
    conflicts = ConflictGraph(3, [(0, 1), (0, 2)])
    instance = Instance.from_matrix(
        sims, np.array([1, 1, 1]), np.array([3]), conflicts
    )
    arrangement = MinCostFlowGEACC().solve(instance)
    assert arrangement.pairs() == [(0, 0)]


def test_empty_instance():
    instance = Instance.from_matrix(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    arrangement = MinCostFlowGEACC().solve(instance)
    assert len(arrangement) == 0


def test_all_zero_similarities():
    instance = Instance.from_matrix(
        np.zeros((2, 3)), np.array([1, 1]), np.array([1, 1, 1])
    )
    arrangement = MinCostFlowGEACC().solve(instance)
    assert len(arrangement) == 0
