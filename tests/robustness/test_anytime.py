"""Anytime semantics: budget-limited solves stay feasible, never raise.

The harness validates every arrangement it reports (``validate=True``),
so ``result.ok`` already certifies feasibility; the assertions below
therefore focus on the outcome taxonomy and the degradation floors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import GreedyGEACC
from repro.core.model import Instance
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.robustness import Budget, Outcome, run_with_budget

from tests.robustness.chaos import ChaosSolver

#: Every registered solver the anytime contract covers.
ALL_SOLVERS = (
    "greedy",
    "prune",
    "exhaustive",
    "mincostflow",
    "local-search",
    "fair-greedy",
    "online-greedy",
    "random-v",
    "random-u",
    "ilp",
)


@pytest.fixture(scope="module")
def fig6_scale_instance():
    """A Fig. 6-scale instance Prune-GEACC cannot finish in 50 ms."""
    config = SyntheticConfig(
        n_events=20, n_users=150, cv_high=10, cu_high=4, conflict_ratio=0.25
    )
    return generate_instance(config, seed=3)


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_tiny_node_budget_still_returns_feasible(small_instance, solver):
    result = run_with_budget(solver, small_instance, node_limit=3)
    assert result.ok, result
    assert result.outcome in (Outcome.OPTIMAL, Outcome.FEASIBLE_TIMEOUT)
    assert result.arrangement is not None


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_unbudgeted_run_reports_optimal_outcome(toy, solver):
    # The toy (Table I) instance: small enough that even the exact
    # enumerators complete instantly without a budget.
    result = run_with_budget(solver, toy)
    assert result.ok
    assert result.outcome is Outcome.OPTIMAL


def test_prune_under_50ms_deadline_matches_greedy_floor(fig6_scale_instance):
    # The acceptance criterion of the anytime harness: an exact solver
    # cut off after 50 ms must answer with at least its warm-start seed.
    seed_max_sum = GreedyGEACC().solve(fig6_scale_instance).max_sum()
    result = run_with_budget("prune", fig6_scale_instance, timeout=0.05)
    assert result.outcome is Outcome.FEASIBLE_TIMEOUT
    assert result.ok
    assert result.max_sum() >= seed_max_sum - 1e-9
    assert result.seconds < 5.0  # the deadline actually preempted the search


def test_deadline_preempts_the_greedy_matrix_scan():
    # 1.2M cells with room for thousands of acceptances: the scan cannot
    # finish in a millisecond, so the deadline must cut it (at a block's
    # probe or a pair's checkpoint) and the harness must still certify
    # the partial arrangement.
    rng = np.random.default_rng(11)
    instance = Instance.from_matrix(
        rng.random((120, 10_000)), np.full(120, 60), np.full(10_000, 3)
    )
    result = run_with_budget("greedy", instance, timeout=0.001)
    assert result.outcome is Outcome.FEASIBLE_TIMEOUT
    assert result.ok  # validated
    assert len(result.arrangement) < 120 * 60
    assert result.seconds < 0.5


def test_prune_node_limit_matches_greedy_floor(small_instance):
    seed_max_sum = GreedyGEACC().solve(small_instance).max_sum()
    result = run_with_budget("prune", small_instance, node_limit=10)
    assert result.ok
    assert result.max_sum() >= seed_max_sum - 1e-9


def test_stalling_solver_is_preempted_at_next_checkpoint(small_instance):
    # A mid-loop stall burns the whole deadline while no checkpoint can
    # run; the next checkpoint must preempt and the partial arrangement
    # must validate.
    # The frontier heap checkpoints once per pop; the matrix scan, once
    # per slice, may finish a small instance in fewer than three calls.
    chaos = ChaosSolver(
        GreedyGEACC(index_kind="chunked"), stall_at=3, stall_seconds=0.05
    )
    result = run_with_budget(chaos, small_instance, timeout=0.02)
    assert result.ok, result
    assert result.outcome is Outcome.FEASIBLE_TIMEOUT


def test_solver_raising_midway_reports_failure(small_instance):
    chaos = ChaosSolver(
        GreedyGEACC(index_kind="chunked"), fail_at=3, error=RuntimeError("cosmic ray")
    )
    result = run_with_budget(chaos, small_instance, timeout=10.0)
    assert not result.ok
    assert result.outcome is Outcome.FAILED
    assert result.arrangement is None
    assert result.failures[0].error_type == "RuntimeError"
    assert result.failures[0].transient


def test_shared_budget_is_single_use_across_calls(small_instance):
    budget = Budget(node_limit=5)
    first = run_with_budget("greedy", small_instance, budget=budget)
    assert first.outcome is Outcome.FEASIBLE_TIMEOUT
    # The same budget stays exhausted: a second solver only gets the
    # empty-arrangement floor, it cannot reset the meter.
    second = run_with_budget("greedy", small_instance, budget=budget)
    assert second.ok
    assert second.outcome is Outcome.FEASIBLE_TIMEOUT
    assert len(second.arrangement) == 0


def test_unknown_solver_name_fails_structurally(small_instance):
    result = run_with_budget("no-such-solver", small_instance)
    assert result.outcome is Outcome.FAILED
    assert result.failures
    assert not result.failures[0].transient
