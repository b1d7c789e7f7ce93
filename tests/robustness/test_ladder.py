"""Degradation ladder: fall-through on failure, shared global budget."""

from __future__ import annotations

import pytest

from repro.core.algorithms import GreedyGEACC
from repro.exceptions import SolverFailedError
from repro.robustness import (
    DEFAULT_LADDER,
    Outcome,
    raise_on_failure,
    solve_with_ladder,
)

from tests.robustness.chaos import ChaosSolver, ExplodingSolver


def test_default_ladder_answers_on_a_healthy_instance(small_instance):
    # A short deadline: Prune-GEACC answers with its anytime best (at
    # least the Greedy seed) and no rung ever fails.
    result = solve_with_ladder(small_instance, timeout=0.2)
    assert result.ok
    assert result.solver == "prune"
    assert result.failures == ()


def test_first_rung_crash_falls_through_to_second(small_instance):
    ladder = (ExplodingSolver(RuntimeError("rung 1 died")), "greedy")
    result = solve_with_ladder(small_instance, ladder, timeout=30.0)
    assert result.ok
    assert result.solver == "greedy"
    assert len(result.failures) == 1
    assert result.failures[0].error_type == "RuntimeError"
    assert result.failures[0].transient


def test_mid_solve_crash_falls_through(small_instance):
    # A solver that checkpoints per node (the frontier heap, one per pop)
    # reaches its 5th checkpoint on this small instance.
    crash = ChaosSolver(
        GreedyGEACC(index_kind="chunked"), fail_at=5, error=OSError("disk gone")
    )
    ladder = (crash, "random-u")
    result = solve_with_ladder(small_instance, ladder, timeout=30.0)
    assert result.ok
    assert result.solver == "random-u"
    assert result.failures[0].error_type == "OSError"


def test_every_rung_failing_yields_structured_failure(small_instance):
    ladder = (
        ExplodingSolver(RuntimeError("one")),
        ExplodingSolver(ValueError("two")),
    )
    result = solve_with_ladder(small_instance, ladder, timeout=30.0)
    assert not result.ok
    assert result.outcome is Outcome.FAILED
    assert result.arrangement is None
    assert [f.message for f in result.failures] == ["one", "two"]

    with pytest.raises(SolverFailedError) as excinfo:
        raise_on_failure(result)
    assert excinfo.value.failures == result.failures


def test_exhausted_shared_budget_still_yields_feasible_answer(small_instance):
    # timeout=0: the deadline is gone before the first rung starts. The
    # ladder's contract is "always an answer": Prune's floor is its
    # (unbudgeted) Greedy warm-start seed, reported as feasible-timeout.
    result = solve_with_ladder(small_instance, DEFAULT_LADDER, timeout=0.0)
    assert result.ok
    assert result.outcome is Outcome.FEASIBLE_TIMEOUT
    assert result.solver == "prune"


def test_raise_on_failure_passes_successes_through(small_instance):
    result = solve_with_ladder(small_instance, ("greedy",), timeout=30.0)
    assert raise_on_failure(result) is result


def test_empty_ladder_rejected(small_instance):
    with pytest.raises(ValueError, match="ladder"):
        solve_with_ladder(small_instance, ())
