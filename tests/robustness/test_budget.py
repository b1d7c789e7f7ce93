"""Budget mechanics: node limits, monotonic deadlines, exhaustion state."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import BudgetExceededError, NNIndexError
from repro.robustness import Budget


class TestNodeLimit:
    def test_raises_after_limit(self):
        budget = Budget(node_limit=3)
        for _ in range(3):
            budget.checkpoint()
        with pytest.raises(BudgetExceededError, match="node budget"):
            budget.checkpoint()
        assert budget.exhausted
        assert budget.nodes == 4

    def test_keeps_raising_once_exhausted(self):
        budget = Budget(node_limit=0)
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()

    def test_weight_counts_as_many_nodes(self):
        budget = Budget(node_limit=10)
        budget.checkpoint(weight=10)
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()

    def test_remaining_nodes_clamped(self):
        budget = Budget(node_limit=2)
        assert budget.remaining_nodes() == 2
        budget.checkpoint()
        assert budget.remaining_nodes() == 1
        assert budget.remaining_seconds() is None


class TestDeadline:
    def test_zero_deadline_fires_on_first_checkpoint(self):
        budget = Budget(deadline=0.0)
        with pytest.raises(BudgetExceededError, match="deadline"):
            budget.checkpoint()
        assert budget.exhausted
        assert "deadline" in budget.exhausted_reason

    def test_clock_stride_delays_detection_but_not_forever(self):
        budget = Budget(deadline=0.0, clock_stride=4)
        budget.start()
        # Node 1 always consults the clock, so a zero deadline cannot
        # slip through even with a large stride.
        with pytest.raises(BudgetExceededError):
            budget.checkpoint()

    def test_weighted_checkpoints_always_read_the_clock(self):
        # Two unit nodes, then the deadline passes. Every later call has
        # a weight other than 1 and none lands on a stride multiple, yet
        # the first of them must fire: a zero-weight probe ...
        budget = Budget(deadline=0.001).start()
        budget.checkpoint()
        budget.checkpoint()
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError, match="deadline"):
            budget.checkpoint(weight=0)
        assert budget.nodes == 2
        # ... and, on a fresh budget, the first weighted slice.
        budget = Budget(deadline=0.001).start()
        budget.checkpoint()
        budget.checkpoint()
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError, match="deadline"):
            budget.checkpoint(weight=40)
        assert budget.nodes == 42

    def test_generous_deadline_does_not_fire(self):
        budget = Budget(deadline=60.0)
        for _ in range(100):
            budget.checkpoint()
        assert not budget.exhausted
        assert budget.remaining_seconds() > 0

    def test_start_is_idempotent(self):
        budget = Budget(deadline=60.0).start()
        anchor = budget._started_at
        budget.start()
        assert budget._started_at == anchor


class TestProbesAndMarks:
    def test_expired_probe_does_not_raise(self):
        budget = Budget(node_limit=1)
        assert not budget.expired()
        budget.checkpoint()
        assert budget.expired()
        assert not budget.exhausted  # probe alone never flips the state

    def test_mark_exhausted_records_first_reason(self):
        budget = Budget()
        budget.mark_exhausted("engine timeout")
        budget.mark_exhausted("second reason ignored")
        assert budget.exhausted_reason == "engine timeout"
        with pytest.raises(BudgetExceededError, match="engine timeout"):
            budget.checkpoint()

    def test_unlimited_budget_never_expires(self):
        budget = Budget()
        for _ in range(1000):
            budget.checkpoint()
        assert not budget.expired()
        assert budget.remaining_seconds() is None
        assert budget.remaining_nodes() is None

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)
        with pytest.raises(ValueError):
            Budget(node_limit=-1)
        with pytest.raises(ValueError):
            Budget(clock_stride=0)


def test_nn_index_error_deprecated_alias_removed():
    # PR 2 renamed IndexError_ (shadow-prone) to NNIndexError and kept a
    # one-release compatibility alias; PR 5 removed it. Catching the new
    # name must work, resolving the old one must not.
    import repro.exceptions

    assert issubclass(NNIndexError, repro.exceptions.ReproError)
    assert not hasattr(repro.exceptions, "IndexError_")
