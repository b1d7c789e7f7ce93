"""Tests for arrangement validation (Definition 5 constraints)."""

import numpy as np
import pytest

from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.validation import is_feasible, validate_arrangement
from repro.exceptions import InfeasibleArrangementError


@pytest.fixture
def instance():
    sims = np.array([[0.9, 0.0, 0.5], [0.4, 0.6, 0.7]])
    return Instance.from_matrix(
        sims, np.array([1, 2]), np.array([2, 1, 1]), ConflictGraph(2, [(0, 1)])
    )


def test_empty_arrangement_is_feasible(instance):
    validate_arrangement(Arrangement(instance))
    assert is_feasible(Arrangement(instance))


def test_valid_arrangement_passes(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 0)
    arrangement.add(1, 1)
    validate_arrangement(arrangement)


def test_zero_similarity_pair_rejected(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 1)  # sim == 0
    with pytest.raises(InfeasibleArrangementError, match="sim"):
        validate_arrangement(arrangement)
    assert not is_feasible(arrangement)


def test_event_capacity_violation_detected(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 0)
    # add() trusts its caller: no guard stops a second seat on event 0.
    arrangement.add(0, 2)
    with pytest.raises(InfeasibleArrangementError, match="event 0"):
        validate_arrangement(arrangement)


def test_user_capacity_violation_detected(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 2)
    arrangement.add(1, 2)
    # User 2 has capacity 1 but two events (also conflicting pair).
    with pytest.raises(InfeasibleArrangementError):
        validate_arrangement(arrangement)


def test_conflict_violation_detected(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 0)
    arrangement.add(1, 0)  # events 0 and 1 conflict; user 0 has capacity 2
    with pytest.raises(InfeasibleArrangementError, match="conflicting"):
        validate_arrangement(arrangement)


def test_validate_with_explicit_instance(instance):
    arrangement = Arrangement(instance)
    arrangement.add(0, 0)
    stricter = Instance.from_matrix(
        instance.sims, np.array([0, 2]), instance.user_capacities, instance.conflicts
    )
    with pytest.raises(InfeasibleArrangementError):
        validate_arrangement(arrangement, stricter)
