"""Tests for the online (incremental) arrangement extension."""

import numpy as np
import pytest

from repro.core.algorithms import GreedyGEACC, PruneGEACC
from repro.core.algorithms.incremental import OnlineGreedyGEACC, fill_user
from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from tests.conftest import random_matrix_instance


def test_feasible(small_instance):
    arrangement = OnlineGreedyGEACC().solve(small_instance)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() > 0


def test_streaming_api():
    sims = np.array([[0.9, 0.5], [0.7, 0.8]])
    instance = Instance.from_matrix(sims, np.array([1, 1]), np.array([1, 1]))
    arrangement = Arrangement(instance)
    assert fill_user(arrangement, 0) == [0]  # user 0 takes the 0.9 event
    assert fill_user(arrangement, 1) == [1]  # event 0 is full; user 1 gets 1
    assert arrangement.max_sum() == pytest.approx(0.9 + 0.8)


def test_double_arrival_rejected():
    instance = Instance.from_matrix(
        np.array([[0.5]]), np.array([1]), np.array([1])
    )
    with pytest.raises(ValueError, match="already arrived"):
        OnlineGreedyGEACC(arrival_order=[0, 0]).solve(instance)


def test_respects_conflicts():
    sims = np.array([[0.9], [0.8], [0.7]])
    conflicts = ConflictGraph(3, [(0, 1)])
    instance = Instance.from_matrix(
        sims, np.array([1, 1, 1]), np.array([3]), conflicts
    )
    # Best event first (0), then 1 is blocked by conflict, then 2.
    assert fill_user(Arrangement(instance), 0) == [0, 2]


def test_unusable_events_are_skipped():
    sims = np.array([[0.9], [0.8], [0.7]])
    instance = Instance.from_matrix(sims, np.array([1, 1, 1]), np.array([2]))
    usable = np.array([False, True, True])
    assert fill_user(Arrangement(instance), 0, usable=usable) == [1, 2]


def test_arrival_order_matters():
    """A bad arrival order can lose value vs a good one."""
    sims = np.array([[0.9, 0.89]])
    instance = Instance.from_matrix(sims, np.array([1]), np.array([1, 1]))
    forward = OnlineGreedyGEACC(arrival_order=[0, 1]).solve(instance)
    backward = OnlineGreedyGEACC(arrival_order=[1, 0]).solve(instance)
    assert forward.max_sum() == pytest.approx(0.9)
    assert backward.max_sum() == pytest.approx(0.89)


def test_never_beats_optimum():
    rng = np.random.default_rng(51)
    for _ in range(6):
        instance = random_matrix_instance(rng, 4, 6, max_cv=2, max_cu=2)
        online = OnlineGreedyGEACC().solve(instance)
        validate_arrangement(online)
        optimum = PruneGEACC().solve(instance).max_sum()
        assert online.max_sum() <= optimum + 1e-9


def test_typically_below_offline_greedy(medium_instance):
    online = OnlineGreedyGEACC().solve(medium_instance).max_sum()
    offline = GreedyGEACC().solve(medium_instance).max_sum()
    # Arrival order is adversarial to nobody; offline global greedy should
    # not lose to first-come-first-served on this seed.
    assert offline >= online * 0.95


def test_registered_in_solver_registry():
    from repro.core.algorithms import get_solver

    solver = get_solver("online-greedy")
    assert isinstance(solver, OnlineGreedyGEACC)
