"""Tests for the dynamic-EBSN simulator (first-come-first-served and rebatch)."""

import numpy as np
import pytest

from repro.core.algorithms import GreedyGEACC
from repro.core.algorithms.incremental import fill_user
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import ReproError
from repro.simulation import ARRIVE, FREEZE, POST, Timeline, random_timeline, simulate
from repro.simulation.simulator import _open_subproblem


def tiny_instance():
    sims = np.array([[0.9, 0.6], [0.8, 0.7]])
    return Instance.from_matrix(sims, np.array([1, 1]), np.array([1, 1]))


def make_timeline(post, start, arrive):
    return Timeline(
        post_times=np.asarray(post, dtype=float),
        start_times=np.asarray(start, dtype=float),
        arrival_times=np.asarray(arrive, dtype=float),
    )


class TestTimeline:
    def test_validation(self):
        with pytest.raises(ReproError, match="after it is posted"):
            make_timeline([0.0], [0.0], [0.0])
        with pytest.raises(ReproError, match="align"):
            Timeline(np.zeros(2), np.ones(3), np.zeros(1))

    def test_horizon(self):
        timeline = make_timeline([0, 1], [5, 3], [7, 2])
        assert timeline.horizon == 7

    def test_moments_order_posts_then_arrivals_then_freezes(self):
        # Everything at t=5 ties: posts first, then arrivals, then
        # freezes, each by index.
        timeline = make_timeline([5, 0], [9, 5], [5, 5, 2])
        assert timeline.moments() == [
            (0.0, POST, 1),
            (2.0, ARRIVE, 2),
            (5.0, POST, 0),
            (5.0, ARRIVE, 0),
            (5.0, ARRIVE, 1),
            (5.0, FREEZE, 1),
            (9.0, FREEZE, 0),
        ]

    def test_validate_against_instance(self):
        timeline = make_timeline([0], [1], [0, 0])
        with pytest.raises(ReproError, match="events"):
            timeline.validate_against(tiny_instance())

    def test_random_timeline_shapes(self):
        instance = tiny_instance()
        timeline = random_timeline(instance, np.random.default_rng(0))
        timeline.validate_against(instance)
        assert np.all(timeline.start_times > timeline.post_times)

    def test_random_timeline_bad_horizon(self):
        with pytest.raises(ReproError):
            random_timeline(tiny_instance(), np.random.default_rng(0), horizon=1.0)


class TestLifecycle:
    def test_user_misses_already_frozen_event(self):
        instance = tiny_instance()
        # Event 0 starts at t=5; user 1 arrives at t=6 and can only get
        # event 1. User 0 arrives early and takes event 0 (0.9).
        timeline = make_timeline([0, 0], [5, 20], [1, 6])
        result = simulate(instance, timeline)
        assert (0, 0) in result.arrangement
        assert (0, 1) not in result.arrangement
        assert (1, 1) in result.arrangement
        assert result.achieved_max_sum == pytest.approx(0.9 + 0.7)

    def test_event_posted_after_user_arrival_is_offered(self):
        instance = tiny_instance()
        # Both users arrive before event 1 is posted.
        timeline = make_timeline([0, 10], [30, 31], [1, 2])
        result = simulate(instance, timeline)
        # At t=10 event 1 is offered to the unserved best user.
        assert len(result.arrangement) == 2


class TestPolicies:
    @pytest.fixture
    def workload(self):
        config = SyntheticConfig(
            n_events=12, n_users=60, cv_high=6, cu_high=3, conflict_ratio=0.3
        )
        instance = generate_instance(config, seed=5)
        timeline = random_timeline(instance, np.random.default_rng(5))
        return instance, timeline

    def test_results_are_feasible(self, workload):
        instance, timeline = workload
        for rebatch in (None, "greedy"):
            result = simulate(instance, timeline, rebatch=rebatch)
            validate_arrangement(result.arrangement)
            assert result.events_frozen == instance.n_events
            assert result.achieved_max_sum > 0

    def test_rebatch_at_least_as_good_as_greedy_arrival(self, workload):
        instance, timeline = workload
        fcfs = simulate(instance, timeline)
        rebatch = simulate(instance, timeline, rebatch="greedy")
        assert rebatch.achieved_max_sum >= fcfs.achieved_max_sum * 0.95

    def test_neither_beats_clairvoyant_offline(self, workload):
        instance, timeline = workload
        offline = GreedyGEACC().solve(instance).max_sum()
        # Clairvoyant offline ignores the timeline entirely; with
        # arrivals spread over the horizon the online policies lose
        # seats at early-starting events, so offline dominates both
        # approximately (offline greedy itself is approximate, hence
        # the small tolerance).
        for rebatch in (None, "greedy"):
            result = simulate(instance, timeline, rebatch=rebatch)
            assert result.achieved_max_sum <= offline * 1.05

    def test_rebatch_counts_rebatches(self, workload):
        instance, timeline = workload
        assert simulate(instance, timeline).rebatches == 0
        result = simulate(instance, timeline, rebatch="greedy")
        assert result.rebatches == instance.n_events

    def test_summary_text(self, workload):
        instance, timeline = workload
        result = simulate(instance, timeline)
        assert "greedy-arrival" in result.summary()
        assert "MaxSum" in result.summary()

    def test_deterministic(self, workload):
        instance, timeline = workload
        a = simulate(instance, timeline, rebatch="greedy")
        b = simulate(instance, timeline, rebatch=GreedyGEACC())
        assert a.arrangement.pairs() == b.arrangement.pairs()


def reference_open_subproblem(arrangement, open_events, arrived):
    """The rebatch sub-instance built pair by pair (the reference)."""
    instance = arrangement.instance
    sims = np.zeros((instance.n_events, instance.n_users))
    for event in np.flatnonzero(open_events):
        row = instance.sim_row(event)
        for user in np.flatnonzero(arrived):
            if row[user] <= 0:
                continue
            if instance.conflicts.conflicts_with_any(event, arrangement.events_of(user)):
                continue
            sims[event, user] = row[user]
    event_capacities = np.where(open_events, instance.event_capacities, 0)
    user_remaining = np.array(
        [arrangement.user_remaining(u) for u in range(instance.n_users)]
    )
    return sims, event_capacities, user_remaining


@pytest.mark.parametrize("seed", range(5))
def test_open_subproblem_matches_the_pairwise_reference(seed):
    config = SyntheticConfig(
        n_events=12, n_users=60, cv_high=6, cu_high=3, conflict_ratio=0.4
    )
    instance = generate_instance(config, seed=seed)
    rng = np.random.default_rng(seed)
    frozen = rng.random(instance.n_events) < 0.4
    open_events = ~frozen & (rng.random(instance.n_events) < 0.7)
    arrived = rng.random(instance.n_users) < 0.6
    # Only frozen seats are held when a rebatch builds its sub-instance.
    arrangement = Arrangement(instance)
    for user in rng.permutation(instance.n_users):
        fill_user(arrangement, int(user), usable=frozen)
    assert len(arrangement) > 0

    sub = _open_subproblem(arrangement, open_events, frozen, arrived)
    sims, event_capacities, user_remaining = reference_open_subproblem(
        arrangement, open_events, arrived
    )
    assert sub.sims.tobytes() == sims.tobytes()
    np.testing.assert_array_equal(sub.event_capacities, event_capacities)
    np.testing.assert_array_equal(sub.user_capacities, user_remaining)
