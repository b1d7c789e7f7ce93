"""Golden-value regression tests.

Every generator and solver in this library is deterministic per seed, so
these exact MaxSum values act as a tripwire: any unintended change to a
similarity formula, a tie-break, a generator distribution, or an
algorithm's selection rule shows up here immediately. If a change is
*intentional* (and correct), update the constants alongside it.
"""

import numpy as np
import pytest

from repro import (
    GreedyGEACC,
    MeetupCityConfig,
    MinCostFlowGEACC,
    OnlineGreedyGEACC,
    RandomV,
    SyntheticConfig,
    generate_instance,
    meetup_city,
)
from repro.simulation import random_timeline, simulate

_CONFIG = SyntheticConfig(
    n_events=20, n_users=120, cv_high=10, cu_high=4, conflict_ratio=0.25
)


@pytest.fixture(scope="module")
def synthetic_seed7():
    return generate_instance(_CONFIG, 7)


def test_golden_greedy(synthetic_seed7):
    assert GreedyGEACC().solve(synthetic_seed7).max_sum() == pytest.approx(
        65.03877111368212
    )


def test_golden_mincostflow(synthetic_seed7):
    assert MinCostFlowGEACC().solve(synthetic_seed7).max_sum() == pytest.approx(
        62.43383443951378
    )


def test_golden_random_v(synthetic_seed7):
    assert RandomV(seed=0).solve(synthetic_seed7).max_sum() == pytest.approx(
        44.67919626843969
    )


@pytest.mark.parametrize(
    ("rebatch", "max_sum", "n_pairs"),
    [
        (None, 61.78945114341129, 94),
        ("greedy", 63.75497720584077, 94),
        ("mincostflow", 63.19044593614143, 93),
    ],
)
def test_golden_simulation(synthetic_seed7, rebatch, max_sum, n_pairs):
    timeline = random_timeline(synthetic_seed7, np.random.default_rng(7))
    result = simulate(synthetic_seed7, timeline, rebatch=rebatch)
    assert result.achieved_max_sum == pytest.approx(max_sum)
    assert len(result.arrangement) == n_pairs
    assert result.rebatches == (0 if rebatch is None else synthetic_seed7.n_events)


def test_golden_online_greedy(synthetic_seed7):
    arrangement = OnlineGreedyGEACC().solve(synthetic_seed7)
    assert arrangement.max_sum() == pytest.approx(59.886338511957035)
    assert len(arrangement) == 94


def test_golden_meetup_auckland():
    # Constant updated when the similarity cross terms moved from BLAS
    # matmul to shape-stable einsum (tiling contract): 1-ulp sim shifts
    # flip greedy tie-breaks on this workload.
    instance = meetup_city(MeetupCityConfig(city="auckland"), 0)
    assert GreedyGEACC().solve(instance).max_sum() == pytest.approx(
        915.5538035767246
    )


def test_golden_ordering(synthetic_seed7):
    """The headline ordering holds on the golden workload."""
    greedy = GreedyGEACC().solve(synthetic_seed7).max_sum()
    mcf = MinCostFlowGEACC().solve(synthetic_seed7).max_sum()
    random_v = RandomV(seed=0).solve(synthetic_seed7).max_sum()
    assert greedy > mcf > random_v
