"""Golden-value regression tests.

Every generator and solver in this library is deterministic per seed, so
these exact MaxSum values act as a tripwire: any unintended change to a
similarity formula, a tie-break, a generator distribution, or an
algorithm's selection rule shows up here immediately. If a change is
*intentional* (and correct), update the constants alongside it.
"""

import functools
import hashlib
from pathlib import Path

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
from repro.service import replay_timeline
from repro.service.sharding import shardable_instance, shardable_timeline
from repro.simulation import random_timeline, simulate
from tests.service.sharding.test_rebalance import build_split_fleet

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


def _tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _replayed_fleet(root: Path, shards: int) -> None:
    instance = shardable_instance(8, 3, 6, dimension=4, seed=0)
    # A deadline no batch reaches keeps wall-clock timeouts out of the bytes.
    replay_timeline(
        instance,
        shardable_timeline(instance),
        root,
        shards=shards,
        solve_timeout=60.0,
    )


def _rebalanced_fleet(root: Path) -> None:
    """Two seated components on two shards, bridged by one rebalance."""
    coordinator, events, _users = build_split_fleet(root)
    with coordinator:
        coordinator.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=events)
        coordinator.request_assignment(
            coordinator.register_user(capacity=1, attributes=[5.1, 4.9])
        )
        assert coordinator.state_summary()["sharding"]["rebalances"] == 1


@pytest.mark.parametrize(
    ("build", "expected"),
    [
        (
            functools.partial(_replayed_fleet, shards=1),
            "11fe7d8aad33f7192af7bfcc9cf25c57ea1518b4a061d52b00b01549a63f64d3",
        ),
        (
            functools.partial(_replayed_fleet, shards=4),
            "2ce6a1e62d06cd5600424274225ec619be78d288ee0229f2859ef314c56870ff",
        ),
        (
            _rebalanced_fleet,
            "3d9d7163749192cb109da997ea8ff146c1c48c0e5da35eb0489dbb73c3fc9777",
        ),
    ],
    ids=["replay-1-shard", "replay-4-shards", "split-then-bridge"],
)
def test_golden_fleet_files(tmp_path, build, expected):
    """Manifest, shard journal and snapshot bytes are pinned exactly."""
    root = tmp_path / "fleet"
    build(root)
    assert _tree_digest(root) == expected
