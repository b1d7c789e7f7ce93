"""Property: sharded and unsharded runs agree on partition-respecting load.

The sharding equivalence contract: for any clustered workload whose
users seat strictly inside their own cluster (what
:func:`~repro.service.sharding.workload.shardable_instance` constructs),
driving the identical command sequence through a shard fleet at *any*
shard count must end in the exact arrangement a single unsharded
service produces -- same global digest, not merely the same objective.
The fleet's synchronous request protocol (resolve every dirty shard,
then the target) mirrors the unsharded engine re-solving the whole open
remainder per batch, so per-batch solve order differences can never
leak into the final state.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.frontend import ArrangementService
from repro.service.sharding import (
    ShardCoordinator,
    shardable_instance,
    shardable_timeline,
)
from repro.service.store import StoreConfig
from repro.simulation import ARRIVE, POST


def drive_unsharded(path: Path, instance, moments) -> str:
    config = StoreConfig(
        dimension=instance.event_attributes.shape[1],
        t=instance.t,
        metric=instance.metric,
    )
    event_ids: dict[int, int] = {}
    with ArrangementService.create(path, config, threaded=False) as service:
        for _, kind, entity in moments:
            if kind == POST:
                conflicts = [
                    event_ids[w]
                    for w in sorted(instance.conflicts.conflicts_with(entity))
                    if w in event_ids
                ]
                event_ids[entity] = service.post_event(
                    capacity=int(instance.event_capacities[entity]),
                    attributes=[
                        float(x) for x in instance.event_attributes[entity]
                    ],
                    conflicts=conflicts,
                )
            elif kind == ARRIVE:
                user = service.register_user(
                    capacity=int(instance.user_capacities[entity]),
                    attributes=[
                        float(x) for x in instance.user_attributes[entity]
                    ],
                )
                service.request_assignment(user)
            else:
                service.freeze_event(event_ids[entity])
        service.run_pending_batch()
        return service.store.arrangement_digest()


def drive_sharded(root: Path, instance, moments, shards: int) -> str:
    config = StoreConfig(
        dimension=instance.event_attributes.shape[1],
        t=instance.t,
        metric=instance.metric,
    )
    event_ids: dict[int, int] = {}
    with ShardCoordinator.create(
        root, config, shards, threaded=False
    ) as coordinator:
        for _, kind, entity in moments:
            if kind == POST:
                conflicts = [
                    event_ids[w]
                    for w in sorted(instance.conflicts.conflicts_with(entity))
                    if w in event_ids
                ]
                event_ids[entity] = coordinator.post_event(
                    capacity=int(instance.event_capacities[entity]),
                    attributes=[
                        float(x) for x in instance.event_attributes[entity]
                    ],
                    conflicts=conflicts,
                )
            elif kind == ARRIVE:
                user = coordinator.register_user(
                    capacity=int(instance.user_capacities[entity]),
                    attributes=[
                        float(x) for x in instance.user_attributes[entity]
                    ],
                )
                coordinator.request_assignment(user)
            else:
                coordinator.freeze_event(event_ids[entity])
        coordinator.run_pending_batch()
        coordinator.check_invariants()
        return coordinator.arrangement_digest()


@settings(max_examples=15, deadline=None)
@given(
    n_components=st.integers(2, 5),
    events_per=st.integers(1, 3),
    users_per=st.integers(1, 5),
    dimension=st.integers(2, 4),
    seed=st.integers(0, 1_000),
    shards=st.integers(2, 4),
)
def test_sharded_digest_equals_unsharded_digest(
    n_components,
    events_per,
    users_per,
    dimension,
    seed,
    shards,
    tmp_path_factory,
) -> None:
    instance = shardable_instance(
        n_components, events_per, users_per, dimension=dimension, seed=seed
    )
    timeline = shardable_timeline(instance)
    moments = timeline.moments()
    base = tmp_path_factory.mktemp("equiv")
    solo = drive_unsharded(base / "solo.jsonl", instance, moments)
    fleet = drive_sharded(base / "fleet", instance, moments, shards)
    assert fleet == solo


def test_single_shard_fleet_equals_unsharded(tmp_path: Path) -> None:
    # The degenerate fleet: one shard, every component colocated -- the
    # fair --shards 1 baseline used by the scaling comparisons.
    instance = shardable_instance(3, 2, 4, dimension=2, seed=7)
    timeline = shardable_timeline(instance)
    moments = timeline.moments()
    solo = drive_unsharded(tmp_path / "solo.jsonl", instance, moments)
    fleet = drive_sharded(tmp_path / "fleet", instance, moments, 1)
    assert fleet == solo
