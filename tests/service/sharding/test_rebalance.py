"""Component-merge rebalancing, and kill -9 at every op inside it.

The rebalance is the sharded service's one cross-shard mutation, so it
gets the same treatment bounded-time recovery got: an explicit
behavioural test of the merge protocol (drain, manifest entry, migrate,
tombstone) and a FaultFS crash-point sweep that kills the fleet before
*every* durability-relevant operation of a rebalancing workload,
materialises both post-crash worlds, and requires coordinator recovery
to reproduce a consistent, invariant-clean fleet that kept every
acknowledged assignment.
"""

import shutil
import sys
from pathlib import Path

import pytest

from repro.exceptions import JournalError
from repro.robustness.faultfs import FaultFS, SimulatedCrash
from repro.service.sharding import ShardCoordinator
from repro.service.sharding.manifest import ShardManifest
from repro.service.store import StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

#: The virtual root every FaultFS run mounts; nothing real lives here.
ROOT = Path("/faultfs-virtual/fleet")


# ----------------------------------------------------------------------
# The explicit merge-rebalance protocol
# ----------------------------------------------------------------------


def build_split_fleet(root: Path) -> tuple[ShardCoordinator, list[int], list[int]]:
    """Two shards, one seated component each, ready to be merged."""
    coordinator = ShardCoordinator.create(root, CONFIG, 2, threaded=False)
    events = [
        coordinator.post_event(capacity=2, attributes=[1.0, 1.0]),
        coordinator.post_event(capacity=2, attributes=[9.0, 9.0]),
    ]
    users = []
    for corner in ([1.1, 0.9], [8.9, 9.1]):
        user = coordinator.register_user(capacity=1, attributes=corner)
        users.append(user)
        coordinator.request_assignment(user)
    return coordinator, events, users


def test_component_merge_triggers_a_rebalance(tmp_path: Path) -> None:
    coordinator, events, users = build_split_fleet(tmp_path / "fleet")
    with coordinator:
        pairs_before = coordinator.arrangement_state()["assignments"]
        assert len(pairs_before) == 2
        topology = coordinator.state_summary()["sharding"]
        assert topology["rebalances"] == 0
        assert [s["n_events"] for s in topology["per_shard"]] == [1, 1]

        bridge = coordinator.post_event(
            capacity=1, attributes=[5.0, 5.0], conflicts=events
        )
        topology = coordinator.state_summary()["sharding"]
        assert topology["rebalances"] == 1
        assert topology["merges"] == 2
        assert topology["components"] == 1
        last = topology["last_rebalance"]
        assert last is not None
        assert last["moved_events"] == 1
        assert last["target"] in (0, 1)
        assert last["from_shards"] == [1 - last["target"]]
        # All three events now live on the target; the source holds
        # only tombstoned husks (still counted in its store, retired
        # from the fleet's point of view).
        live = [
            s["n_events"] - s["retired_events"] for s in topology["per_shard"]
        ]
        assert sorted(live) == [0, 3]
        assert live[last["target"]] == 3
        source = topology["per_shard"][last["from_shards"][0]]
        assert source["retired_events"] == 1
        assert source["retired_users"] == 1
        coordinator.check_invariants()
        # Migration preserved every existing assignment verbatim.
        state = coordinator.arrangement_state()
        assert state["assignments"] == pairs_before
        assert state["events"][bridge]["conflicts"] == sorted(events)


def test_rebalance_preserves_frozen_flags_and_keeps_serving(
    tmp_path: Path,
) -> None:
    coordinator, events, users = build_split_fleet(tmp_path / "fleet")
    with coordinator:
        coordinator.freeze_event(events[1])
        coordinator.post_event(
            capacity=1, attributes=[5.0, 5.0], conflicts=events
        )
        state = coordinator.arrangement_state()
        assert state["events"][events[1]]["frozen"] is True
        assert state["events"][events[0]]["frozen"] is False
        # The merged component still accepts and seats new users.
        late = coordinator.register_user(capacity=1, attributes=[0.9, 1.1])
        assert coordinator.request_assignment(late)
        coordinator.check_invariants()


def test_recovery_after_rebalance_is_digest_exact(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    coordinator, events, _users = build_split_fleet(root)
    with coordinator:
        coordinator.post_event(
            capacity=1, attributes=[5.0, 5.0], conflicts=events
        )
        coordinator.run_pending_batch()
        live_digest = coordinator.arrangement_digest()
        rebalances = coordinator.rebalances

    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == live_digest
        assert recovered.rebalances == rebalances
        recovered.check_invariants()


def test_applying_a_rebalance_entry_twice_journals_nothing_more(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    applied: list[dict] = []
    apply = ShardCoordinator._apply_rebalance

    def spy(self, entry):
        applied.append(entry)
        apply(self, entry)

    monkeypatch.setattr(ShardCoordinator, "_apply_rebalance", spy)
    coordinator, events, _users = build_split_fleet(tmp_path / "fleet")
    with coordinator:
        coordinator.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=events)
        assert len(applied) == 1
        seqs = [shard.seq for shard in coordinator.shards]
        digest = coordinator.arrangement_digest()
        apply(coordinator, applied[0])
        assert [shard.seq for shard in coordinator.shards] == seqs
        assert coordinator.arrangement_digest() == digest
        coordinator.check_invariants()


def test_recovery_after_a_migrated_seat_moved_is_digest_exact(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    coordinator, events, users = build_split_fleet(root)
    with coordinator:
        coordinator.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=events)
        moved = coordinator.last_rebalance["from_shards"][0]
        # The migrated event goes; its user's seat moves on to the bridge.
        coordinator.cancel_event(events[moved])
        assert coordinator.request_assignment(users[moved]) != (events[moved],)
        live_digest = coordinator.arrangement_digest()

    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == live_digest
        recovered.check_invariants()


def test_threaded_recovery_finishes_the_rebalance_before_any_batch(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    append = ShardManifest.append

    def append_then_die(self, kind, payload):
        entry = append(self, kind, payload)
        if kind == "rebalance":
            raise SimulatedCrash("killed right after the rebalance entry")
        return entry

    monkeypatch.setattr(ShardManifest, "append", append_then_die)
    crashed = tmp_path / "crashed"
    coordinator = ShardCoordinator.create(crashed, CONFIG, 2, threaded=False)
    home = coordinator.post_event(capacity=1, attributes=[1.0, 1.0])  # target
    away = coordinator.post_event(capacity=2, attributes=[4.0, 4.0])
    acked = {}
    # Two seated movers; two target-shard users left without a seat, who
    # would take the moved event's seats if a batch ran mid-migration.
    for corner in ([1.1, 0.9], [4.1, 3.9], [3.9, 4.1], [1.3, 1.3], [0.7, 0.7]):
        user = coordinator.register_user(capacity=1, attributes=corner)
        acked[user] = coordinator.request_assignment(user)
    assert sorted(acked.values()) == [(), (), (home,), (away,), (away,)]
    with pytest.raises(SimulatedCrash):
        coordinator.post_event(capacity=1, attributes=[2.5, 2.5], conflicts=[home, away])
    coordinator.close()
    monkeypatch.undo()
    # The engine threads start before the manifest replay; the redo must
    # still land whole, on every interleaving.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(20):
            root = tmp_path / f"run-{run}"
            shutil.copytree(crashed, root)
            with ShardCoordinator.recover(root, threaded=True, batch_ms=0) as recovered:
                assert recovered.rebalances == 1
                recovered.run_pending_batch()
                recovered.check_invariants()
                for user, seats in acked.items():
                    assert recovered.assignments_of(user) == seats, run
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Kill -9 at every operation inside the rebalance
# ----------------------------------------------------------------------


def drive(fs: FaultFS, acked: list[tuple[int, tuple[int, ...]]]) -> None:
    """The rebalancing workload under fault injection.

    ``acked`` collects ``(user, events)`` the moment a blocking
    assignment request returns -- the durably journaled seats a crash at
    any later op must never lose (migration included).
    """
    coordinator = ShardCoordinator.create(ROOT, CONFIG, 2, fs=fs, threaded=False)
    events = [
        coordinator.post_event(capacity=2, attributes=[1.0, 1.0]),
        coordinator.post_event(capacity=2, attributes=[9.0, 9.0]),
    ]
    for corner in ([1.1, 0.9], [8.9, 9.1]):
        user = coordinator.register_user(capacity=1, attributes=corner)
        seats = coordinator.request_assignment(user)
        acked.append((user, seats))
    # The merge: drains both shards, appends the manifest redo entry,
    # migrates one component across shards.
    coordinator.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=events)
    # And the fleet keeps working after the rebalance.
    late = coordinator.register_user(capacity=1, attributes=[0.9, 1.1])
    seats = coordinator.request_assignment(late)
    acked.append((late, seats))
    coordinator.close()


def test_reference_run_rebalances_and_covers_the_op_kinds() -> None:
    fs = FaultFS(ROOT)
    drive(fs, [])
    assert {"create", "write", "flush", "fsync"} <= set(fs.ops), set(fs.ops)
    assert fs.op_count > 0


def setup_op_count() -> int:
    """Ops consumed by fleet creation alone (manifest + shard journals).

    A crash inside this prefix can leave a fleet whose manifest or shard
    journals never became durably findable; recovery is then allowed to
    refuse (the operator re-creates an empty fleet). From the first
    command onwards every file exists durably, so recovery must succeed
    at every later crash point.
    """
    fs = FaultFS(ROOT)
    ShardCoordinator.create(ROOT, CONFIG, 2, fs=fs, threaded=False).close()
    return fs.op_count


def test_crash_sweep_during_rebalance_recovers_consistently(
    tmp_path: Path,
) -> None:
    reference = FaultFS(ROOT)
    reference_acked: list[tuple[int, tuple[int, ...]]] = []
    drive(reference, reference_acked)
    assert len(reference_acked) == 3
    creation_ops = setup_op_count()
    assert creation_ops < reference.op_count

    checked = 0
    for crash_at in range(1, reference.op_count + 1):
        variants = [False]
        if reference.ops[crash_at - 1] == "write":
            variants.append(True)  # the torn-write case
        for torn in variants:
            fs = FaultFS(ROOT, crash_at=crash_at, torn=torn)
            acked: list[tuple[int, tuple[int, ...]]] = []
            with pytest.raises(SimulatedCrash):
                drive(fs, acked)
            for world in ("durable", "cached"):
                label = f"k{crash_at}-{'torn' if torn else 'clean'}-{world}"
                target = tmp_path / label
                fs.materialise(target, world)
                try:
                    recovered = ShardCoordinator.recover(target, threaded=False)
                except JournalError:
                    # Tolerable only while the fleet was still being
                    # created -- nothing was acknowledged, and files may
                    # not have durable names yet.
                    assert crash_at <= creation_ops, label
                    assert not acked, label
                    continue
                try:
                    recovered.check_invariants()
                    # Nothing acknowledged may be lost -- including the
                    # seats a mid-crash migration was moving.
                    for user, seats in acked:
                        assert recovered.assignments_of(user) == seats, label
                    # Recovery is idempotent: a second pass over the
                    # (possibly rewritten) manifest lands bit-identically.
                    digest = recovered.arrangement_digest()
                finally:
                    recovered.close()
                second = ShardCoordinator.recover(target, threaded=False)
                try:
                    assert second.arrangement_digest() == digest, label
                finally:
                    second.close()
                checked += 1
    assert checked >= 2 * reference.op_count
