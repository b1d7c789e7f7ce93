"""ShardCoordinator: routing, placement, recovery, manifest reconciliation."""

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import JournalError, ServiceError
from repro.service.engine import PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.http import make_server
from repro.service.journal import Journal
from repro.service.sharding import MANIFEST_NAME, ShardCoordinator, ShardManager
from repro.service.store import ArrangementStore, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

#: Four well-separated corners; best-similarity routing is unambiguous.
CORNERS = [[1.0, 1.0], [9.0, 1.0], [1.0, 9.0], [9.0, 9.0]]


def make_fleet(root: Path, shards: int = 4) -> ShardCoordinator:
    return ShardCoordinator.create(root, CONFIG, shards, threaded=False)


def populate(coordinator: ShardCoordinator) -> tuple[list[int], list[int]]:
    """One event per corner, one capacity-1 user per corner, all seated."""
    events = [
        coordinator.post_event(capacity=2, attributes=corner)
        for corner in CORNERS
    ]
    users = []
    for corner in CORNERS:
        user = coordinator.register_user(
            capacity=1, attributes=[corner[0] + 0.1, corner[1] - 0.1]
        )
        users.append(user)
        coordinator.request_assignment(user)
    return events, users


def test_conflict_free_events_spread_least_loaded(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet") as coordinator:
        events, _users = populate(coordinator)
        summary = coordinator.state_summary()
        topology = summary["sharding"]
        assert topology["shards"] == 4
        assert topology["components"] == 4
        # One singleton component per shard: perfectly balanced.
        assert [s["n_events"] for s in topology["per_shard"]] == [1, 1, 1, 1]
        assert [s["n_users"] for s in topology["per_shard"]] == [1, 1, 1, 1]
        assert summary["n_assignments"] == 4
        coordinator.check_invariants()


def test_each_user_is_seated_on_its_corner_event(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet") as coordinator:
        events, users = populate(coordinator)
        for event, user in zip(events, users):
            assert coordinator.assignments_of(user) == (event,)


def test_an_unwaited_request_answers_in_global_ids(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet", shards=2) as coordinator:
        events = [
            coordinator.post_event(capacity=1, attributes=corner)
            for corner in CORNERS[:2]
        ]
        user = coordinator.register_user(capacity=1, attributes=[8.9, 1.1])
        request = coordinator.request_assignment(user, wait=False)
        assert isinstance(request, PendingRequest)
        # Event 1 is local event 0 on shard 1.
        assert request.wait(1.0) == (events[1],) == (1,)
        assert coordinator.assignments_of(user) == (1,)


def test_boolean_ids_are_not_event_or_user_ids(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet", shards=2) as coordinator:
        populate(coordinator)
        seq = coordinator.seq
        with pytest.raises(ServiceError, match="unknown event False"):
            coordinator.freeze_event(False)
        with pytest.raises(ServiceError, match="unknown user True"):
            coordinator.assignments_of(True)
        assert coordinator.seq == seq


def test_conflicting_event_lands_on_its_components_shard(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet") as coordinator:
        events, _users = populate(coordinator)
        rival = coordinator.post_event(
            capacity=1, attributes=[1.2, 1.2], conflicts=[events[0]]
        )
        topology = coordinator.state_summary()["sharding"]
        assert topology["components"] == 4
        assert sorted(topology["component_sizes"], reverse=True) == [2, 1, 1, 1]
        # Both component members live on one shard.
        sizes = sorted(s["n_events"] for s in topology["per_shard"])
        assert sizes == [1, 1, 1, 2]
        coordinator.check_invariants()
        # Freezes and cancels route through the coordinator to the
        # owning shard (a frozen event cannot be cancelled, so each
        # action gets its own target).
        coordinator.freeze_event(rival)
        coordinator.cancel_event(events[1])


def test_recovery_round_trip_is_digest_exact(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with make_fleet(root) as coordinator:
        events, users = populate(coordinator)
        coordinator.post_event(
            capacity=1, attributes=[1.2, 1.2], conflicts=[events[0]]
        )
        coordinator.run_pending_batch()
        live_digest = coordinator.arrangement_digest()
        live_state = coordinator.arrangement_state()
        live_seq = coordinator.seq

    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == live_digest
        assert recovered.arrangement_state() == live_state
        assert recovered.seq == live_seq
        recovered.check_invariants()
        # The fleet keeps serving: routing state survived too.
        late = recovered.register_user(capacity=1, attributes=[8.9, 8.9])
        assert recovered.request_assignment(late)


def test_open_creates_then_recovers(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with ShardCoordinator.open(root, CONFIG, 2, threaded=False) as coordinator:
        populate(coordinator)
        digest = coordinator.arrangement_digest()
        assert coordinator.state_summary()["last_recovery"] is None
    # Second open: manifest exists, config/shards not needed.
    with ShardCoordinator.open(root, threaded=False) as coordinator:
        assert coordinator.arrangement_digest() == digest
        assert coordinator.state_summary()["last_recovery"]["rung"] == "full-replay"
    with pytest.raises(ServiceError):
        ShardCoordinator.open(tmp_path / "nowhere", threaded=False)


def test_fleet_recovery_reports_its_timings(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with ShardCoordinator.open(root, CONFIG, 2, threaded=False) as coordinator:
        populate(coordinator)
    with ShardCoordinator.open(root, threaded=False) as coordinator:
        summary = coordinator.state_summary()
    fleet = summary["last_recovery"]
    assert set(fleet) == {"rung", "snapshot_ms", "replay_ms"}
    rows = [row["last_recovery"] for row in summary["sharding"]["per_shard"]]
    for recovery in (fleet, *rows):
        assert recovery["snapshot_ms"] >= 0 and recovery["replay_ms"] >= 0


def test_open_refuses_a_shard_count_the_manifest_disagrees_with(
    tmp_path: Path,
) -> None:
    root = tmp_path / "fleet"
    ShardCoordinator.create(root, CONFIG, 2, threaded=False).close()
    with pytest.raises(ServiceError, match="2-shard fleet.*with 4 shards"):
        ShardCoordinator.open(root, CONFIG, 4, threaded=False)
    # No count: the manifest's; a new root gets one shard.
    with ShardCoordinator.open(root, CONFIG, threaded=False) as coordinator:
        assert coordinator.state_summary()["sharding"]["shards"] == 2
    with ShardCoordinator.open(tmp_path / "new", CONFIG, threaded=False) as fresh:
        assert fresh.state_summary()["sharding"]["shards"] == 1


def test_no_public_attribute_reaches_into_a_shard(tmp_path: Path) -> None:
    # Front ends hold the coordinator; a shard's service, store or
    # journal reached through one of its public attributes would bypass
    # the coordinator's locks and id translation.
    shard_parts = (ArrangementService, ArrangementStore, Journal)
    with make_fleet(tmp_path / "fleet", shards=2) as coordinator:
        populate(coordinator)
        for name in dir(coordinator):
            if name.startswith("_"):
                continue
            value = getattr(coordinator, name)
            if isinstance(value, dict):
                value = list(value.values())
            items = value if isinstance(value, (list, tuple, set)) else [value]
            assert not any(isinstance(item, shard_parts) for item in items), name


def test_a_file_is_not_a_fleet_root(tmp_path: Path) -> None:
    root = tmp_path / "service.jsonl"
    root.write_bytes(b"not a directory")
    for opener in (
        lambda: ShardCoordinator.open(root, CONFIG, threaded=False),
        lambda: ShardCoordinator.create(root, CONFIG, 2, threaded=False),
        lambda: ShardCoordinator.recover(root, threaded=False),
    ):
        with pytest.raises(JournalError, match="is a file, not a fleet root"):
            opener()
    assert root.read_bytes() == b"not a directory"


def test_trailing_unacked_manifest_entry_is_dropped(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with make_fleet(root) as coordinator:
        populate(coordinator)
        digest = coordinator.arrangement_digest()
        entries_before = coordinator.manifest.n
        # Crash window: the manifest entry for the next event (gid 4)
        # was fsync'd but the process died before the shard journaled
        # the command.
        coordinator.manifest.append(
            "event", {"gid": 4, "shard": 0}
        )

    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == digest
        assert recovered.manifest.n == entries_before
        recovered.check_invariants()
        # The next placement reuses the dropped slot cleanly.
        gid = recovered.post_event(capacity=1, attributes=[5.0, 5.0])
        assert recovered.manifest.n == entries_before + 1
        assert gid == 4


def test_non_trailing_manifest_hole_is_an_error(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with make_fleet(root) as coordinator:
        populate(coordinator)
        # Two phantom entries: the first is a non-trailing hole (the
        # second refers to a later n), which no crash of the serialised
        # coordinator can produce -- recovery must refuse to guess.
        coordinator.manifest.append("event", {"gid": 4, "shard": 0})
        coordinator.manifest.append("user", {"gid": 4, "shard": 1})

    with pytest.raises(JournalError):
        ShardCoordinator.recover(root, threaded=False)


def test_concurrent_recovery_raises_a_corrupt_shards_journal_error(
    tmp_path: Path,
) -> None:
    root = tmp_path / "fleet"
    with make_fleet(root) as coordinator:
        populate(coordinator)
    # A corrupt middle line in the journals of shards 2 and 3: no crash
    # produces that, so their recoveries must refuse. The four shards
    # recover on four threads (real filesystem); the caller sees the
    # error of the first failing shard in shard order.
    for shard in (2, 3):
        journal = ShardManager.journal_path(root, shard)
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = b"{garbage\n"
        journal.write_bytes(b"".join(lines))
    with pytest.raises(JournalError, match="shard-02.jsonl:2: corrupt record"):
        ShardCoordinator.recover(root, threaded=False)


def test_corrupt_manifest_tail_line_is_truncated(tmp_path: Path) -> None:
    root = tmp_path / "fleet"
    with make_fleet(root) as coordinator:
        populate(coordinator)
        digest = coordinator.arrangement_digest()
    manifest_path = root / MANIFEST_NAME
    with open(manifest_path, "ab") as handle:
        handle.write(b'{"n": 999, "kind": "eve')  # torn final record
    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == digest


def test_http_state_exposes_shard_topology(tmp_path: Path) -> None:
    coordinator = make_fleet(tmp_path / "fleet")
    server = make_server(coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.port}"

        def call(method: str, path: str, payload: dict | None = None) -> dict:
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                base + path,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        event = call("POST", "/events", {"capacity": 1, "attributes": [1.0, 1.0]})[
            "event"
        ]
        user = call("POST", "/users", {"capacity": 1, "attributes": [1.1, 0.9]})[
            "user"
        ]
        assigned = call("POST", "/assignments", {"user": user})
        assert event in assigned["events"]
        state = call("GET", "/state")
        topology = state["sharding"]
        assert topology["shards"] == 4
        assert topology["components"] == 1
        assert len(topology["per_shard"]) == 4
        assert state["n_assignments"] == 1
    finally:
        server.shutdown()
        server.server_close()
        coordinator.close()
        thread.join(timeout=10)


def test_compaction_reports_per_shard_stats(tmp_path: Path) -> None:
    with make_fleet(tmp_path / "fleet") as coordinator:
        populate(coordinator)
        stats = coordinator.compact()
        payload = stats.to_json()
        assert len(payload["shards"]) == 4
        coordinator.check_invariants()
