"""Snapshots + compaction + the recovery degradation ladder."""

import json
import math
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import JournalError, ServiceError, SnapshotError
from repro.service.journal import Journal, replay
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    CompactionStats,
    compact,
    list_snapshots,
    load_snapshot,
    recover_state,
    snapshot_path,
    write_snapshot,
)
from repro.service.store import (
    STATE_BUFFERS,
    ArrangementStore,
    StoreConfig,
    canonical_json,
)

CONFIG = StoreConfig(dimension=2, t=10.0)

#: A command stream with every record shape: events (with a conflict),
#: users, a committed assignment, a freeze.
COMMANDS = [
    ("post_event", {"capacity": 2, "attributes": [1.0, 1.0], "conflicts": []}),
    ("post_event", {"capacity": 1, "attributes": [5.0, 5.0], "conflicts": [0]}),
    ("register_user", {"capacity": 1, "attributes": [2.0, 2.0]}),
    ("register_user", {"capacity": 2, "attributes": [6.0, 4.0]}),
    ("request_assignment", {"user": 0}),
    ("commit_batch", {"assign": [[0, 0]], "unassign": [], "users": [0]}),
    ("freeze_event", {"event": 0}),
    ("register_user", {"capacity": 1, "attributes": [3.0, 7.0]}),
]


def build(path: Path, upto: int | None = None) -> tuple[Journal, ArrangementStore]:
    """A live journal + store after applying ``COMMANDS[:upto]``."""
    journal = Journal.create(path, CONFIG)
    store = ArrangementStore(CONFIG)
    for cmd, args in COMMANDS[:upto]:
        store.apply(journal.append(cmd, args))
    return journal, store


# ----------------------------------------------------------------------
# Snapshot write/load
# ----------------------------------------------------------------------


def test_write_load_roundtrip(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    assert path == snapshot_path(tmp_path / "snaps", store.seq)
    restored = load_snapshot(path)
    assert restored == store
    assert restored.seq == store.seq
    assert restored.digest() == store.digest()
    restored.check_invariants()


def test_snapshot_is_a_header_line_and_a_buffer_body(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    assert header["format"] == SNAPSHOT_FORMAT == "geacc-snapshot-v2"
    assert header["seq"] == store.seq
    assert header["digest"] == store.digest()
    assert header["crc32"] == zlib.crc32(body)
    buffers = store.state_buffers()
    assert header["buffers"] == [
        [name, dtype, list(buf.shape)] for (name, dtype), buf in zip(STATE_BUFFERS, buffers)
    ]
    assert body == b"".join(buf.tobytes() for buf in buffers)
    # Little-endian, C order: the first buffer is the event capacities.
    assert body[:16] == (2).to_bytes(8, "little") + (1).to_bytes(8, "little")


def test_truncated_snapshot_is_rejected(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotError, match="torn"):
        load_snapshot(path)


def test_bit_flip_fails_the_crc(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    blob = bytearray(path.read_bytes())
    flip = blob.index(b"\n") + 10  # somewhere inside the payload line
    blob[flip] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="CRC"):
        load_snapshot(path)


def test_tampered_payload_with_fixed_crc_fails_the_digest(tmp_path: Path) -> None:
    # An adversarial (or buggy) writer can recompute the CRC; the
    # digest is the end-to-end check it cannot fake without also
    # producing a semantically different store.
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    header_line, body = path.read_bytes().split(b"\n", 1)
    # The first event's first attribute: after the two event capacities.
    at = 16
    assert struct.unpack_from("<d", body, at) == (1.0,)
    tampered = body[:at] + struct.pack("<d", 1.5) + body[at + 8 :]
    header = json.loads(header_line)
    header["crc32"] = zlib.crc32(tampered)
    path.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n" + tampered
    )
    with pytest.raises(SnapshotError, match="digest"):
        load_snapshot(path)


def test_foreign_format_is_rejected(tmp_path: Path) -> None:
    path = tmp_path / "snapshot-000000000001.json"
    path.write_bytes(b'{"format":"other"}\n{}\n')
    with pytest.raises(SnapshotError, match="not a geacc-snapshot-v2 snapshot"):
        load_snapshot(path)


def test_list_snapshots_newest_first_and_ignores_leftovers(tmp_path: Path) -> None:
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for seq in (3, 12, 7):
        snapshot_path(snaps, seq).write_bytes(b"x")
    (snaps / "snapshot-000000000012.json.tmp").write_bytes(b"partial")
    (snaps / "notes.txt").write_bytes(b"hello")
    assert [seq for seq, _ in list_snapshots(snaps)] == [12, 7, 3]
    assert list_snapshots(tmp_path / "absent") == []


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------


def test_compact_trims_journal_to_tail(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    journal, store = build(path, upto=6)
    with journal:
        before = journal.size_bytes
        stats = compact(journal, store, tmp_path / "snaps")
        assert isinstance(stats, CompactionStats)
        assert stats.snapshot_seq == 6
        assert stats.base_seq == 6
        assert stats.retained == (6,)
        assert stats.pruned == ()
        assert stats.journal_bytes_before == before
        assert stats.journal_bytes_after < before
        assert journal.base_seq == 6
        # Appends continue seamlessly on the trimmed file.
        for cmd, args in COMMANDS[6:]:
            store.apply(journal.append(cmd, args))
    recovered, _, report = recover_state(path, tmp_path / "snaps")
    assert report.rung == "snapshot+tail"
    assert recovered == store


def test_retention_keeps_newest_and_prunes_the_rest(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    journal = Journal.create(path, CONFIG)
    store = ArrangementStore(CONFIG)
    snaps = tmp_path / "snaps"
    seqs = []
    with journal:
        for round_no in range(4):
            store.apply(
                journal.append(
                    "register_user",
                    {"capacity": 1, "attributes": [1.0 * round_no, 2.0]},
                )
            )
            stats = compact(journal, store, snaps, retain=2)
            seqs.append(store.seq)
            assert list(stats.retained) == sorted(seqs[-2:], reverse=True)
            assert list(stats.pruned) == seqs[:-2][-1:]
            # Rebase only to the *oldest retained* snapshot: the older
            # one must still bridge to the live tail.
            assert stats.base_seq == min(seqs[-2:])
            assert journal.base_seq == stats.base_seq
    assert [seq for seq, _ in list_snapshots(snaps)] == sorted(
        seqs[-2:], reverse=True
    )


def test_compact_requires_store_journal_agreement(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl", upto=4)
    with journal:
        store.apply(
            {"seq": 5, "cmd": "register_user", "capacity": 1,
             "attributes": [1.0, 1.0]}
        )
        with pytest.raises(ServiceError, match="store seq 5 != journal seq 4"):
            compact(journal, store, tmp_path / "snaps")


def test_compact_rejects_bad_retain(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl", upto=2)
    with journal:
        with pytest.raises(ServiceError, match="retain"):
            compact(journal, store, tmp_path / "snaps", retain=0)


# ----------------------------------------------------------------------
# The recovery ladder
# ----------------------------------------------------------------------


def corrupt(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def compacted_world(tmp_path: Path) -> tuple[Path, Path, ArrangementStore]:
    """A journal compacted twice (two snapshots) plus a live tail."""
    path = tmp_path / "j.jsonl"
    snaps = tmp_path / "snaps"
    journal, store = build(path, upto=4)
    with journal:
        compact(journal, store, snaps, retain=2)
        for cmd, args in COMMANDS[4:6]:
            store.apply(journal.append(cmd, args))
        compact(journal, store, snaps, retain=2)
        for cmd, args in COMMANDS[6:]:
            store.apply(journal.append(cmd, args))
    return path, snaps, store


def test_ladder_rung1_newest_snapshot_plus_tail(tmp_path: Path) -> None:
    path, snaps, live = compacted_world(tmp_path)
    store, durable, report = recover_state(path, snaps)
    assert store == live
    assert durable == len(path.read_bytes())
    assert report.rung == "snapshot+tail"
    assert report.snapshot_seq == 6
    assert report.journal_base_seq == 4
    assert report.records_replayed == len(COMMANDS) - 6
    assert report.snapshots_rejected == ()


def test_ladder_rung2_corrupt_newest_falls_to_older(tmp_path: Path) -> None:
    path, snaps, live = compacted_world(tmp_path)
    corrupt(snapshot_path(snaps, 6))
    store, _, report = recover_state(path, snaps)
    assert store == live
    assert report.rung == "snapshot+tail"
    assert report.snapshot_seq == 4
    assert report.records_replayed == len(COMMANDS) - 4
    assert len(report.snapshots_rejected) == 1


def test_ladder_rung3_all_snapshots_corrupt_full_replay(tmp_path: Path) -> None:
    # Snapshots exist but the journal was never trimmed (base_seq 0):
    # with every snapshot corrupt, full replay still recovers everything.
    path = tmp_path / "j.jsonl"
    snaps = tmp_path / "snaps"
    journal, store = build(path)
    with journal:
        write_snapshot(store, snaps)
    corrupt(snapshot_path(snaps, store.seq))
    recovered, _, report = recover_state(path, snaps)
    assert recovered == store
    assert report.rung == "full-replay"
    assert report.records_replayed == len(COMMANDS)
    assert len(report.snapshots_rejected) == 1


def test_ladder_rung4_nothing_durable_recreates_under_config(tmp_path: Path) -> None:
    store, durable, report = recover_state(
        tmp_path / "absent.jsonl", tmp_path / "snaps", config=CONFIG
    )
    assert store.seq == 0
    assert durable == -1
    assert report.rung == "recreate"


def test_ladder_exhausted_compacted_journal_all_snapshots_corrupt(
    tmp_path: Path,
) -> None:
    # A trimmed journal cannot full-replay; with every snapshot corrupt
    # there is genuinely nothing durable left and recovery must say so.
    path, snaps, _ = compacted_world(tmp_path)
    for _, snap_file in list_snapshots(snaps):
        corrupt(snap_file)
    with pytest.raises(JournalError, match="nothing durable"):
        recover_state(path, snaps, config=CONFIG)


def test_ladder_exhausted_without_config(tmp_path: Path) -> None:
    with pytest.raises(JournalError, match="nothing durable"):
        recover_state(tmp_path / "absent.jsonl", tmp_path / "snaps")


def test_snapshot_only_rung_when_journal_header_lost(tmp_path: Path) -> None:
    path, snaps, live = compacted_world(tmp_path)
    # Keep only the seq-6 snapshot's state: records 7.. are lost with
    # the journal, so the durable state is the snapshot alone.
    reference = load_snapshot(snapshot_path(snaps, 6))
    path.write_bytes(b"")
    store, durable, report = recover_state(path, snaps)
    assert durable == -1
    assert report.rung == "snapshot-only"
    assert report.snapshot_seq == 6
    assert store == reference


def test_snapshot_older_than_journal_base_is_rejected(tmp_path: Path) -> None:
    # A snapshot too old to bridge to the trimmed tail must be skipped
    # with a recorded reason, not replayed into a gap.
    path, snaps, live = compacted_world(tmp_path)
    corrupt(snapshot_path(snaps, 6))
    # Forge the journal base past the older snapshot too.
    journal, store = Journal.recover(path, snapshot_dir=snaps)
    with journal:
        journal.rewrite_tail(6)
    with pytest.raises(JournalError, match="nothing durable"):
        recover_state(path, snaps)


# ----------------------------------------------------------------------
# Journal.recover integration
# ----------------------------------------------------------------------


def test_journal_recover_walks_the_ladder_and_continues(tmp_path: Path) -> None:
    path, snaps, live = compacted_world(tmp_path)
    corrupt(snapshot_path(snaps, 6))
    journal, store = Journal.recover(path, snapshot_dir=snaps)
    with journal:
        assert store == live
        assert journal.last_recovery is not None
        assert journal.last_recovery.rung == "snapshot+tail"
        assert journal.last_recovery.snapshot_seq == 4
        record = journal.append("register_user",
                                {"capacity": 1, "attributes": [4.0, 4.0]})
        assert record["seq"] == live.seq + 1
        store.apply(record)
    again, recovered = Journal.recover(path, snapshot_dir=snaps)
    again.close()
    assert recovered == store


def test_compacted_journal_refuses_recovery_without_snapshot_dir(
    tmp_path: Path,
) -> None:
    path, _, _ = compacted_world(tmp_path)
    with pytest.raises(JournalError, match="snapshot directory"):
        Journal.recover(path)


def test_snapshot_only_recovery_rewrites_the_journal(tmp_path: Path) -> None:
    path, snaps, _ = compacted_world(tmp_path)
    reference = load_snapshot(snapshot_path(snaps, 6))
    path.write_bytes(b"")  # the journal's header never became durable
    journal, store = Journal.recover(path, snapshot_dir=snaps)
    with journal:
        assert store == reference
        assert journal.base_seq == 6
        assert journal.seq == 6
        record = journal.append("register_user",
                                {"capacity": 1, "attributes": [4.0, 4.0]})
        store.apply(record)
    # The rewritten journal + snapshot now carry the full state.
    recovered, _, report = recover_state(path, snaps)
    assert report.rung == "snapshot+tail"
    assert recovered == store


def test_recovery_report_times_each_rung(tmp_path: Path) -> None:
    path, snaps, _ = compacted_world(tmp_path)
    _, _, report = recover_state(path, snaps)
    assert report.rung == "snapshot+tail"
    fields = report.to_json()
    assert fields["snapshot_ms"] >= 0 and fields["replay_ms"] >= 0
    full = tmp_path / "full"
    full.mkdir()
    journal, _ = build(full / "j.jsonl")
    journal.close()
    _, _, report = recover_state(full / "j.jsonl", full / "snaps")
    assert report.rung == "full-replay"
    assert report.to_json()["snapshot_ms"] >= 0 and report.to_json()["replay_ms"] >= 0


# ----------------------------------------------------------------------
# Read-only v1 snapshots
# ----------------------------------------------------------------------

#: A journal compacted at seq 11 against a ``geacc-snapshot-v1`` file
#: (written by the JSON snapshot writer this codec replaced), its
#: 3-record tail, and the canonical state both recover to.
V1_FIXTURE = Path(__file__).parent / "data" / "v1_snapshot"


def test_v1_snapshot_recovers_and_next_compaction_writes_v2(tmp_path: Path) -> None:
    root = tmp_path / "v1"
    shutil.copytree(V1_FIXTURE, root)
    path, snaps = root / "journal.jsonl", root / "snapshots"
    expected = json.loads((root / "expected_state.json").read_bytes())
    v1_header = json.loads(snapshot_path(snaps, 11).read_bytes().split(b"\n")[0])
    assert v1_header["format"] == "geacc-snapshot-v1"

    store, _, report = recover_state(path, snaps)
    assert report.rung == "snapshot+tail"
    assert report.snapshot_seq == 11
    assert report.records_replayed == 3
    assert store.canonical_state() == expected
    store.check_invariants()

    journal, store = Journal.recover(path, snapshot_dir=snaps)
    with journal:
        compact(journal, store, snaps)
    newest_seq, newest = list_snapshots(snaps)[0]
    assert newest_seq == 14
    assert json.loads(newest.read_bytes().split(b"\n", 1)[0])["format"] == SNAPSHOT_FORMAT
    recovered, _, report = recover_state(path, snaps)
    assert (report.rung, report.snapshot_seq) == ("snapshot+tail", 14)
    assert recovered.canonical_state() == expected


def test_tampered_v1_payload_with_fixed_crc_fails_the_digest(tmp_path: Path) -> None:
    path = tmp_path / "snapshot-000000000011.json"
    header_line, payload, _ = (
        (V1_FIXTURE / "snapshots" / path.name).read_bytes().split(b"\n")
    )
    tampered = payload.replace(b"9.75", b"9.5")
    assert tampered != payload
    header = json.loads(header_line)
    header["crc32"] = zlib.crc32(tampered)
    path.write_bytes(canonical_json(header) + b"\n" + tampered + b"\n")
    with pytest.raises(SnapshotError, match="digest"):
        load_snapshot(path)


# ----------------------------------------------------------------------
# Malformed v2 bodies (each with a CRC that matches)
# ----------------------------------------------------------------------


def forge(path: Path, edit) -> None:
    """Rewrite a v2 snapshot after ``edit(buffers)`` and re-fix its CRC.

    ``buffers`` maps each buffer's name to a writable copy; the header's
    declared shapes follow the edited arrays.
    """
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    buffers, offset = {}, 0
    for name, dtype, shape in header["buffers"]:
        size = np.dtype(dtype).itemsize * math.prod(shape)
        buffers[name] = np.frombuffer(body[offset : offset + size], dtype).reshape(shape).copy()
        offset += size
    edit(buffers)
    header["buffers"] = [
        [name, dtype, list(buffers[name].shape)] for name, dtype, _ in header["buffers"]
    ]
    body = b"".join(
        np.ascontiguousarray(buffers[name], dtype=dtype).tobytes()
        for name, dtype, _ in header["buffers"]
    )
    header["crc32"] = zlib.crc32(body)
    path.write_bytes(canonical_json(header) + b"\n" + body)


def _set(name: str, at: tuple, value: int):
    def edit(buffers: dict) -> None:
        buffers[name][at] = value
    return edit


def _duplicate_seat(buffers: dict) -> None:
    buffers["seats"] = np.concatenate([buffers["seats"], buffers["seats"][:1]])


def _longer_flags(buffers: dict) -> None:
    buffers["event_flags"] = np.append(buffers["event_flags"], np.uint8(0))


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("seats", (0, 1), 99), "unknown event or user"),
        (_set("seats", (0, 0), -1), "unknown event or user"),
        (_duplicate_seat, "duplicate seat"),
        (_longer_flags, "shape"),
        (_set("event_flags", (1,), 4), "flags"),
        (_set("event_remaining", (0,), 0), "remaining-capacity"),
        (_set("user_remaining", (2,), 0), "remaining-capacity"),
        (_set("conflicts", (0, 1), 0), "conflict edge"),
        (_set("user_capacity", (1,), -1), "negative capacity"),
    ],
    ids=[
        "seat-out-of-range", "negative-seat", "duplicate-seat", "shape-mismatch",
        "flag-4", "event-remaining", "user-remaining", "self-conflict", "negative-capacity",
    ],
)
def test_malformed_v2_body_is_a_snapshot_error(tmp_path: Path, edit, message) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    forge(path, edit)
    with pytest.raises(SnapshotError, match=message):
        load_snapshot(path)


def test_truncated_v2_body_with_fixed_crc_is_torn(tmp_path: Path) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["crc32"] = zlib.crc32(body[:-8])
    path.write_bytes(canonical_json(header) + b"\n" + body[:-8])
    with pytest.raises(SnapshotError, match="torn"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "layout",
    [
        None,
        [["event_capacity", "<i8", [2]]],
        [["event_capacity", ">i8", [2]]] + [["x", "<i8", [0]]] * 8,
        [["event_capacity", "<i8", [-2]]] + [["x", "<i8", [0]]] * 8,
    ],
    ids=["missing", "short", "big-endian", "negative"],
)
def test_foreign_buffer_layout_is_rejected(tmp_path: Path, layout) -> None:
    journal, store = build(tmp_path / "j.jsonl")
    with journal:
        path = write_snapshot(store, tmp_path / "snaps")
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["buffers"] = layout
    path.write_bytes(canonical_json(header) + b"\n" + body)
    with pytest.raises(SnapshotError, match="buffer layout"):
        load_snapshot(path)
