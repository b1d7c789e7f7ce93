"""Journal: write-ahead durability, torn tails, corruption, recovery."""

import gc
import json
import warnings
from pathlib import Path

import pytest

from repro.exceptions import JournalError, ServiceError
from repro.service.frontend import ArrangementService
from repro.service.journal import (
    JOURNAL_FORMAT,
    Journal,
    encode_line,
    iter_records,
    replay,
)
from repro.service.store import ArrangementStore, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


def write_sample(path: Path) -> ArrangementStore:
    """A small journal plus the store its records produce."""
    journal = Journal.create(path, CONFIG)
    store = ArrangementStore(CONFIG)
    commands = [
        ("post_event", {"capacity": 2, "attributes": [1.0, 1.0], "conflicts": []}),
        ("register_user", {"capacity": 1, "attributes": [2.0, 2.0]}),
        ("request_assignment", {"user": 0}),
        ("commit_batch", {"assign": [[0, 0]], "unassign": [], "users": [0]}),
        ("freeze_event", {"event": 0}),
    ]
    with journal:
        for cmd, args in commands:
            store.apply(journal.append(cmd, args))
    return store


def test_create_refuses_existing_file(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    Journal.create(path, CONFIG).close()
    with pytest.raises(JournalError, match="already exists"):
        Journal.create(path, CONFIG)


def test_append_assigns_contiguous_seqs_and_replay_rebuilds(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    live = write_sample(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == JOURNAL_FORMAT
    assert [json.loads(line)["seq"] for line in lines[1:]] == [1, 2, 3, 4, 5]
    recovered, durable = replay(path)
    assert durable == len(path.read_bytes())
    assert recovered == live
    assert recovered.seq == 5
    assert recovered.events_of(0) == {0}


def test_closed_journal_refuses_appends(tmp_path: Path) -> None:
    journal = Journal.create(tmp_path / "j.jsonl", CONFIG)
    journal.close()
    with pytest.raises(JournalError, match="closed"):
        journal.append("request_assignment", {"user": 0})


def test_torn_partial_write_is_truncated_silently(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    live = write_sample(path)
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"seq": 6, "cmd": "freez')
    recovered, durable = replay(path)
    assert durable == len(intact)
    assert recovered == live


def test_torn_line_with_accidental_newline_is_tolerated(tmp_path: Path) -> None:
    # A partial write whose garbage happens to end in '\n' still only
    # ever occupies the final line; it must not count as corruption.
    path = tmp_path / "j.jsonl"
    live = write_sample(path)
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"seq": 6, "cm\n')
    recovered, durable = replay(path)
    assert durable == len(intact)
    assert recovered == live


def test_mid_file_garbage_is_corruption(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    write_sample(path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"!!not json!!"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(JournalError, match="corrupt record"):
        replay(path)


def test_sequence_gap_is_corruption(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    write_sample(path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'"seq":3', b'"seq":7'))
    with pytest.raises(JournalError, match="sequence gap"):
        replay(path)


def test_foreign_header_is_rejected(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    path.write_text(json.dumps({"format": "not-a-journal"}) + "\n")
    with pytest.raises(JournalError, match=JOURNAL_FORMAT):
        replay(path)


def test_empty_file_is_rejected(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"")
    with pytest.raises(JournalError, match="empty journal"):
        replay(path)


def test_missing_file_is_rejected(tmp_path: Path) -> None:
    with pytest.raises(JournalError, match="cannot read"):
        replay(tmp_path / "absent.jsonl")


def test_recover_truncates_and_continues_numbering(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    live = write_sample(path)
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"seq": 6, "torn": ')
    journal, store = Journal.recover(path)
    with journal:
        assert store == live
        assert journal.seq == store.seq == 5
        assert path.read_bytes() == intact  # torn tail gone from disk
        record = journal.append("request_assignment", {"user": 0})
        assert record["seq"] == 6
        store.apply(record)
    recovered, _ = replay(path)
    assert recovered == store


def test_recover_zero_length_journal_returns_empty_store(tmp_path: Path) -> None:
    # Crash window of journal creation: the file exists but not one byte
    # of the header became durable. With a config, recovery starts clean.
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"")
    journal, store = Journal.recover(path, config=CONFIG)
    with journal:
        assert store.seq == 0
        assert store.n_events == store.n_users == 0
        assert journal.last_recovery is not None
        assert journal.last_recovery.rung == "recreate"
        # The file was rewritten with a durable header; appends work.
        record = journal.append("register_user",
                                {"capacity": 1, "attributes": [1.0, 1.0]})
        assert record["seq"] == 1
        store.apply(record)
    recovered, _ = replay(path)
    assert recovered == store


def test_recover_header_only_journal_returns_empty_store(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    Journal.create(path, CONFIG).close()
    journal, store = Journal.recover(path)
    with journal:
        assert store.seq == 0
        assert store == ArrangementStore(CONFIG)
        assert journal.last_recovery is not None
        assert journal.last_recovery.rung == "full-replay"
        assert journal.append("freeze_event", {"event": 0})["seq"] == 1


def test_recover_partial_header_line_is_recreate_not_corruption(
    tmp_path: Path,
) -> None:
    # A torn *header* write (no trailing newline) is the same crash
    # window as a zero-length file: nothing durable yet.
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"format": "geacc-serv')
    journal, store = Journal.recover(path, config=CONFIG)
    journal.close()
    assert store.seq == 0
    assert journal.last_recovery is not None
    assert journal.last_recovery.rung == "recreate"


def test_recover_leaves_a_foreign_headerless_file_alone(tmp_path: Path) -> None:
    # No newline, but no header begins with these bytes: not a torn
    # journal header, so recovery must neither recreate nor overwrite it.
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"occupied")
    with pytest.raises(JournalError, match="not a journal"):
        Journal.recover(path, config=CONFIG)
    assert path.read_bytes() == b"occupied"


def test_torn_header_prefixes_of_a_written_header_still_recreate(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    Journal.create(path, CONFIG).close()
    header = path.read_bytes()
    assert header.startswith(b'{"base_seq":')
    for cut in (1, 5, len(header) // 2, len(header) - 1):
        path.write_bytes(header[:cut])
        journal, store = Journal.recover(path, config=CONFIG)
        journal.close()
        assert journal.last_recovery.rung == "recreate"
        assert store == ArrangementStore(CONFIG)
        assert path.read_bytes() == header


def resource_warnings(action) -> list:
    """The ResourceWarnings raised while ``action`` runs and garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_a_service_that_cannot_start_leaves_no_journal_behind(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"

    def create_without_snapshot_dir() -> None:
        with pytest.raises(ServiceError, match="compact_bytes requires a snapshot_dir"):
            ArrangementService.create(path, CONFIG, compact_bytes=10, threaded=False)

    assert resource_warnings(create_without_snapshot_dir) == []
    assert not path.exists()
    # The corrected retry creates the journal afresh.
    with ArrangementService.create(
        path, CONFIG, compact_bytes=10, snapshot_dir=tmp_path / "snaps", threaded=False
    ) as service:
        assert service.journal.seq == 0


def test_a_recovered_service_that_cannot_start_closes_its_journal(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    write_sample(path)
    intact = path.read_bytes()

    def recover_without_snapshot_dir() -> None:
        with pytest.raises(ServiceError, match="compact_bytes requires a snapshot_dir"):
            ArrangementService.recover(path, compact_bytes=10, threaded=False)

    assert resource_warnings(recover_without_snapshot_dir) == []
    assert path.read_bytes() == intact


def test_recover_headerless_journal_without_config_raises(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"")
    with pytest.raises(JournalError, match="no durable journal header"):
        Journal.recover(path)


def test_iter_records_reports_durable_offsets(tmp_path: Path) -> None:
    path = tmp_path / "j.jsonl"
    write_sample(path)
    blob = path.read_bytes()
    offsets = [offset for _, offset in iter_records(path)]
    assert offsets[-1] == len(blob)
    assert offsets == sorted(offsets)
    # Each offset lands exactly one byte past a newline.
    assert all(blob[offset - 1:offset] == b"\n" for offset in offsets)


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob + b'{"cmd":"request_assignment","seq":6,"user":0}\n',  # extra line
        lambda blob: blob + b'{"cmd":"req',  # torn tail
        lambda blob: blob[: blob.rindex(b"\n", 0, len(blob) - 1) + 1],  # lost record
        lambda blob: blob.replace(b'"seq":3', b'"seq":9'),  # wrong seq kept
    ],
)
def test_rewrite_tail_refuses_a_file_that_is_not_the_live_journal(
    tmp_path: Path, damage
) -> None:
    path = tmp_path / "j.jsonl"
    write_sample(path)
    journal, _ = Journal.recover(path)
    with journal:
        path.write_bytes(damage(path.read_bytes()))
        before = path.read_bytes()
        with pytest.raises(JournalError):
            journal.rewrite_tail(2)
        assert path.read_bytes() == before


def test_journal_naming_dot_is_refused_and_left_as_it_is(tmp_path: Path) -> None:
    # The service once accepted the rescaled ``dot`` metric; its engine
    # then solved against similarities no other reader of the store
    # used. Such a journal is refused on recovery, torn tail and all,
    # and not a byte of it changes.
    path = tmp_path / "j.jsonl"
    write_sample(path)
    header, *records = path.read_bytes().splitlines(keepends=True)
    header_fields = json.loads(header)
    header_fields["config"]["metric"] = "dot"
    blob = encode_line(header_fields) + b"".join(records) + b'{"seq":6,"cmd":"req'
    path.write_bytes(blob)
    for recover in (
        lambda: Journal.recover(path),
        lambda: ArrangementService.recover(path, threaded=False),
        lambda: replay(path),
    ):
        with pytest.raises(JournalError, match="metric 'dot'"):
            recover()
        assert path.read_bytes() == blob
