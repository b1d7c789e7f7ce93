"""CLI surfaces of the durability layer: diagnostics and ``geacc compact``.

``geacc serve`` / ``geacc replay`` exit nonzero with a one-line
diagnostic on a :class:`JournalError` (no traceback for an operational
error), and ``geacc compact`` snapshots + trims every shard journal of
a fleet offline.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.journal import Journal
from repro.service.sharding import ShardCoordinator, ShardManager
from repro.service.snapshot import list_snapshots
from repro.service.store import ArrangementStore, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


def write_journal(path: Path, users: int = 3) -> ArrangementStore:
    journal = Journal.create(path, CONFIG)
    store = ArrangementStore(CONFIG)
    with journal:
        for index in range(users):
            store.apply(
                journal.append(
                    "register_user",
                    {"capacity": 1, "attributes": [float(index), 1.0]},
                )
            )
    return store


def corrupt_journal(path: Path) -> None:
    path.write_text(json.dumps({"format": "not-a-journal"}) + "\n")


def test_serve_exits_2_with_one_line_diagnostic(tmp_path: Path, capsys) -> None:
    journal = tmp_path / "j.jsonl"
    corrupt_journal(journal)
    code = main(["serve", "--journal", str(journal), "--port", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("geacc serve: cannot recover:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert "listening" not in captured.out  # it never bound a socket


def test_replay_exits_2_with_one_line_diagnostic(tmp_path: Path, capsys) -> None:
    journal = tmp_path / "replay.jsonl"
    journal.write_bytes(b"occupied")  # journal creation will refuse this
    code = main(
        [
            "replay",
            "--events", "4",
            "--users", "8",
            "--seed", "0",
            "--horizon", "50",
            "--journal", str(journal),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("geacc replay: journal error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_serve_refuses_a_single_service_journal_file(
    tmp_path: Path, capsys
) -> None:
    # A journal file written by the pre-fleet single service is not
    # adopted as a fleet root.
    journal = tmp_path / "j.jsonl"
    write_journal(journal)
    code = main(
        ["serve", "--journal", str(journal), "--port", "0", "--shards", "2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("geacc serve: cannot recover:")
    assert "is a file, not a fleet root" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert "listening" not in captured.out


def test_serve_refuses_a_metric_the_service_cannot_serve(
    tmp_path: Path, capsys
) -> None:
    root = tmp_path / "fleet"
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--journal", str(root), "--port", "0", "--metric", "dot"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err
    assert not root.exists()


def write_fleet(root: Path, shards: int) -> ShardCoordinator:
    """Events and seated users on every shard; returns the closed fleet."""
    corners = [[1.0, 1.0], [9.0, 9.0], [1.0, 9.0], [9.0, 1.0]][:shards]
    with ShardCoordinator.create(root, CONFIG, shards, threaded=False) as fleet:
        for corner in corners:
            fleet.post_event(capacity=2, attributes=corner)
        for corner in corners:
            user = fleet.register_user(capacity=1, attributes=corner)
            fleet.request_assignment(user)
    return fleet


def shard_seqs(fleet: ShardCoordinator) -> list[int]:
    return [row["seq"] for row in fleet.state_summary()["sharding"]["per_shard"]]


def test_compact_trims_and_reports(tmp_path: Path, capsys) -> None:
    root = tmp_path / "fleet"
    fleet = write_fleet(root, shards=2)
    live, seqs = fleet.arrangement_digest(), shard_seqs(fleet)
    journals = [ShardManager.journal_path(root, shard) for shard in range(2)]
    bytes_before = [len(journal.read_bytes()) for journal in journals]
    code = main(["compact", "--journal", str(root)])
    out = capsys.readouterr().out
    assert code == 0
    for shard, seq in enumerate(seqs):
        assert f"geacc compact: shard {shard} snapshot seq={seq}" in out
        snaps = list_snapshots(ShardManager.snapshot_dir(root, shard))
        assert [snap_seq for snap_seq, _ in snaps] == [seq]
        assert len(journals[shard].read_bytes()) < bytes_before[shard]
    # The compacted journals + snapshots still recover the exact state.
    with ShardCoordinator.recover(root, threaded=False) as recovered:
        assert recovered.arrangement_digest() == live
        rows = recovered.state_summary()["sharding"]["per_shard"]
        assert [row["last_recovery"]["rung"] for row in rows] == ["snapshot+tail"] * 2


def test_compact_twice_honours_retention(tmp_path: Path, capsys) -> None:
    root = tmp_path / "fleet"
    write_fleet(root, shards=1)
    assert main(["compact", "--journal", str(root)]) == 0
    # Grow the journal so the second snapshot lands on a later seq.
    with ShardCoordinator.recover(root, threaded=False) as fleet:
        fleet.register_user(capacity=1, attributes=[5.0, 5.0])
        (seq,) = shard_seqs(fleet)
    assert main(["compact", "--journal", str(root), "--retain", "1"]) == 0
    capsys.readouterr()
    snaps = list_snapshots(ShardManager.snapshot_dir(root, 0))
    assert [snap_seq for snap_seq, _ in snaps] == [seq]


def test_compact_exits_2_on_journal_error(tmp_path: Path, capsys) -> None:
    journal = tmp_path / "j.jsonl"
    corrupt_journal(journal)
    code = main(["compact", "--journal", str(journal)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("geacc compact: cannot recover:")
    assert "Traceback" not in captured.err
