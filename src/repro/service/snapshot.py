"""Checksummed store snapshots + journal compaction + the recovery ladder.

PR 4's write-ahead journal gives exact crash recovery, but recovery
cost is O(journal lifetime) and disk grows without bound. This module
bounds both: a **snapshot** freezes the store's
:meth:`~repro.service.store.ArrangementStore.canonical_state` to disk
atomically, and **compaction** trims the journal to the post-snapshot
tail, so recovery = newest snapshot + tail.

Snapshot file format (``snapshot-<seq:012d>.json``, two lines):

* line 1 -- header: ``{"format": "geacc-snapshot-v1", "seq": S,
  "crc32": <zlib.crc32 of the payload line>, "digest": <the store's
  canonical SHA-256 at seq S>}``;
* line 2 -- payload: the canonical-state dict as compact JSON.

Writes are atomic the classic way: tmp file in the same directory,
write, flush, fsync, rename over the final name, fsync the directory.
A reader therefore sees either the complete old world or the complete
new world; the CRC and digest catch everything else (torn payload from
a dying disk, bit flips, a truncated copy).

Recovery (:func:`recover_state`, wired into
:meth:`repro.service.journal.Journal.recover`) degrades along a
ladder rather than failing hard::

    newest snapshot + journal tail
      -> next-older snapshot + tail      (newest corrupt/partial)
        -> full journal replay           (no usable snapshot, base_seq 0)
          -> fresh empty store           (nothing durable, config given)
            -> JournalError              (nothing durable survives)

Compaction keeps a bounded retention set (:data:`DEFAULT_RETAIN`
newest snapshots) and rebases the journal to the *oldest retained*
snapshot's seq, so every retained snapshot can still bridge to the
journal tail -- falling one rung never loses acknowledged data.

All disk traffic goes through the
:class:`~repro.service.journal.FileSystem` seam so
:mod:`repro.robustness.faultfs` can enumerate a crash at every
write/flush/fsync/rename of the snapshot and compaction paths.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import JournalError, ServiceError, SnapshotError
from repro.service.journal import (
    REAL_FS,
    FileSystem,
    RecoveryReport,
    atomic_write_bytes,
    read_header,
    replay,
)
from repro.service.store import ArrangementStore, StoreConfig, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only (journal imports us lazily)
    from repro.service.journal import Journal

#: First-line format marker of every snapshot file.
SNAPSHOT_FORMAT = "geacc-snapshot-v1"

#: How many snapshots compaction keeps by default (newest first). Two
#: means a corrupt newest snapshot still recovers losslessly from the
#: previous one plus the (correspondingly longer) journal tail.
DEFAULT_RETAIN = 2

_SNAPSHOT_NAME = re.compile(r"snapshot-(\d{12})\.json")


def snapshot_path(directory: str | Path, seq: int) -> Path:
    """The canonical file name for a snapshot at ``seq``."""
    return Path(directory) / f"snapshot-{seq:012d}.json"


def write_snapshot(
    store: ArrangementStore, directory: str | Path, fs: FileSystem = REAL_FS
) -> Path:
    """Atomically write a checksummed snapshot of ``store``.

    Returns the snapshot's path (``snapshot-<seq:012d>.json``). An
    existing snapshot at the same seq is replaced -- the content is
    identical by construction (the store is deterministic in seq).
    """
    directory = Path(directory)
    fs.mkdir(directory)
    payload = canonical_json(store.canonical_state())
    header = {
        "format": SNAPSHOT_FORMAT,
        "seq": store.seq,
        "crc32": zlib.crc32(payload),
        "digest": store.digest(),
    }
    header_line = canonical_json(header)
    path = snapshot_path(directory, store.seq)
    atomic_write_bytes(path, header_line + b"\n" + payload + b"\n", fs)
    return path


def load_snapshot(path: str | Path, fs: FileSystem = REAL_FS) -> ArrangementStore:
    """Load and verify one snapshot file.

    Verification is end-to-end: the CRC covers the payload bytes, and
    the restored store's recomputed canonical digest must equal the one
    the writer recorded -- so a snapshot that loads is byte-for-byte the
    state its writer had.

    Raises:
        SnapshotError: Torn/truncated file, foreign or unreadable
            header, CRC mismatch, malformed payload, or digest mismatch.
            Never fatal on its own: recovery falls one ladder rung down.
    """
    path = Path(path)
    try:
        blob = fs.read_bytes(path)
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    lines = blob.split(b"\n")
    if len(lines) != 3 or lines[2] != b"":
        raise SnapshotError(f"{path}: torn snapshot ({len(blob)} bytes)")
    header_line, payload = lines[0], lines[1]
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: unreadable snapshot header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path}: not a {SNAPSHOT_FORMAT} snapshot "
            f"(header {str(header)[:80]!r})"
        )
    if zlib.crc32(payload) != header.get("crc32"):
        raise SnapshotError(f"{path}: snapshot payload fails its CRC")
    try:
        state = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: unreadable snapshot payload: {exc}") from exc
    try:
        store = ArrangementStore.from_canonical(state)
    except ServiceError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    if store.seq != header.get("seq"):
        raise SnapshotError(
            f"{path}: snapshot seq {header.get('seq')!r} does not match "
            f"payload seq {store.seq}"
        )
    if store.digest() != header.get("digest"):
        raise SnapshotError(f"{path}: restored state fails its canonical digest")
    return store


def list_snapshots(
    directory: str | Path, fs: FileSystem = REAL_FS
) -> list[tuple[int, Path]]:
    """All well-named snapshots in ``directory``, newest (highest seq) first.

    Only complete names match (``snapshot-<seq:012d>.json``); leftover
    ``*.tmp`` files from a crashed atomic write are ignored. A missing
    directory is an empty list, not an error.
    """
    directory = Path(directory)
    try:
        names = fs.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        match = _SNAPSHOT_NAME.fullmatch(name)
        if match:
            found.append((int(match.group(1)), directory / name))
    found.sort(reverse=True)
    return found


@dataclass(frozen=True)
class CompactionStats:
    """What one compaction did (returned by :func:`compact`)."""

    snapshot_seq: int
    base_seq: int
    retained: tuple[int, ...]
    pruned: tuple[int, ...]
    journal_bytes_before: int
    journal_bytes_after: int

    def to_json(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "base_seq": self.base_seq,
            "retained": list(self.retained),
            "pruned": list(self.pruned),
            "journal_bytes_before": self.journal_bytes_before,
            "journal_bytes_after": self.journal_bytes_after,
        }


def compact(
    journal: "Journal",
    store: ArrangementStore,
    directory: str | Path,
    *,
    retain: int = DEFAULT_RETAIN,
    fs: FileSystem = REAL_FS,
    crash_after_snapshot: bool = False,
) -> CompactionStats:
    """Snapshot ``store`` and trim ``journal`` to the post-snapshot tail.

    Steps, each individually crash-atomic so a crash between any two
    leaves a recoverable world:

    1. write a snapshot at the store's current seq (atomic);
    2. rebase the journal to the *oldest retained* snapshot's seq
       (atomic rewrite) -- so every retained snapshot still bridges to
       the tail and falling a ladder rung never loses data;
    3. prune snapshots older than the retention set.

    The caller must hold whatever lock serialises appends (the
    front-end's), and ``store.seq`` must equal ``journal.seq``.

    ``crash_after_snapshot`` is a test hook for the kill-mid-compaction
    smoke scenario: it hard-exits the process (``os._exit``) between
    steps 1 and 2, the widest crash window.

    Raises:
        ServiceError: On a store/journal seq mismatch or retain < 1.
    """
    if retain < 1:
        raise ServiceError(f"retain must be >= 1, got {retain}")
    if store.seq != journal.seq:
        raise ServiceError(
            f"cannot compact: store seq {store.seq} != journal seq {journal.seq}"
        )
    directory = Path(directory)
    bytes_before = journal.size_bytes
    write_snapshot(store, directory, fs)
    if crash_after_snapshot:  # pragma: no cover - exercised via subprocess smoke
        os._exit(137)
    snapshots = list_snapshots(directory, fs)
    retained = snapshots[:retain]
    # Rebase to the oldest retained snapshot so every retained snapshot
    # can still replay the tail; never rebase backwards (a snapshot older
    # than the current base cannot bridge to this journal anyway).
    base_seq = max(min(seq for seq, _ in retained), journal.base_seq)
    journal.rewrite_tail(base_seq)
    pruned = []
    for seq, path in snapshots[retain:]:
        fs.remove(path)
        pruned.append(seq)
    if pruned:
        fs.fsync_dir(directory)
    return CompactionStats(
        snapshot_seq=store.seq,
        base_seq=base_seq,
        retained=tuple(seq for seq, _ in retained),
        pruned=tuple(pruned),
        journal_bytes_before=bytes_before,
        journal_bytes_after=journal.size_bytes,
    )


def recover_state(
    journal_path: str | Path,
    snapshot_dir: str | Path | None,
    *,
    config: StoreConfig | None = None,
    fs: FileSystem = REAL_FS,
) -> tuple[ArrangementStore, int, RecoveryReport]:
    """Walk the recovery degradation ladder.

    Tries, in order: each snapshot newest-to-oldest plus the journal
    tail; full journal replay (only possible when the journal was never
    compacted, ``base_seq == 0``); a fresh empty store under ``config``
    when nothing durable exists at all. Only when every rung is
    exhausted does it raise :class:`JournalError`. Without a
    ``snapshot_dir`` the snapshot rungs are skipped, so a compacted
    journal cannot recover.

    A snapshot that fails verification (:class:`SnapshotError`) or
    cannot bridge to the journal tail is *rejected* -- recorded in the
    report -- and the ladder moves on. A journal whose *middle* is
    corrupt is fatal as ever: every rung replays the same tail bytes,
    so no amount of falling down the ladder can route around it.

    Returns:
        ``(store, durable_bytes, report)`` -- ``durable_bytes`` is the
        journal's durable prefix length, or ``-1`` when the journal
        itself holds no durable header (the caller rewrites the file).
    """
    journal_path = Path(journal_path)
    header = read_header(journal_path, fs)
    rejected: list[str] = []
    snapshots = [] if snapshot_dir is None else list_snapshots(snapshot_dir, fs)
    for snap_seq, snap_file in snapshots:
        try:
            snap = load_snapshot(snap_file, fs)
        except SnapshotError as exc:
            rejected.append(str(exc))
            continue
        if header is None:
            # The journal lost (or never durably gained) its header --
            # the snapshot alone is the durable state.
            return (
                snap,
                -1,
                RecoveryReport(
                    rung="snapshot-only",
                    snapshot_seq=snap_seq,
                    journal_base_seq=snap.seq,
                    snapshots_rejected=tuple(rejected),
                ),
            )
        if header.base_seq > snap_seq:
            rejected.append(
                f"{snap_file}: journal tail starts at seq {header.base_seq + 1}, "
                f"past this snapshot (seq {snap_seq})"
            )
            continue
        store, durable = replay(journal_path, base=snap, fs=fs)
        return (
            store,
            durable,
            RecoveryReport(
                rung="snapshot+tail",
                snapshot_seq=snap_seq,
                journal_base_seq=header.base_seq,
                records_replayed=store.seq - snap_seq,
                snapshots_rejected=tuple(rejected),
            ),
        )
    detail = "; ".join(rejected) or (
        "no snapshots found" if snapshot_dir else "no snapshot directory given"
    )
    if header is None:
        if config is None:
            raise JournalError(
                f"{journal_path}: nothing durable survives (no durable journal "
                f"header, no usable snapshot: {detail})"
            )
        return (
            ArrangementStore(config),
            -1,
            RecoveryReport(rung="recreate", snapshots_rejected=tuple(rejected)),
        )
    if header.base_seq:
        raise JournalError(
            f"{journal_path}: nothing durable survives (journal tail starts at "
            f"seq {header.base_seq + 1}, no usable snapshot: {detail})"
        )
    store, durable = replay(journal_path, fs=fs)
    return (
        store,
        durable,
        RecoveryReport(
            rung="full-replay",
            records_replayed=store.seq,
            snapshots_rejected=tuple(rejected),
        ),
    )
