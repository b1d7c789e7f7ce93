"""Write-ahead journal: an fsync'd JSONL log of accepted commands.

Durability contract (:class:`JsonlLog`'s, so it holds for all three
logs built on it: this journal, the shard manifest of
:mod:`repro.service.sharding.manifest` and the sweep checkpoint of
:mod:`repro.experiments.runner`; the header and records described
here are the journal's):

* the header line names the format and carries the immutable
  :class:`~repro.service.store.StoreConfig` plus the journal's **base
  sequence number** -- 0 for a journal that starts at the beginning of
  history, ``B`` for a journal compacted against a snapshot at seq
  ``B`` (records before ``B + 1`` were trimmed away and live in a
  snapshot, see :mod:`repro.service.snapshot`);
* every accepted command is appended as one JSON line -- written,
  flushed and ``fsync``'d **before** the store mutates (write-ahead);
* records carry contiguous sequence numbers starting at ``base_seq +
  1``, assigned by the journal, so replay can prove it saw every
  accepted command;
* a torn *final* line (the crash window is exactly one partial
  ``write``) is detected -- undecodable JSON or a missing trailing
  newline -- truncated away, and its command counts as never accepted
  (the client never got an acknowledgement for it);
* anything else wrong -- foreign header, mid-file garbage, a sequence
  gap -- raises :class:`~repro.exceptions.JournalError`: that journal
  was not produced by this code crashing, and guessing would corrupt
  state.

:func:`replay` folds a journal back into a fresh
:class:`~repro.service.store.ArrangementStore` (or onto a snapshot-
restored base store for a compacted journal); because the store is a
pure state machine over records (solver outputs are journaled as
``commit_batch`` deltas, never re-solved), replay is deterministic and
independent of the micro-batch boundaries, solver timing, and thread
scheduling of the process that wrote the journal.

Every byte this module (and :mod:`repro.service.snapshot`) moves to
disk goes through a :class:`FileSystem` seam, so the fault-injection
layer in :mod:`repro.robustness.faultfs` can substitute an in-memory
filesystem and enumerate a crash at every write/flush/fsync/rename.
These two modules are the only files under ``src/repro/service/``
allowed to open files for writing (lint rule R14,
``docs/static-analysis.md``); everything else must route through
:func:`atomic_write_bytes` or :class:`JsonlLog`, the append-only log
the journal, the shard manifest and the sweep checkpoint are built on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from repro.exceptions import JournalError
from repro.service.store import ArrangementStore, StoreConfig, canonical_json

#: First-line format marker of every service journal.
JOURNAL_FORMAT = "geacc-service-v1"


class FileSystem:
    """Real-filesystem durability primitives (the fault-injection seam).

    The journal and snapshot layers never call ``open``/``os.fsync``/
    ``os.replace`` directly on module level state -- they go through an
    instance of this class (:data:`REAL_FS` in production), so
    :class:`repro.robustness.faultfs.FaultFS` can substitute an
    in-memory filesystem and inject a crash before any single
    durability-relevant operation.
    """

    def open(self, path: str | Path, mode: str) -> IO[bytes]:
        return open(path, mode)

    def fsync(self, handle: IO[bytes]) -> None:
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str | Path) -> None:
        """Flush a directory entry table (makes renames/creates durable)."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def remove(self, path: str | Path) -> None:
        os.remove(path)

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def exists(self, path: str | Path) -> bool:
        return Path(path).exists()

    def is_dir(self, path: str | Path) -> bool:
        return Path(path).is_dir()

    def listdir(self, path: str | Path) -> list[str]:
        return os.listdir(path)

    def mkdir(self, path: str | Path) -> None:
        os.makedirs(path, exist_ok=True)


#: The production filesystem; tests substitute a ``FaultFS``.
REAL_FS = FileSystem()


def atomic_write_bytes(
    path: str | Path, blob: bytes, fs: FileSystem = REAL_FS
) -> None:
    """Write ``blob`` to ``path`` atomically and durably.

    tmp file + write + flush + fsync + rename + directory fsync: after
    this returns the bytes are durable under ``path``; a crash at any
    point leaves either the old file or the new one, never a mix. This
    is the one sanctioned write primitive for ``repro.service`` code
    outside the journal/snapshot modules (lint rule R14).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp_handle = fs.open(tmp, "wb")
    tmp_handle.write(blob)
    tmp_handle.flush()
    fs.fsync(tmp_handle)
    tmp_handle.close()
    fs.replace(tmp, path)
    fs.fsync_dir(path.parent)


def encode_line(record: dict) -> bytes:
    """One log line: compact, key-sorted JSON plus a newline."""
    return canonical_json(record) + b"\n"


class JsonlLog:
    """An append-only, fsync'd JSONL file: journal, manifest, sweep checkpoint.

    Line 1 is a header whose ``format`` field is :attr:`FORMAT`; every
    later line is a record whose :attr:`COUNTER` field counts up by one
    from the value the header implies. The durability contract is the
    module docstring's; subclasses define the header and record shapes.
    """

    #: Header ``format`` tag.
    FORMAT = ""
    #: Record field holding the contiguous counter.
    COUNTER = ""
    #: What error messages call this file.
    NOUN = "log"

    def __init__(
        self,
        path: Path,
        handle: IO[bytes] | None,
        *,
        size_bytes: int,
        fs: FileSystem,
    ) -> None:
        self.path = path
        self.size_bytes = size_bytes
        self._fs = fs
        self._handle: IO[bytes] | None = handle

    @property
    def fs(self) -> FileSystem:
        """The filesystem seam this log writes through.

        Everything that persists alongside the log (snapshots, the
        shard manifest) must go through the same seam so fault-injection
        tests see one coherent world.
        """
        return self._fs

    @classmethod
    def _check_format(cls, header: object, path: Path) -> dict:
        if not isinstance(header, dict) or header.get("format") != cls.FORMAT:
            raise JournalError(
                f"{path}: not a {cls.FORMAT} {cls.NOUN} "
                f"(header {str(header)[:80]!r})"
            )
        return header

    @classmethod
    def _parse_header(cls, header: object, path: Path) -> tuple[object, int]:
        """Validate a decoded header; return it parsed plus the first counter."""
        return cls._check_format(header, path), 1

    @classmethod
    def scan(
        cls, path: str | Path, fs: FileSystem = REAL_FS
    ) -> Iterator[tuple[object, int]]:
        """Yield ``(header | record, end_offset)`` pairs from a log file.

        The first yield is the header as :meth:`_parse_header` returns
        it; every later yield is a decoded record dict. ``end_offset`` is
        the byte offset just past that line -- the durable prefix length
        if everything after it were torn away. Record counters are
        checked contiguous.

        A torn final line (no trailing newline, or undecodable JSON on the
        last line) terminates the iteration silently; torn or undecodable
        content *before* the final line raises :class:`JournalError`.
        """
        path = Path(path)
        noun, counter = cls.NOUN, cls.COUNTER
        try:
            blob = fs.read_bytes(path)
        except OSError as exc:
            raise JournalError(f"{path}: cannot read {noun}: {exc}") from exc
        if not blob:
            raise JournalError(f"{path}: empty {noun} (missing header)")
        lines = blob.split(b"\n")
        # A well-formed file ends with a newline, so the final split
        # element is empty; anything else is the torn tail of a crashed
        # append, which the loop never yields.
        lines.pop()
        offset = 0
        expected = 1
        for index, raw in enumerate(lines):
            line_end = offset + len(raw) + 1
            try:
                decoded = json.loads(raw.decode("utf-8"))
                if not isinstance(decoded, dict):
                    raise ValueError(f"record is not an object: {decoded!r}")
            except (ValueError, UnicodeDecodeError) as exc:
                if index == len(lines) - 1:
                    # Crash window: the final complete-looking line can
                    # still be a partial write whose tail contained '\n'.
                    return
                raise JournalError(
                    f"{path}:{index + 1}: corrupt record: {exc}"
                ) from exc
            if index == 0:
                header, expected = cls._parse_header(decoded, path)
                yield header, line_end
            else:
                if decoded.get(counter) != expected:
                    raise JournalError(
                        f"{path}:{index + 1}: sequence gap (expected "
                        f"{expected}, got {decoded.get(counter)!r})"
                    )
                expected += 1
                yield decoded, line_end
            offset = line_end

    @staticmethod
    def _create_file(
        path: Path, header: bytes, fs: FileSystem, mode: str = "xb"
    ) -> IO[bytes]:
        """Write ``header`` as a new file, fsync it and its directory."""
        handle = fs.open(path, mode)
        handle.write(header)
        handle.flush()
        fs.fsync(handle)
        fs.fsync_dir(path.parent)
        return handle

    @staticmethod
    def _reopen(path: Path, durable_bytes: int, fs: FileSystem) -> IO[bytes]:
        """Open for append after cutting everything past ``durable_bytes``."""
        handle = fs.open(path, "r+b")
        handle.truncate(durable_bytes)
        handle.seek(0, os.SEEK_END)
        return handle

    def _write_record(self, record: dict) -> None:
        """Durably append one record line (written, flushed, fsync'd)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: {self.NOUN} is closed")
        blob = encode_line(record)
        self._handle.write(blob)
        self._handle.flush()
        self._fs.fsync(self._handle)
        self.size_bytes += len(blob)

    def _replace(self, blob: bytes) -> None:
        """Atomically replace the whole file with ``blob``; keep appending.

        The live handle closes first, so a failure anywhere leaves the
        log closed rather than appending to a file no longer on disk.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        atomic_write_bytes(self.path, blob, self._fs)
        handle = self._fs.open(self.path, "r+b")
        handle.seek(0, os.SEEK_END)
        self._handle = handle
        self.size_bytes = len(blob)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class JournalHeader:
    """Parsed first line of a journal: the config and the base seq."""

    config: StoreConfig
    base_seq: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """How a recovery reconstructed state (which ladder rung fired).

    ``rung`` is one of :data:`RECOVERY_RUNGS`, fastest first:

    * ``"snapshot+tail"`` -- a snapshot restored, journal tail replayed
      on top (the fast path);
    * ``"snapshot-only"`` -- a snapshot restored and the journal held no
      durable header (crash during journal creation/rewrite); the
      journal file was rewritten from the snapshot's seq;
    * ``"full-replay"`` -- no usable snapshot; the whole journal was
      replayed from seq 1;
    * ``"recreate"`` -- nothing durable existed at all (empty/headerless
      journal, no snapshot) and a config was supplied, so recovery
      returned a fresh empty store.

    ``snapshot_ms`` is the wall time spent reading and verifying
    snapshots (rejected ones included), ``replay_ms`` the time spent
    replaying the journal (the tail, or all of it on ``full-replay``).
    """

    rung: str
    snapshot_seq: int | None = None
    journal_base_seq: int = 0
    records_replayed: int = 0
    snapshots_rejected: tuple[str, ...] = field(default_factory=tuple)
    snapshot_ms: float = 0.0
    replay_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "rung": self.rung,
            "snapshot_seq": self.snapshot_seq,
            "journal_base_seq": self.journal_base_seq,
            "records_replayed": self.records_replayed,
            "snapshots_rejected": list(self.snapshots_rejected),
            "snapshot_ms": self.snapshot_ms,
            "replay_ms": self.replay_ms,
        }


#: The recovery ladder's rungs, fastest first.
RECOVERY_RUNGS = ("snapshot+tail", "snapshot-only", "full-replay", "recreate")


def read_header(path: str | Path, fs: FileSystem = REAL_FS) -> JournalHeader | None:
    """Parse a journal's durable header line, if one exists.

    Returns ``None`` when the file is missing, empty, or holds no
    *complete* (newline-terminated) first line -- the crash window of
    journal creation, where nothing of the journal is durable yet.
    A complete-but-foreign/undecodable header raises
    :class:`JournalError` (that file was not produced by this code).
    """
    path = Path(path)
    try:
        blob = fs.read_bytes(path)
    except OSError:
        return None
    newline = blob.find(b"\n")
    if newline < 0:
        return None
    try:
        header = json.loads(blob[:newline].decode("utf-8", errors="replace"))
    except json.JSONDecodeError as exc:
        raise JournalError(f"{path}: unreadable journal header: {exc}") from exc
    return Journal._parse_header(header, path)[0]


class Journal(JsonlLog):
    """An append-only, fsync'd JSONL write-ahead journal.

    Use :meth:`create` for a fresh journal or :meth:`recover` to open an
    existing one (truncating a torn tail); both return a journal whose
    :attr:`seq` continues the record numbering exactly where the file
    left off. :attr:`base_seq` is the seq of the snapshot this journal
    was last compacted against (0 = full history);
    :attr:`size_bytes` tracks the live file size so the front-end can
    trigger compaction on growth.
    """

    FORMAT = JOURNAL_FORMAT
    COUNTER = "seq"
    NOUN = "journal"

    def __init__(
        self,
        path: Path,
        config: StoreConfig,
        seq: int,
        handle: IO[bytes],
        *,
        base_seq: int = 0,
        size_bytes: int = 0,
        fs: FileSystem = REAL_FS,
        last_recovery: RecoveryReport | None = None,
    ):
        super().__init__(path, handle, size_bytes=size_bytes, fs=fs)
        self.config = config
        self.seq = seq
        self.base_seq = base_seq
        self.last_recovery = last_recovery

    @classmethod
    def _parse_header(cls, header: object, path: Path) -> tuple[JournalHeader, int]:
        header = cls._check_format(header, path)
        base_seq = header.get("base_seq", 0)
        if not isinstance(base_seq, int) or base_seq < 0:
            raise JournalError(f"{path}: malformed journal base_seq {base_seq!r}")
        parsed = JournalHeader(
            config=StoreConfig.from_json(header.get("config", {})),
            base_seq=base_seq,
        )
        return parsed, base_seq + 1

    @staticmethod
    def _header(config: StoreConfig, base_seq: int) -> bytes:
        return encode_line(
            {"format": JOURNAL_FORMAT, "config": config.to_json(), "base_seq": base_seq}
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        config: StoreConfig,
        *,
        base_seq: int = 0,
        fs: FileSystem = REAL_FS,
    ) -> "Journal":
        """Start a new journal; refuses to overwrite an existing file.

        The header is fsync'd and so is the parent directory, so a
        journal either exists durably with a complete header or (crash
        mid-create) recovery sees nothing and starts over.
        """
        path = Path(path)
        if fs.exists(path):
            raise JournalError(f"{path}: journal already exists (use recover)")
        blob = cls._header(config, base_seq)
        return cls(
            path,
            config,
            seq=base_seq,
            handle=cls._create_file(path, blob, fs),
            base_seq=base_seq,
            size_bytes=len(blob),
            fs=fs,
        )

    @classmethod
    def recover(
        cls,
        path: str | Path,
        *,
        snapshot_dir: str | Path | None = None,
        config: StoreConfig | None = None,
        fs: FileSystem = REAL_FS,
    ) -> tuple["Journal", ArrangementStore]:
        """Reopen ``path``, reconstruct its state, and continue appending.

        Recovery walks the degradation ladder
        (:func:`repro.service.snapshot.recover_state`): newest loadable
        snapshot in ``snapshot_dir`` + journal tail -> older snapshot +
        tail -> full journal replay -> :class:`JournalError` only when
        nothing durable survives. Without ``snapshot_dir``, only full
        replay is possible (a compacted journal then refuses to recover
        rather than silently dropping its pre-snapshot history).

        ``config`` is the last rung's safety net: when neither journal
        header nor any snapshot is durable -- a crash during the very
        first journal creation, or an empty/zero-length file -- recovery
        returns a fresh empty store under that config instead of
        failing. Without ``config``, that case raises.

        A torn final line is truncated from the file before the journal
        re-opens for append, so the live file never contains garbage in
        the middle. The chosen rung is recorded on
        ``journal.last_recovery``.

        Returns:
            ``(journal, store)`` -- the journal positioned after the
            last durable record, and the store reconstructed from it.
        """
        from repro.service.snapshot import recover_state

        path = Path(path)
        store, durable_bytes, report = recover_state(
            path, snapshot_dir, config=config, fs=fs
        )
        if durable_bytes < 0:
            # No durable header survived: rewrite the journal outright so
            # the file on disk matches the recovered state (base = the
            # recovered seq; there is no tail to preserve).
            blob = cls._header(store.config, base_seq=store.seq)
            handle = cls._create_file(path, blob, fs, mode="wb")
            base_seq = store.seq
            durable_bytes = len(blob)
        else:
            handle = cls._reopen(path, durable_bytes, fs)
            base_seq = report.journal_base_seq
        journal = cls(
            path,
            store.config,
            seq=store.seq,
            handle=handle,
            base_seq=base_seq,
            size_bytes=durable_bytes,
            fs=fs,
            last_recovery=report,
        )
        return journal, store

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def append(self, cmd: str, args: dict) -> dict:
        """Durably journal one accepted command; returns the record.

        The record -- ``args`` plus the assigned ``seq`` and ``cmd`` --
        is on disk (written, flushed, fsync'd) when this returns: the
        caller may only then mutate the store.
        """
        record = {"seq": self.seq + 1, "cmd": cmd, **args}
        self._write_record(record)
        self.seq += 1
        return record

    def rewrite_tail(self, base_seq: int) -> None:
        """Atomically trim the journal to records after ``base_seq``.

        The compaction primitive: rewrites the file as a fresh header
        (``base_seq`` recorded) plus every record with seq >
        ``base_seq``, via :func:`atomic_write_bytes`. A crash anywhere
        in between leaves either the old journal or the new one -- never
        a mix -- and both replay to the same state given the snapshot at
        ``base_seq`` (which the caller,
        :func:`repro.service.snapshot.compact`, wrote first).

        The kept records are copied byte for byte. A live journal holds
        records ``self.base_seq + 1`` to ``self.seq``, one
        :func:`encode_line` line each after the header, so the tail is
        the file past the header and the first ``base_seq -
        self.base_seq`` records; only the first and last kept records
        are decoded, to confirm their seqs. A file of any other shape
        raises :class:`JournalError` and is left as it is.
        """
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        if base_seq < self.base_seq or base_seq > self.seq:
            raise JournalError(
                f"{self.path}: cannot rebase journal to seq {base_seq} "
                f"(live range is [{self.base_seq}, {self.seq}])"
            )
        try:
            blob = self._fs.read_bytes(self.path)
        except OSError as exc:
            raise JournalError(f"{self.path}: cannot read journal: {exc}") from exc
        lines = blob.split(b"\n")
        if lines.pop() != b"" or len(lines) - 1 != self.seq - self.base_seq:
            raise JournalError(
                f"{self.path}: expected a header and records "
                f"{self.base_seq + 1}..{self.seq}, one per line"
            )
        skipped = 1 + base_seq - self.base_seq
        kept = lines[skipped:]
        if kept:
            for line, seq in ((kept[0], base_seq + 1), (kept[-1], self.seq)):
                try:
                    found = json.loads(line).get(self.COUNTER)
                except (ValueError, AttributeError):
                    found = None
                if found != seq:
                    raise JournalError(
                        f"{self.path}: expected record {seq}, found {line[:80]!r}"
                    )
        start = sum(len(line) + 1 for line in lines[:skipped])
        self._replace(self._header(self.config, base_seq) + blob[start:])
        self.base_seq = base_seq

    def __repr__(self) -> str:
        state = "closed" if self._handle is None else "open"
        return (
            f"Journal({self.path}, seq={self.seq}, base={self.base_seq}, {state})"
        )


#: ``(header | record, end_offset)`` pairs of a journal: the first yield
#: is its :class:`JournalHeader`, and record seqs are checked contiguous
#: from ``header.base_seq + 1``.
iter_records = Journal.scan


def replay(
    path: str | Path,
    *,
    base: ArrangementStore | None = None,
    fs: FileSystem = REAL_FS,
) -> tuple[ArrangementStore, int]:
    """Reconstruct the store a journal describes.

    Without ``base``, the journal must start at the beginning of history
    (``base_seq == 0``) and a fresh store is folded from seq 1. With
    ``base`` -- a snapshot-restored store at some seq ``S`` -- the
    journal's ``base_seq`` must be <= ``S`` (its tail must bridge from
    the snapshot), records at or before ``S`` are skipped, and the rest
    are applied **in place** on ``base``.

    Returns:
        ``(store, durable_bytes)`` -- the rebuilt
        :class:`ArrangementStore` and the byte length of the durable
        prefix (everything past it is a torn tail to truncate).

    Raises:
        JournalError: On a corrupt (not merely torn) journal, or a
            ``base``/journal mismatch.
    """
    store: ArrangementStore | None = None
    durable = 0
    for item, end_offset in iter_records(path, fs=fs):
        if store is None:
            if not isinstance(item, JournalHeader):
                raise JournalError(f"{path}: first record is not a header")
            if base is None:
                if item.base_seq:
                    raise JournalError(
                        f"{path}: compacted journal (base seq {item.base_seq}) "
                        "cannot replay without its snapshot"
                    )
                store = ArrangementStore(item.config)
            else:
                if item.config != base.config:
                    raise JournalError(
                        f"{path}: journal config {item.config.to_json()} does not "
                        f"match snapshot config {base.config.to_json()}"
                    )
                if item.base_seq > base.seq:
                    raise JournalError(
                        f"{path}: journal tail starts at seq {item.base_seq + 1}, "
                        f"past the snapshot at seq {base.seq}"
                    )
                store = base
        else:
            assert isinstance(item, dict)
            if item["seq"] > store.seq:
                # Replay folds records that are already durable: the append
                # this apply answers to happened in the process that wrote
                # the journal.
                store.apply(item)
        durable = end_offset
    if store is None:
        raise JournalError(f"{path}: journal holds no durable header")
    return store, durable
