"""The shard manifest: the coordinator's own write-ahead log.

Shard journals are deliberately self-contained -- each one replays to
its shard's state with *local* entity ids and knows nothing about the
other shards. What they cannot answer is the routing question: which
global id lives on which shard, and in what local slot. The manifest is
the coordinator's durable answer: an fsync'd JSONL file (a
:class:`~repro.service.journal.JsonlLog`, the same implementation the
journal is built on, through the same
:class:`~repro.service.journal.FileSystem` seam so ``FaultFS`` can
crash it at any instruction) holding one entry per globally-visible
placement decision:

* ``{"n": k, "kind": "event", "gid": g, "shard": s}`` -- global event
  ``g`` was placed on shard ``s`` (local id = its per-shard arrival
  order);
* ``{"n": k, "kind": "user", "gid": g, "shard": s}`` -- likewise for a
  user;
* ``{"n": k, "kind": "rebalance", ...}`` -- a component merge moved
  state between shards; the entry carries the **full redo payload**
  (moved events/users with attributes, conflicts as global ids, the
  standing assignments, and the target shard's pre-migration entity
  counts) so recovery can finish a half-applied migration
  deterministically.

Write-ahead ordering: the manifest entry is durable *before* the
corresponding shard-journal append. The coordinator serialises
placement mutations, so after a crash at most the trailing manifest
entries are unacknowledged -- recovery reconciles entry counts against
each shard's actual state and drops the overhang
(:meth:`ShardManifest.load` + the coordinator's recovery walk).

A torn final line is truncated by the journal's own code; a mid-file
gap or foreign header raises :class:`~repro.exceptions.JournalError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from repro.exceptions import JournalError
from repro.service.journal import REAL_FS, FileSystem, JsonlLog, encode_line
from repro.service.store import StoreConfig

#: Manifest format tag (header ``format`` field).
MANIFEST_FORMAT = "geacc-shard-manifest-v1"

#: Entry kinds a manifest line may carry.
ENTRY_KINDS = frozenset({"event", "user", "rebalance"})


class ShardManifest(JsonlLog):
    """Append-only fsync'd placement log for one shard fleet."""

    FORMAT = MANIFEST_FORMAT
    COUNTER = "n"
    NOUN = "manifest"

    def __init__(
        self,
        path: Path,
        config: StoreConfig,
        shards: int,
        n: int,
        handle: IO[bytes],
        *,
        fs: FileSystem = REAL_FS,
        size_bytes: int = 0,
    ) -> None:
        super().__init__(path, handle, size_bytes=size_bytes, fs=fs)
        self.config = config
        self.shards = shards
        self.n = n

    @classmethod
    def _parse_header(cls, header: object, path: Path) -> tuple[object, int]:
        header = cls._check_format(header, path)
        shards = header.get("shards")
        if not isinstance(shards, int) or shards < 1:
            raise JournalError(f"{path}: malformed shard count {shards!r}")
        return header, 1

    @staticmethod
    def _header(config: StoreConfig, shards: int) -> bytes:
        return encode_line(
            {"format": MANIFEST_FORMAT, "shards": shards, "config": config.to_json()}
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        config: StoreConfig,
        shards: int,
        *,
        fs: FileSystem = REAL_FS,
    ) -> "ShardManifest":
        """Start a fresh manifest; refuses to overwrite an existing one."""
        path = Path(path)
        if shards < 1:
            raise JournalError(f"shards must be >= 1, got {shards}")
        if fs.exists(path):
            raise JournalError(f"{path}: manifest already exists (use load)")
        blob = cls._header(config, shards)
        handle = cls._create_file(path, blob, fs)
        return cls(path, config, shards, n=0, handle=handle, fs=fs, size_bytes=len(blob))

    @classmethod
    def load(
        cls, path: str | Path, *, fs: FileSystem = REAL_FS
    ) -> tuple["ShardManifest", list[dict]]:
        """Re-open an existing manifest, truncating any torn tail.

        Returns the manifest (positioned for append) plus every durable
        entry in order. Validation is the journal's (contiguous ``n``
        starting at 1, decodable JSON everywhere but the final line)
        plus known entry kinds.
        """
        path = Path(path)
        lines = list(cls.scan(path, fs))
        if not lines:
            raise JournalError(f"{path}: manifest has no durable header")
        header: dict = lines[0][0]  # type: ignore[assignment]
        entries: list[dict] = [entry for entry, _ in lines[1:]]  # type: ignore[misc]
        for entry in entries:
            if entry.get("kind") not in ENTRY_KINDS:
                raise JournalError(f"{path}: malformed manifest entry {entry!r}")
        durable_bytes = lines[-1][1]
        manifest = cls(
            path,
            StoreConfig.from_json(header.get("config", {})),
            header["shards"],
            n=len(entries),
            handle=cls._reopen(path, durable_bytes, fs),
            fs=fs,
            size_bytes=durable_bytes,
        )
        return manifest, entries

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def append(self, kind: str, payload: dict) -> dict:
        """Durably record one placement entry; returns it with ``n`` set."""
        if kind not in ENTRY_KINDS:
            raise JournalError(f"unknown manifest entry kind {kind!r}")
        entry = {"n": self.n + 1, "kind": kind, **payload}
        self._write_record(entry)
        self.n += 1
        return entry

    def rewrite(self, entries: list[dict]) -> None:
        """Atomically replace the manifest body with ``entries``.

        Recovery's reconciliation step: after dropping unacknowledged
        trailing entries the on-disk file is rewritten (renumbered from
        1) via the tmp + fsync + rename + dir-fsync helper, then
        re-opened for append. A crash mid-rewrite leaves either the old
        or the new manifest, never a mix.
        """
        body = b"".join(
            encode_line({**entry, "n": index + 1}) for index, entry in enumerate(entries)
        )
        self._replace(self._header(self.config, self.shards) + body)
        self.n = len(entries)

    def __repr__(self) -> str:
        return (
            f"ShardManifest({self.path}, shards={self.shards}, n={self.n})"
        )
