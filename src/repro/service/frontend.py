"""One shard's service stack: journaled commands over a store + engine.

:class:`ArrangementService` is what a
:class:`~repro.service.sharding.ShardCoordinator` composes and drives
once per shard; an unsharded deployment is a one-shard fleet. Every front end -- the HTTP
API, ``geacc replay``, ``geacc compact`` -- holds the coordinator, not
this class. One service owns

* the :class:`~repro.service.store.ArrangementStore` (live state),
* the :class:`~repro.service.journal.Journal` (durability), and
* the :class:`~repro.service.engine.MicroBatchEngine` (solving),

and enforces the write-ahead discipline: validate -> journal (fsync) ->
apply, all under one state lock, so every state the store ever reaches
is reconstructible from the journal prefix that produced it.

With a ``snapshot_dir`` the service also owns the snapshot/compaction
lifecycle (:mod:`repro.service.snapshot`): recovery walks the snapshot
+ tail ladder instead of full replay, :meth:`ArrangementService.compact`
trims the journal behind a fresh checksummed snapshot, and
``compact_bytes`` arms an automatic trigger on journal growth.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.engine import (
    DEFAULT_BATCH_MS,
    DEFAULT_MAX_PENDING,
    DEFAULT_SOLVE_TIMEOUT,
    MicroBatchEngine,
    PendingRequest,
)
from repro.service.journal import REAL_FS, FileSystem, Journal
from repro.service.snapshot import (
    DEFAULT_RETAIN,
    CompactionStats,
    compact,
    list_snapshots,
)
from repro.service.store import (
    CMD_CANCEL_EVENT,
    CMD_COMMIT_BATCH,
    CMD_FREEZE_EVENT,
    CMD_POST_EVENT,
    CMD_REGISTER_USER,
    CMD_REQUEST_ASSIGNMENT,
    CMD_RETIRE_EVENT,
    CMD_RETIRE_USER,
    ArrangementStore,
    Delta,
    StoreConfig,
    as_event_ids,
    as_vector,
)

#: Default wait allowance for a blocking assignment request: generously
#: past one batch window + one solve deadline.
DEFAULT_REQUEST_WAIT = 30.0


class ArrangementService:
    """One shard's journaled arrangement service (see the module docstring).

    Build with :meth:`create` (fresh journal) or :meth:`recover`
    (existing journal -> reconstructed state); pass ``threaded=False``
    to drive batches synchronously (tests, deterministic load
    generation) instead of via the background engine thread.
    """

    def __init__(
        self,
        store: ArrangementStore,
        journal: Journal,
        *,
        batch_ms: float = DEFAULT_BATCH_MS,
        solve_timeout: float = DEFAULT_SOLVE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
        threaded: bool = True,
        snapshot_dir: str | Path | None = None,
        retain: int = DEFAULT_RETAIN,
        compact_bytes: int | None = None,
    ) -> None:
        if store.seq != journal.seq:
            raise ServiceError(
                f"store seq {store.seq} does not match journal seq {journal.seq}"
            )
        if compact_bytes is not None and snapshot_dir is None:
            raise ServiceError("compact_bytes requires a snapshot_dir")
        self.store = store
        self.journal = journal
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self.retain = retain
        self.compact_bytes = compact_bytes
        self.compactions = 0
        self.last_compaction: CompactionStats | None = None
        # Test hook for the kill-mid-compaction smoke scenario (hard
        # process exit between snapshot write and journal trim).
        self._crash_after_snapshot = False
        self._lock = threading.RLock()
        self.engine = MicroBatchEngine(
            self,
            batch_ms=batch_ms,
            solve_timeout=solve_timeout,
            max_pending=max_pending,
        )
        self._threaded = threaded
        self._closed = False
        if threaded:
            self.engine.start()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        journal_path: str | Path,
        config: StoreConfig,
        *,
        fs: FileSystem = REAL_FS,
        **kwargs: object,
    ) -> "ArrangementService":
        """Start a brand-new service with an empty journal.

        If the service cannot start (an invalid option), the journal
        just created is closed and removed, so a corrected call can
        create it again.
        """
        journal = Journal.create(journal_path, config, fs=fs)
        try:
            return cls(ArrangementStore(config), journal, **kwargs)  # type: ignore[arg-type]
        except BaseException:
            journal.close()
            fs.remove(journal.path)
            raise

    @classmethod
    def recover(
        cls,
        journal_path: str | Path,
        *,
        snapshot_dir: str | Path | None = None,
        config: StoreConfig | None = None,
        fs: FileSystem = REAL_FS,
        **kwargs: object,
    ) -> "ArrangementService":
        """Restart from an existing journal (truncating any torn tail).

        With ``snapshot_dir``, recovery walks the degradation ladder
        (newest snapshot + tail -> older snapshot -> full replay) and
        the service keeps compacting into that directory. ``config`` is
        the last-rung safety net: an empty/headerless journal with no
        snapshots recovers to a fresh empty store instead of failing.
        If the service cannot start, the journal is closed again.
        """
        journal, store = Journal.recover(
            journal_path, snapshot_dir=snapshot_dir, config=config, fs=fs
        )
        try:
            return cls(store, journal, snapshot_dir=snapshot_dir, **kwargs)  # type: ignore[arg-type]
        except BaseException:
            journal.close()
            raise

    # ------------------------------------------------------------------
    # The write-ahead spine
    # ------------------------------------------------------------------

    def _journal_and_apply(self, cmd: str, args: dict) -> dict:
        """Durably journal one accepted command, then mutate the store."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            record = self.journal.append(cmd, args)
            self.store.apply(record)
            if (
                self.compact_bytes is not None
                and self.journal.size_bytes >= self.compact_bytes
            ):
                self._compact_locked()
            return record

    def _accept(self, cmd: str, args: dict) -> tuple[int, int]:
        """Validate, journal and apply one command in one hold of the lock.

        Returns the store's ``(n_events, n_users)`` as of that same hold,
        so the id a post or registration created cannot be shifted by
        another thread's command landing right after it.
        """
        with self._lock:
            self.store.validate_command(cmd, args)
            self._journal_and_apply(cmd, args)
            return self.store.n_events, self.store.n_users

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def post_event(
        self,
        capacity: int,
        attributes: list[float],
        conflicts: list[int] | None = None,
    ) -> int:
        """Post a new event; returns its (stable) id."""
        n_events, _ = self._accept(
            CMD_POST_EVENT,
            {
                "capacity": capacity,
                "attributes": as_vector(attributes),
                "conflicts": as_event_ids(conflicts),
            },
        )
        return n_events - 1

    def register_user(self, capacity: int, attributes: list[float]) -> int:
        """Register a new user; returns their (stable) id."""
        _, n_users = self._accept(
            CMD_REGISTER_USER,
            {"capacity": capacity, "attributes": as_vector(attributes)},
        )
        return n_users - 1

    def request_assignment(
        self,
        user: int,
        *,
        wait: bool = True,
        timeout: float = DEFAULT_REQUEST_WAIT,
    ) -> tuple[int, ...] | PendingRequest:
        """Ask the engine to (re)arrange ``user``.

        The request is admission-checked first (a full queue rejects
        with :class:`~repro.exceptions.ServiceOverloadedError` before
        anything is journaled), then journaled, then queued for the next
        micro-batch.

        Returns:
            The user's standing events after the batch commits
            (``wait=True``), or the :class:`PendingRequest` future
            (``wait=False``).
        """
        with self._lock:
            self.store.validate_command(CMD_REQUEST_ASSIGNMENT, {"user": user})
            request = self.engine.admit(user)
            self._journal_and_apply(CMD_REQUEST_ASSIGNMENT, {"user": user})
        if not self._threaded or not wait:
            return request if not wait else self._wait_synchronous(request, timeout)
        return request.wait(timeout)

    def _wait_synchronous(
        self, request: PendingRequest, timeout: float
    ) -> tuple[int, ...]:
        # No engine thread: the caller's own thread drives the batch.
        self.engine.run_pending_batch()
        return request.wait(timeout)

    def freeze_event(self, event: int) -> None:
        """Freeze ``event``: its attendee list is now final."""
        self._accept(CMD_FREEZE_EVENT, {"event": event})

    def cancel_event(self, event: int) -> None:
        """Cancel an un-frozen event, releasing every seat it held."""
        self._accept(CMD_CANCEL_EVENT, {"event": event})

    def retire_event(self, event: int) -> None:
        """Tombstone ``event`` after its state migrated to another shard.

        The rebalance protocol's source-side command: releases every
        seat (frozen ones included -- the migrated copy owns them now)
        and leaves a cancelled husk so ids stay dense. Not exposed over
        HTTP; only :mod:`repro.service.sharding` issues it.
        """
        self._accept(CMD_RETIRE_EVENT, {"event": event})

    def retire_user(self, user: int) -> None:
        """Tombstone a migrated user (capacity drops to zero)."""
        self._accept(CMD_RETIRE_USER, {"user": user})

    def commit_delta(self, delta: Delta, users: list[int] | None = None) -> None:
        """Journal and apply an externally solved arrangement delta.

        The rebalance protocol's target-side command: the coordinator
        re-creates migrated seats as one ``commit_batch`` record, the
        same record shape the engine writes, so replay stays oblivious
        to whether a batch came from a solve or a migration.
        """
        if not delta:
            return
        self._accept(
            CMD_COMMIT_BATCH, {**delta.to_json(), "users": sorted(users or [])}
        )

    def run_pending_batch(self) -> int:
        """Drive one batch synchronously (no-thread mode and tests)."""
        return self.engine.run_pending_batch()

    # ------------------------------------------------------------------
    # Snapshots & compaction
    # ------------------------------------------------------------------

    def compact(self) -> CompactionStats:
        """Snapshot the current state and trim the journal to the tail.

        The ``POST /compact`` admin operation. Requires the service to
        have a snapshot directory.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if self.snapshot_dir is None:
                raise ServiceError(
                    "service has no snapshot directory; start it with one to "
                    "enable compaction"
                )
            return self._compact_locked()

    def _compact_locked(self) -> CompactionStats:
        assert self.snapshot_dir is not None
        stats = compact(
            self.journal,
            self.store,
            self.snapshot_dir,
            retain=self.retain,
            fs=self.journal.fs,
            crash_after_snapshot=self._crash_after_snapshot,
        )
        self.compactions += 1
        self.last_compaction = stats
        return stats

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """The store's journal sequence number (this shard's alone).

        A :class:`~repro.service.sharding.ShardCoordinator` reports the
        sum over its shards as the fleet's ``seq``.
        """
        with self._lock:
            return self.store.seq

    def state_summary(self) -> dict:
        """A compact, JSON-ready health/state view (one shard's row of
        ``GET /state``'s ``sharding.per_shard``)."""
        with self._lock:
            store = self.store
            return {
                "seq": store.seq,
                "n_events": store.n_events,
                "n_users": store.n_users,
                "n_assignments": store.n_assignments,
                "open_events": len(store.open_events()),
                "requests_seen": store.requests_seen,
                "batches_committed": store.batches_committed,
                "pending": self.engine.pending,
                "engine": self.engine.engine_summary(),
                "max_sum": store.max_sum(),
                "digest": store.digest(),
                "journal_bytes": self.journal.size_bytes,
                "journal_base_seq": self.journal.base_seq,
                "snapshots": self._snapshot_summary_locked(),
                "last_recovery": (
                    None
                    if self.journal.last_recovery is None
                    else self.journal.last_recovery.to_json()
                ),
            }

    def _snapshot_summary_locked(self) -> dict | None:
        if self.snapshot_dir is None:
            return None
        listed = list_snapshots(self.snapshot_dir, fs=self.journal.fs)
        return {
            "dir": str(self.snapshot_dir),
            "count": len(listed),
            "newest_seq": listed[0][0] if listed else None,
            "retain": self.retain,
            "compactions": self.compactions,
            "auto_compact_bytes": self.compact_bytes,
        }

    def check_invariants(self) -> None:
        with self._lock:
            self.store.check_invariants()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the engine (flushing one final batch) and the journal."""
        if self._closed:
            return
        if self._threaded:
            self.engine.stop()
        else:
            self.engine.run_pending_batch()
        with self._lock:
            self._closed = True
            self.journal.close()

    def __enter__(self) -> "ArrangementService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ArrangementService({self.store!r}, journal={self.journal.path})"
