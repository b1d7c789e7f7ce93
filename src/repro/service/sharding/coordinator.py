"""The shard coordinator: global routing over per-shard service stacks.

:class:`ShardCoordinator` is the sharded counterpart of
:class:`~repro.service.frontend.ArrangementService` and duck-types its
public surface (``post_event`` / ``register_user`` /
``request_assignment`` / ``freeze_event`` / ``cancel_event`` /
``compact`` / ``state_summary`` / ``seq`` / ``assignments_of``), so the
HTTP layer and the load generator can front either one transparently.

Placement follows the conflict graph: every connected component of
conflict edges lives wholly on one shard
(:class:`~repro.service.sharding.partitioner.ConflictPartitioner`
tracks components incrementally), which keeps per-shard solving *exact*
-- events in different components never constrain each other.
Conflict-free events go to the least-loaded shard; users go to the
shard whose live events best match their attributes (highest
similarity), since that is where their assignment mass lies.

Placement mutations are globally serialised through one coordinator
lock and follow a two-level write-ahead discipline: validate against
the target shard, append the placement entry to the
:class:`~repro.service.sharding.manifest.ShardManifest` (fsync), then
issue the shard command (which journals again, locally). A crash
between the two leaves exactly one trailing manifest entry with no
shard-side effect; recovery reconciles and drops it.

The rare cross-shard mutation is a **component merge**: a new event
whose conflict set spans components on different shards. The
coordinator rebalances first -- drain the involved shards, write one
manifest ``rebalance`` entry carrying the full redo payload, migrate
(import on the target, tombstone on the sources), resume -- and only
then admits the merging event, now against a single shard.

Each shard recovers through its own snapshot+tail ladder
(:meth:`~repro.service.sharding.manager.ShardManager.recover`), so a
corrupt shard degrades alone; the coordinator then replays the manifest
to rebuild routing and finish any half-applied rebalance.
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import ExitStack
from pathlib import Path

from repro.exceptions import JournalError, ServiceError
from repro.parallel.maplib import thread_map
from repro.parallel.shardsolve import solve_shard_batch
from repro.service.engine import (
    DEFAULT_BATCH_MS,
    DEFAULT_LADDER,
    DEFAULT_MAX_PENDING,
    DEFAULT_SOLVE_TIMEOUT,
    PendingRequest,
)
from repro.service.frontend import DEFAULT_REQUEST_WAIT
from repro.service.journal import RECOVERY_RUNGS, REAL_FS, FileSystem
from repro.service.sharding.manager import ShardManager
from repro.service.sharding.manifest import ShardManifest
from repro.service.sharding.partitioner import ConflictPartitioner
from repro.service.snapshot import DEFAULT_RETAIN, CompactionStats
from repro.service.store import Delta, StoreConfig, as_event_ids, as_vector

#: The manifest's file name under the shard root directory.
MANIFEST_NAME = "manifest.jsonl"


class ShardedCompactionStats:
    """``POST /compact`` reply for a sharded deployment (one per shard)."""

    def __init__(self, per_shard: list[CompactionStats]) -> None:
        self.per_shard = per_shard

    def to_json(self) -> dict:
        return {"shards": [stats.to_json() for stats in self.per_shard]}


class ShardCoordinator:
    """Routes a global id space onto per-shard service stacks.

    Build with :meth:`create` (fresh shard root), :meth:`recover`
    (existing root -> reconstructed routing), or :meth:`open` (either).
    ``threaded=False`` drives every shard synchronously from the caller
    (deterministic replay and tests); ``shared_solve`` routes shard
    batches through :func:`~repro.parallel.shardsolve.solve_shard_batch`
    (default: enabled exactly when threaded, so concurrent engine
    threads solve zero-copy and the synchronous path stays allocation
    free).
    """

    def __init__(
        self,
        root: Path,
        manifest: ShardManifest,
        managers: list[ShardManager],
        *,
        threaded: bool = True,
    ) -> None:
        self.root = root
        self.manifest = manifest
        self.managers = managers
        self.partitioner = ConflictPartitioner()
        #: Global id -> owning shard (dense; rebalance rewrites in place).
        self._event_shard: list[int] = []
        self._user_shard: list[int] = []
        self.rebalances = 0
        self.last_rebalance: dict | None = None
        self._threaded = threaded
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def _service_kwargs(
        *,
        threaded: bool,
        batch_ms: float,
        solve_timeout: float,
        max_pending: int,
        ladder: tuple[str, ...],
        retain: int,
        compact_bytes: int | None,
        shared_solve: bool | None,
    ) -> dict:
        if shared_solve is None:
            shared_solve = threaded
        return {
            "threaded": threaded,
            "batch_ms": batch_ms,
            "solve_timeout": solve_timeout,
            "max_pending": max_pending,
            "ladder": ladder,
            "retain": retain,
            "compact_bytes": compact_bytes,
            "batch_solver": solve_shard_batch if shared_solve else None,
        }

    @classmethod
    def create(
        cls,
        root: str | Path,
        config: StoreConfig,
        shards: int,
        *,
        fs: FileSystem = REAL_FS,
        threaded: bool = True,
        batch_ms: float = DEFAULT_BATCH_MS,
        solve_timeout: float = DEFAULT_SOLVE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
        ladder: tuple[str, ...] = DEFAULT_LADDER,
        retain: int = DEFAULT_RETAIN,
        compact_bytes: int | None = None,
        shared_solve: bool | None = None,
    ) -> "ShardCoordinator":
        """Create a fresh shard fleet under ``root``."""
        root = Path(root)
        if not fs.exists(root):
            fs.mkdir(root)
        manifest = ShardManifest.create(root / MANIFEST_NAME, config, shards, fs=fs)
        kwargs = cls._service_kwargs(
            threaded=threaded,
            batch_ms=batch_ms,
            solve_timeout=solve_timeout,
            max_pending=max_pending,
            ladder=ladder,
            retain=retain,
            compact_bytes=compact_bytes,
            shared_solve=shared_solve,
        )
        managers = [
            ShardManager.create(root, shard, config, fs=fs, **kwargs)
            for shard in range(shards)
        ]
        return cls(root, manifest, managers, threaded=threaded)

    @classmethod
    def recover(
        cls,
        root: str | Path,
        *,
        fs: FileSystem = REAL_FS,
        threaded: bool = True,
        batch_ms: float = DEFAULT_BATCH_MS,
        solve_timeout: float = DEFAULT_SOLVE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
        ladder: tuple[str, ...] = DEFAULT_LADDER,
        retain: int = DEFAULT_RETAIN,
        compact_bytes: int | None = None,
        shared_solve: bool | None = None,
    ) -> "ShardCoordinator":
        """Restart a shard fleet from its root directory.

        Every shard recovers through its own snapshot+tail ladder
        (concurrently, via :func:`~repro.parallel.maplib.thread_map`,
        when running on the real filesystem -- fault-injecting
        filesystems get a deterministic serial walk). The manifest is
        then replayed to rebuild the id maps and the partitioner, redo
        any half-applied rebalance, and drop unacknowledged trailing
        entries.
        """
        root = Path(root)
        manifest, entries = ShardManifest.load(root / MANIFEST_NAME, fs=fs)
        config = manifest.config
        kwargs = cls._service_kwargs(
            threaded=threaded,
            batch_ms=batch_ms,
            solve_timeout=solve_timeout,
            max_pending=max_pending,
            ladder=ladder,
            retain=retain,
            compact_bytes=compact_bytes,
            shared_solve=shared_solve,
        )

        def recover_one(shard: int) -> ShardManager:
            return ShardManager.recover(root, shard, config, fs=fs, **kwargs)

        if fs is REAL_FS and manifest.shards > 1:
            managers = thread_map(recover_one, range(manifest.shards))
        else:
            managers = [recover_one(shard) for shard in range(manifest.shards)]
        coordinator = cls(root, manifest, managers, threaded=threaded)
        coordinator._replay_manifest(entries)
        return coordinator

    @classmethod
    def open(
        cls,
        root: str | Path,
        config: StoreConfig | None = None,
        shards: int | None = None,
        *,
        fs: FileSystem = REAL_FS,
        **kwargs: object,
    ) -> "ShardCoordinator":
        """Recover when a manifest exists, otherwise create fresh."""
        root = Path(root)
        if fs.exists(root / MANIFEST_NAME):
            return cls.recover(root, fs=fs, **kwargs)  # type: ignore[arg-type]
        if config is None or shards is None:
            raise ServiceError(
                f"{root / MANIFEST_NAME} does not exist and no config/shard "
                "count was given"
            )
        return cls.create(root, config, shards, fs=fs, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Manifest replay (recovery)
    # ------------------------------------------------------------------

    def _replay_manifest(self, entries: list[dict]) -> None:
        """Rebuild routing from the manifest, reconciling against shards.

        Placement entries re-bind global<->local ids in arrival order;
        an entry whose shard journal never saw the command is the
        write-ahead overhang -- legal only at the very tail (mutations
        are globally serialised), where it is dropped and the manifest
        rewritten. Rebalance entries are *redone* idempotently from
        their payload, finishing any migration the crash interrupted.
        """
        managers = self.managers
        expected_events = [0] * len(managers)
        expected_users = [0] * len(managers)
        kept: list[dict] = []
        dropped = 0
        for index, entry in enumerate(entries):
            last = index == len(entries) - 1
            kind = entry["kind"]
            if kind == "rebalance":
                self._redo_rebalance(entry, expected_events, expected_users)
                kept.append(entry)
                self.rebalances += 1
                self.last_rebalance = self._rebalance_summary(entry)
                continue
            gid = int(entry["gid"])
            shard = int(entry["shard"])
            if not 0 <= shard < len(managers):
                raise JournalError(
                    f"manifest routes {kind} {gid} to unknown shard {shard}"
                )
            manager = managers[shard]
            if kind == "event":
                if gid != len(self._event_shard):
                    raise JournalError(
                        f"manifest event gids out of order at {gid}"
                    )
                local = expected_events[shard]
                if local >= manager.store.n_events:
                    # The crash hit between the manifest append and the
                    # shard-journal append: the command never took
                    # effect and was never acknowledged.
                    if not last:
                        raise JournalError(
                            f"manifest entry {entry['n']} has no shard-side "
                            "effect but is not the trailing entry"
                        )
                    dropped += 1
                    continue
                manager.bind_event(gid, local)
                expected_events[shard] += 1
                self._event_shard.append(shard)
                self.partitioner.add_event(gid)
            else:
                if gid != len(self._user_shard):
                    raise JournalError(
                        f"manifest user gids out of order at {gid}"
                    )
                local = expected_users[shard]
                if local >= manager.store.n_users:
                    if not last:
                        raise JournalError(
                            f"manifest entry {entry['n']} has no shard-side "
                            "effect but is not the trailing entry"
                        )
                    dropped += 1
                    continue
                manager.bind_user(gid, local)
                expected_users[shard] += 1
                self._user_shard.append(shard)
            kept.append(entry)
        for shard, manager in enumerate(managers):
            if (
                expected_events[shard] != manager.store.n_events
                or expected_users[shard] != manager.store.n_users
            ):
                raise JournalError(
                    f"shard {shard} journal disagrees with the manifest "
                    f"(expected {expected_events[shard]} events / "
                    f"{expected_users[shard]} users, shard has "
                    f"{manager.store.n_events} / {manager.store.n_users})"
                )
        if dropped:
            self.manifest.rewrite(kept)
        # Conflict edges are not in the manifest; rebuild them from the
        # live shard stores (every edge is intra-shard by construction).
        for manager in managers:
            for gid in manager.live_events():
                local = manager.local_event(gid)
                self.partitioner.add_edges(
                    gid,
                    [
                        manager.events_g[other]
                        for other in manager.store.event_conflicts(local)
                    ],
                )

    def _redo_rebalance(
        self,
        entry: dict,
        expected_events: list[int],
        expected_users: list[int],
    ) -> None:
        """Idempotently finish the migration a rebalance entry records.

        Every step checks whether its effect already exists (the shard
        journals survived the crash) before re-issuing the command, so
        a migration interrupted at *any* point -- after the manifest
        append, mid-import, mid-retire -- converges to the same state.
        """
        target_id = int(entry["target"])
        target = self.managers[target_id]
        if (
            int(entry["target_events_before"]) != expected_events[target_id]
            or int(entry["target_users_before"]) != expected_users[target_id]
        ):
            raise JournalError(
                f"rebalance entry {entry.get('n')} disagrees with shard "
                f"{target_id}'s placement history"
            )
        for move in entry["moves"]:
            source = self.managers[int(move["shard"])]
            posted: set[int] = set()
            for spec in move["events"]:
                gid = int(spec["gid"])
                if not 0 <= gid < len(self._event_shard):
                    raise JournalError(
                        f"rebalance entry {entry.get('n')} moves unplaced "
                        f"event {gid}"
                    )
                local = expected_events[target_id]
                if local < target.store.n_events:
                    target.bind_event(gid, local)
                else:
                    target.post_event(
                        gid,
                        int(spec["capacity"]),
                        [float(x) for x in spec["attributes"]],
                        [int(g) for g in spec["conflicts"] if int(g) in posted],
                    )
                posted.add(gid)
                self._event_shard[gid] = target_id
                expected_events[target_id] += 1
            for spec in move["users"]:
                gid = int(spec["gid"])
                if not 0 <= gid < len(self._user_shard):
                    raise JournalError(
                        f"rebalance entry {entry.get('n')} moves unplaced "
                        f"user {gid}"
                    )
                local = expected_users[target_id]
                if local < target.store.n_users:
                    target.bind_user(gid, local)
                else:
                    target.register_user(
                        gid,
                        int(spec["capacity"]),
                        [float(x) for x in spec["attributes"]],
                    )
                self._user_shard[gid] = target_id
                expected_users[target_id] += 1
            pairs = [(int(e), int(u)) for e, u in move["assignments"]]
            if pairs:
                probe_event = target.local_event(pairs[0][0])
                probe_user = target.local_user(pairs[0][1])
                if probe_user not in target.store.users_of(probe_event):
                    delta = Delta(
                        assigns=tuple(
                            sorted(
                                (target.local_event(e), target.local_user(u))
                                for e, u in pairs
                            )
                        )
                    )
                    target.service.commit_delta(
                        delta, users=[target.local_user(u) for _, u in pairs]
                    )
            for spec in move["events"]:
                local = target.local_event(int(spec["gid"]))
                if spec["frozen"] and not target.store.is_frozen(local):
                    target.service.freeze_event(local)
                elif spec["cancelled"] and not target.store.is_cancelled(local):
                    target.service.cancel_event(local)
            for spec in move["events"]:
                gid = int(spec["gid"])
                if source.owns_event(gid):
                    local = source.local_event(gid)
                    if not source.store.is_cancelled(local):
                        source.service.retire_event(local)
                    source.unbind_event(gid)
            for spec in move["users"]:
                gid = int(spec["gid"])
                if source.owns_user(gid):
                    local = source.local_user(gid)
                    if source.store.user_capacity(local) != 0:
                        source.service.retire_user(local)
                    source.unbind_user(gid)

    @staticmethod
    def _rebalance_summary(entry: dict) -> dict:
        return {
            "target": int(entry["target"]),
            "from_shards": sorted({int(m["shard"]) for m in entry["moves"]}),
            "moved_events": sum(len(m["events"]) for m in entry["moves"]),
            "moved_users": sum(len(m["users"]) for m in entry["moves"]),
            "manifest_n": entry.get("n"),
        }

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("coordinator is closed")

    def _shard_of_event(self, event: int) -> int:
        if not isinstance(event, int) or not 0 <= event < len(self._event_shard):
            raise ServiceError(f"unknown event {event!r}")
        return self._event_shard[event]

    def _shard_of_user(self, user: int) -> int:
        if not isinstance(user, int) or not 0 <= user < len(self._user_shard):
            raise ServiceError(f"unknown user {user!r}")
        return self._user_shard[user]

    # ------------------------------------------------------------------
    # Commands (the ArrangementService duck-type surface)
    # ------------------------------------------------------------------

    def post_event(
        self,
        capacity: int,
        attributes: list[float],
        conflicts: list[int] | None = None,
    ) -> int:
        """Post a new event; returns its global id.

        Routing: the component its conflict set belongs to (rebalancing
        first when the set spans shards), or the least-loaded shard for
        a conflict-free event.
        """
        with self._lock:
            self._check_open()
            attributes = as_vector(attributes)
            conflict_gids = as_event_ids(conflicts)
            for g in conflict_gids:
                if not 0 <= g < len(self._event_shard):
                    raise ServiceError(f"unknown conflict event {g!r}")
            if conflict_gids:
                components = self.partitioner.merge_targets(conflict_gids)
                shards = sorted(
                    {self._event_shard[comp] for comp in components}
                )
                if len(shards) > 1:
                    target = self._rebalance(components)
                else:
                    target = shards[0]
            else:
                target = min(
                    range(len(self.managers)),
                    key=lambda s: (self.managers[s].n_live_events, s),
                )
            manager = self.managers[target]
            gid = len(self._event_shard)
            manager.validate_post_event(capacity, attributes, conflict_gids)
            self.manifest.append("event", {"gid": gid, "shard": target})
            manager.post_event(gid, capacity, attributes, conflict_gids)
            self._event_shard.append(target)
            self.partitioner.add_event(gid)
            self.partitioner.add_edges(gid, conflict_gids)
            return gid

    def register_user(self, capacity: int, attributes: list[float]) -> int:
        """Register a new user; returns their global id.

        Routing: the shard whose live events are most similar to the
        user's attributes (that is where assignment mass can come
        from); ties break toward the lighter, lower-numbered shard.
        """
        with self._lock:
            self._check_open()
            attributes = as_vector(attributes)
            self.managers[0].validate_register_user(capacity, attributes)
            attrs = tuple(float(x) for x in attributes)
            scores = [m.best_similarity(attrs) for m in self.managers]
            best = max(scores)
            target = min(
                (s for s, score in enumerate(scores) if score == best),
                key=lambda s: (self.managers[s].n_live_users, s),
            )
            gid = len(self._user_shard)
            self.manifest.append("user", {"gid": gid, "shard": target})
            self.managers[target].register_user(gid, capacity, attributes)
            self._user_shard.append(target)
            return gid

    def request_assignment(
        self,
        user: int,
        *,
        wait: bool = True,
        timeout: float = DEFAULT_REQUEST_WAIT,
    ) -> tuple[int, ...] | PendingRequest:
        """Ask the owning shard's engine to (re)arrange ``user``.

        In synchronous mode the caller's thread first re-solves any
        *other* shard a mutation left stale (the unsharded engine would
        have re-solved those components in the same batch), then drives
        the owning shard's batch. Returns the user's standing events as
        global ids (``wait=True``) or the shard-local
        :class:`~repro.service.engine.PendingRequest` (``wait=False``).
        """
        with self._lock:
            self._check_open()
            manager = self.managers[self._shard_of_user(user)]
            request = manager.request_assignment(user)
            stale = (
                []
                if self._threaded
                else [m for m in self.managers if m is not manager and m.dirty]
            )
        if not self._threaded:
            for other in stale:
                other.resolve_if_dirty()
            manager.service.run_pending_batch()
        if not wait:
            return request
        request.wait(timeout)
        with self._lock:
            return manager.events_of(user)

    def freeze_event(self, event: int) -> None:
        with self._lock:
            self._check_open()
            self.managers[self._shard_of_event(event)].freeze_event(event)

    def cancel_event(self, event: int) -> None:
        with self._lock:
            self._check_open()
            self.managers[self._shard_of_event(event)].cancel_event(event)

    def run_pending_batch(self) -> int:
        """Drive one batch on every shard synchronously (tests, replay)."""
        total = 0
        for manager in self.managers:
            manager.dirty = False
            total += manager.service.run_pending_batch()
        return total

    # ------------------------------------------------------------------
    # Rebalancing (the one cross-shard mutation)
    # ------------------------------------------------------------------

    def _rebalance(self, components: list[int]) -> int:
        """Co-locate ``components`` onto one shard; returns that shard.

        Protocol (under the coordinator lock): pick the involved shard
        already holding the most moving events as the target, drain the
        involved shards, take their state locks, write one manifest
        ``rebalance`` entry carrying the complete redo payload, then
        migrate -- import on the target, tombstone on each source. A
        crash anywhere in the tail is finished by
        :meth:`_redo_rebalance` on recovery.
        """
        managers = self.managers
        members = self.partitioner.components()
        involved: dict[int, int] = {}
        for comp in components:
            shard = self._event_shard[comp]
            involved[shard] = involved.get(shard, 0) + len(members[comp])
        target = max(sorted(involved), key=lambda s: involved[s])
        for shard in sorted(involved):
            managers[shard].service.run_pending_batch()
        with ExitStack() as stack:
            for shard in sorted(involved):
                stack.enter_context(managers[shard].service._lock)
            target_manager = managers[target]
            moves = []
            for comp in sorted(components):
                source_id = self._event_shard[comp]
                if source_id == target:
                    continue
                events, users, assignments = managers[
                    source_id
                ].export_component(members[comp])
                moves.append(
                    {
                        "shard": source_id,
                        "events": events,
                        "users": users,
                        "assignments": assignments,
                    }
                )
            entry = self.manifest.append(
                "rebalance",
                {
                    "target": target,
                    "target_events_before": len(target_manager.events_g),
                    "target_users_before": len(target_manager.users_g),
                    "moves": moves,
                },
            )
            for move in moves:
                source = managers[move["shard"]]
                target_manager.import_component(
                    move["events"], move["users"], move["assignments"]
                )
                for spec in move["events"]:
                    self._event_shard[spec["gid"]] = target
                for spec in move["users"]:
                    self._user_shard[spec["gid"]] = target
                source.retire_component(
                    [spec["gid"] for spec in move["events"]],
                    [spec["gid"] for spec in move["users"]],
                )
        self.rebalances += 1
        self.last_rebalance = self._rebalance_summary(entry)
        return target

    # ------------------------------------------------------------------
    # Snapshots & compaction
    # ------------------------------------------------------------------

    def compact(self) -> ShardedCompactionStats:
        """Snapshot + trim every shard (the ``POST /compact`` admin op)."""
        with self._lock:
            self._check_open()
            return ShardedCompactionStats(
                [manager.service.compact() for manager in self.managers]
            )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Total journal sequence across shards (duck-typed for HTTP)."""
        with self._lock:
            return sum(manager.service.seq for manager in self.managers)

    def assignments_of(self, user: int) -> tuple[int, ...]:
        with self._lock:
            return self.managers[self._shard_of_user(user)].events_of(user)

    def state_summary(self) -> dict:
        """The ``GET /state`` body, plus the ``sharding`` topology block."""
        with self._lock:
            shard_stats = [manager.stats() for manager in self.managers]
            sizes = self.partitioner.component_sizes()
            # A recovered fleet reports its slowest shard's ladder rung.
            rungs = [
                s["last_recovery"]["rung"] for s in shard_stats if s["last_recovery"]
            ]
            return {
                "seq": sum(s["seq"] for s in shard_stats),
                "n_events": len(self._event_shard),
                "n_users": len(self._user_shard),
                "n_assignments": sum(s["n_assignments"] for s in shard_stats),
                "open_events": sum(s["open_events"] for s in shard_stats),
                "requests_seen": sum(s["requests_seen"] for s in shard_stats),
                "batches_committed": sum(
                    s["batches_committed"] for s in shard_stats
                ),
                "pending": sum(s["pending"] for s in shard_stats),
                "max_sum": sum(s["max_sum"] for s in shard_stats),
                "digest": self.arrangement_digest(),
                "journal_bytes": sum(s["journal_bytes"] for s in shard_stats),
                "last_recovery": (
                    {"rung": max(rungs, key=RECOVERY_RUNGS.index)} if rungs else None
                ),
                "sharding": {
                    "shards": len(self.managers),
                    "components": len(sizes),
                    "component_sizes": sorted(sizes.values(), reverse=True),
                    "merges": self.partitioner.merges,
                    "rebalances": self.rebalances,
                    "last_rebalance": self.last_rebalance,
                    "manifest_entries": self.manifest.n,
                    "manifest_bytes": self.manifest.size_bytes,
                    "per_shard": shard_stats,
                },
            }

    def arrangement_state(self) -> dict:
        """The global arrangement in unsharded canonical shape.

        Rebuilds the exact dict
        :meth:`~repro.service.store.ArrangementStore.arrangement_state`
        would produce for one store holding the whole universe: entities
        in global-id order, conflicts and assignments translated back to
        global ids, journal counters omitted (they are per-journal
        bookkeeping, not observable arrangement). Equality of this dict
        across sharded and unsharded runs is the sharding equivalence
        contract.
        """
        with self._lock, ExitStack() as stack:
            for manager in self.managers:
                stack.enter_context(manager.service._lock)
            events = []
            event_remaining = []
            for gid, shard in enumerate(self._event_shard):
                manager = self.managers[shard]
                store = manager.store
                local = manager.local_event(gid)
                events.append(
                    {
                        "capacity": store.event_capacity(local),
                        "attributes": list(store.event_attributes(local)),
                        "frozen": store.is_frozen(local),
                        "cancelled": store.is_cancelled(local),
                        "conflicts": sorted(
                            manager.events_g[other]
                            for other in store.event_conflicts(local)
                        ),
                    }
                )
                event_remaining.append(store.event_remaining(local))
            users = []
            user_remaining = []
            for gid, shard in enumerate(self._user_shard):
                manager = self.managers[shard]
                local = manager.local_user(gid)
                users.append(
                    {
                        "capacity": manager.store.user_capacity(local),
                        "attributes": list(
                            manager.store.user_attributes(local)
                        ),
                    }
                )
                user_remaining.append(manager.store.user_remaining(local))
            assignments = sorted(
                (manager.events_g[e], manager.users_g[u])
                for manager in self.managers
                for e, u in manager.store.pairs()
            )
            return {
                "config": self.manifest.config.to_json(),
                "events": events,
                "users": users,
                "assignments": [[e, u] for e, u in assignments],
                "event_remaining": event_remaining,
                "user_remaining": user_remaining,
            }

    def arrangement_digest(self) -> str:
        """SHA-256 over :meth:`arrangement_state` (matches the store's)."""
        payload = json.dumps(
            self.arrangement_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def check_invariants(self) -> None:
        """Per-shard invariants plus the cross-shard routing contract."""
        with self._lock:
            for manager in self.managers:
                manager.check_invariants()
            for gid, shard in enumerate(self._event_shard):
                if not self.managers[shard].owns_event(gid):
                    raise ServiceError(
                        f"event {gid} routed to shard {shard} which does not "
                        "own it"
                    )
            for gid, shard in enumerate(self._user_shard):
                if not self.managers[shard].owns_user(gid):
                    raise ServiceError(
                        f"user {gid} routed to shard {shard} which does not "
                        "own it"
                    )
            for shard, manager in enumerate(self.managers):
                for gid in manager.live_events():
                    if self._event_shard[gid] != shard:
                        raise ServiceError(
                            f"event {gid} lives on shard {shard} but routes "
                            f"to {self._event_shard[gid]}"
                        )
                for gid in manager.live_users():
                    if self._user_shard[gid] != shard:
                        raise ServiceError(
                            f"user {gid} lives on shard {shard} but routes "
                            f"to {self._user_shard[gid]}"
                        )
            for comp, member_gids in self.partitioner.components().items():
                owners = {self._event_shard[gid] for gid in member_gids}
                if len(owners) != 1:
                    raise ServiceError(
                        f"component {comp} spans shards {sorted(owners)}"
                    )
            if len(self.partitioner) != len(self._event_shard):
                raise ServiceError(
                    "partitioner tracks a different event universe than the "
                    "routing table"
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every shard (flushing final batches) and the manifest."""
        if self._closed:
            return
        for manager in self.managers:
            manager.close()
        with self._lock:
            self._closed = True
            self.manifest.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator({self.root}, shards={len(self.managers)}, "
            f"events={len(self._event_shard)}, users={len(self._user_shard)})"
        )
