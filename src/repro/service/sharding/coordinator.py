"""The shard coordinator: global routing over per-shard service stacks.

:class:`ShardCoordinator` is the service's one front door: ``geacc
serve``, the HTTP layer, ``geacc replay``, ``geacc compact`` and the
crash smoke all hold one. An unsharded deployment is a one-shard fleet,
so every deployment runs the manifest, the per-shard recovery ladder
and the routing below. Each shard is one
:class:`~repro.service.frontend.ArrangementService` stack -- store,
fsync'd journal, snapshot directory, engine -- that the coordinator
drives through its command methods, laid out on disk as
:class:`~repro.service.sharding.manager.ShardManager` says.

Shard journals speak local ids (dense, per shard); clients speak global
ids. The coordinator alone holds the translation: per shard, an
append-only local -> global list and a global -> local dict of live
entities. The tables are not persisted -- recovery rebuilds them from
the manifest.

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
(:meth:`~repro.service.frontend.ArrangementService.recover`), so a
corrupt shard degrades alone; the coordinator then replays the manifest
to rebuild routing and finish any half-applied rebalance.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from repro.exceptions import JournalError, ServiceError
from repro.service.engine import PendingRequest, fleet_engine_summary
from repro.service.frontend import DEFAULT_REQUEST_WAIT, ArrangementService
from repro.service.journal import RECOVERY_RUNGS, REAL_FS, FileSystem
from repro.service.sharding.manager import ShardManager
from repro.service.sharding.manifest import ShardManifest
from repro.service.sharding.partitioner import ConflictPartitioner
from repro.service.snapshot import CompactionStats
from repro.service.store import (
    CMD_POST_EVENT,
    CMD_REGISTER_USER,
    Delta,
    StoreConfig,
    as_event_ids,
    as_vector,
    canonical_digest,
    is_int,
)

#: The manifest's file name under the shard root directory.
MANIFEST_NAME = "manifest.jsonl"

#: The placed entity kinds, as manifest entries name them.
KINDS = ("event", "user")


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
    (deterministic replay and tests).
    """

    def __init__(
        self,
        root: Path,
        manifest: ShardManifest,
        shards: list[ArrangementService],
        *,
        threaded: bool = True,
    ) -> None:
        self.root = root
        self.manifest = manifest
        self._shards = shards
        self.partitioner = ConflictPartitioner()
        # Every table is keyed by kind ("event" / "user").
        #: Global id -> owning shard (dense; rebalance rewrites in place).
        self._owner: dict[str, list[int]] = {kind: [] for kind in KINDS}
        #: Per shard, local id -> global id, append-only (tombstoned
        #: slots keep their last gid; liveness is tracked by ``_local``).
        self._gids: dict[str, list[list[int]]] = {
            kind: [[] for _ in shards] for kind in KINDS
        }
        #: Per shard, global id -> local id, live entities only.
        self._local: dict[str, list[dict[int, int]]] = {
            kind: [{} for _ in shards] for kind in KINDS
        }
        #: Per shard, entities tombstoned out of it by a rebalance.
        self._retired: dict[str, list[int]] = {
            kind: [0] * len(shards) for kind in KINDS
        }
        self.rebalances = 0
        self.last_rebalance: dict | None = None
        self._threaded = threaded
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        config: StoreConfig,
        shards: int,
        *,
        fs: FileSystem = REAL_FS,
        threaded: bool = True,
        **options: object,
    ) -> "ShardCoordinator":
        """Create a fresh shard fleet under ``root``.

        ``options`` (``batch_ms``, ``solve_timeout``, ``max_pending``,
        ``retain``, ``compact_bytes``) configure every shard's
        :class:`~repro.service.frontend.ArrangementService`. Every shard
        solves its batches with
        :data:`~repro.service.engine.BATCH_LADDER`. If a shard cannot be
        created, the shards built before it and the manifest are closed
        before the error propagates.
        """
        root = _fleet_root(root, fs)
        if not fs.exists(root):
            fs.mkdir(root)
        manifest = ShardManifest.create(root / MANIFEST_NAME, config, shards, fs=fs)

        def create_one(shard: int) -> ArrangementService:
            return ArrangementService.create(
                ShardManager.journal_path(root, shard),
                config,
                fs=fs,
                snapshot_dir=ShardManager.snapshot_dir(root, shard),
                threaded=threaded,
                **options,
            )

        with ExitStack() as cleanup:
            cleanup.callback(manifest.close)
            services = _build_shards(create_one, shards, cleanup, parallel=False)
            cleanup.pop_all()
        return cls(root, manifest, services, threaded=threaded)

    @classmethod
    def recover(
        cls,
        root: str | Path,
        *,
        fs: FileSystem = REAL_FS,
        threaded: bool = True,
        **options: object,
    ) -> "ShardCoordinator":
        """Restart a shard fleet from its root directory.

        Every shard recovers through its own snapshot+tail ladder
        (concurrently, one thread per shard, when running on the real
        filesystem -- fault-injecting filesystems get a deterministic
        serial walk; the first error in shard order is raised after
        every shard has finished), so a corrupt
        snapshot or torn journal degrades *that* shard alone. The
        manifest is then replayed to rebuild the id tables and the
        partitioner, redo any half-applied rebalance, and drop
        unacknowledged trailing entries. If a shard's recovery or the
        manifest replay raises, every shard that did recover (engine
        thread and journal) and the manifest are closed before the
        error propagates. ``options`` are :meth:`create`'s.
        """
        root = _fleet_root(root, fs)
        manifest, entries = ShardManifest.load(root / MANIFEST_NAME, fs=fs)
        config = manifest.config

        def recover_one(shard: int) -> ArrangementService:
            return ArrangementService.recover(
                ShardManager.journal_path(root, shard),
                snapshot_dir=ShardManager.snapshot_dir(root, shard),
                config=config,
                fs=fs,
                threaded=threaded,
                **options,
            )

        with ExitStack() as cleanup:
            cleanup.callback(manifest.close)
            services = _build_shards(
                recover_one,
                manifest.shards,
                cleanup,
                parallel=fs is REAL_FS and manifest.shards > 1,
            )
            coordinator = cls(root, manifest, services, threaded=threaded)
            coordinator._replay_manifest(entries)
            cleanup.pop_all()
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
        """Recover when a manifest exists, otherwise create fresh.

        ``shards=None`` means one shard for a new root and the
        manifest's count for an existing one; any other count must
        match the manifest's.
        """
        manifest_path = Path(root) / MANIFEST_NAME
        if fs.exists(manifest_path):
            header = next(ShardManifest.scan(manifest_path, fs), None)
            if header and shards is not None and shards != header[0]["shards"]:
                raise ServiceError(
                    f"{root} is a {header[0]['shards']}-shard fleet; "
                    f"cannot open it with {shards} shards"
                )
            return cls.recover(root, fs=fs, **kwargs)  # type: ignore[arg-type]
        if config is None:
            raise ServiceError(
                f"{manifest_path} does not exist and no config was given"
            )
        count = 1 if shards is None else shards
        return cls.create(root, config, count, fs=fs, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Id tables
    # ------------------------------------------------------------------

    def _shard_of(self, kind: str, gid: object) -> int:
        """The shard owning global ``kind`` id ``gid`` (client input)."""
        owner = self._owner[kind]
        if not is_int(gid) or not 0 <= gid < len(owner):
            raise ServiceError(f"unknown {kind} {gid!r}")
        return owner[gid]

    def _local_id(self, kind: str, shard: int, gid: int) -> int:
        try:
            return self._local[kind][shard][gid]
        except KeyError:
            raise ServiceError(
                f"{kind} {gid} does not live on shard {shard}"
            ) from None

    def _bind(self, kind: str, shard: int, gid: int, local: int) -> None:
        """Record that global ``kind`` ``gid`` occupies ``local`` on ``shard``.

        Placement appends (``local`` is the next slot); re-applying a
        rebalance re-binds the slots it bound before. Any other slot
        means the manifest and the shard journal disagree.
        """
        gids = self._gids[kind][shard]
        if local == len(gids):
            gids.append(gid)
        elif not (0 <= local < len(gids) and gids[local] == gid):
            raise ServiceError(
                f"shard {shard}: {kind} bind ({gid} -> local {local}) "
                "does not match the journal's arrival order"
            )
        self._local[kind][shard][gid] = local

    def _unbind(self, kind: str, shard: int, gid: int) -> None:
        """Drop a migrated-away entity from the live map (its slot stays)."""
        del self._local[kind][shard][gid]
        self._retired[kind][shard] += 1

    def _post(
        self,
        shard: int,
        gid: int,
        capacity: int,
        attributes: list[float],
        local_conflicts: list[int],
    ) -> None:
        """Post global event ``gid`` on ``shard`` and mark the shard dirty."""
        service = self._shards[shard]
        local = service.post_event(capacity, attributes, local_conflicts)
        self._bind("event", shard, gid, local)
        service.engine.mark_dirty()

    # ------------------------------------------------------------------
    # Manifest replay (recovery)
    # ------------------------------------------------------------------

    def _replay_manifest(self, entries: list[dict]) -> None:
        """Rebuild routing from the manifest, reconciling against shards.

        Placement entries re-bind global<->local ids in arrival order;
        an entry whose shard journal never saw the command is the
        write-ahead overhang -- legal only at the very tail (mutations
        are globally serialised), where it is dropped and the manifest
        rewritten. Rebalance entries are applied again from their
        payload (:meth:`_apply_rebalance`), finishing any migration the
        crash interrupted.
        """
        kept: list[dict] = []
        dropped = 0
        for index, entry in enumerate(entries):
            kind = entry["kind"]
            if kind == "rebalance":
                self._apply_rebalance(entry)
                kept.append(entry)
                self.rebalances += 1
                self.last_rebalance = self._rebalance_summary(entry)
                continue
            gid = int(entry["gid"])
            shard = int(entry["shard"])
            if not 0 <= shard < len(self._shards):
                raise JournalError(
                    f"manifest routes {kind} {gid} to unknown shard {shard}"
                )
            owner = self._owner[kind]
            if gid != len(owner):
                raise JournalError(f"manifest {kind} gids out of order at {gid}")
            store = self._shards[shard].store
            local = len(self._gids[kind][shard])
            if local >= (store.n_events if kind == "event" else store.n_users):
                # The crash hit between the manifest append and the
                # shard-journal append: the command never took effect
                # and was never acknowledged.
                if index != len(entries) - 1:
                    raise JournalError(
                        f"manifest entry {entry['n']} has no shard-side "
                        "effect but is not the trailing entry"
                    )
                dropped += 1
                continue
            self._bind(kind, shard, gid, local)
            owner.append(shard)
            if kind == "event":
                self.partitioner.add_event(gid)
            kept.append(entry)
        for shard, service in enumerate(self._shards):
            events, users = (len(self._gids[kind][shard]) for kind in KINDS)
            store = service.store
            if (events, users) != (store.n_events, store.n_users):
                raise JournalError(
                    f"shard {shard} journal disagrees with the manifest "
                    f"(expected {events} events / {users} users, shard has "
                    f"{store.n_events} / {store.n_users})"
                )
        if dropped:
            self.manifest.rewrite(kept)
        # Conflict edges are not in the manifest; rebuild them from the
        # live shard stores (every edge is intra-shard by construction).
        for shard, service in enumerate(self._shards):
            gids = self._gids["event"][shard]
            for gid, local in sorted(self._local["event"][shard].items()):
                self.partitioner.add_edges(
                    gid, [gids[other] for other in service.store.event_conflicts(local)]
                )

    def _apply_rebalance(self, entry: dict) -> None:
        """Migrate what a rebalance entry records: the one migration path.

        The live rebalance runs it right after appending the entry;
        recovery runs it for every rebalance entry in the manifest. The
        involved shards' state locks are held throughout, so no batch --
        not even a recovered fleet's engine thread -- runs mid-migration.
        Every step checks whether its effect already exists before
        issuing its command, so a migration interrupted at *any* point
        (after the manifest append, mid-import, mid-retire) and one
        applied twice converge to the same state.
        """
        involved = {int(entry["target"]), *(int(m["shard"]) for m in entry["moves"])}
        with self._shard_locks(involved):
            self._migrate(entry)

    def _migrate(self, entry: dict) -> None:
        """:meth:`_apply_rebalance`'s steps, per move in journal order.

        The movers take the target's local slots from the entry's
        ``target_*_before`` counts on, in order. The target posts the
        events open (conflicts bind to movers already posted, symmetry
        fills the rest), registers the users, commits the seats as one
        ``commit_batch`` delta and replays the lifecycle flags (a
        cancelled event never held seats, a frozen one gets its seats
        before freezing); the source then retires the events, releasing
        every seat, and the now seatless users.
        """
        target_id = int(entry["target"])
        target = self._shards[target_id]
        next_event = int(entry["target_events_before"])
        next_user = int(entry["target_users_before"])
        if next_event > len(self._gids["event"][target_id]) or next_user > len(
            self._gids["user"][target_id]
        ):
            raise JournalError(
                f"rebalance entry {entry.get('n')} disagrees with shard "
                f"{target_id}'s placement history"
            )
        for move in entry["moves"]:
            source_id = int(move["shard"])
            source = self._shards[source_id]
            posted: set[int] = set()
            for spec in move["events"]:
                gid = int(spec["gid"])
                if not 0 <= gid < len(self._owner["event"]):
                    raise JournalError(
                        f"rebalance entry {entry.get('n')} moves unplaced "
                        f"event {gid}"
                    )
                if next_event < target.store.n_events:
                    self._bind("event", target_id, gid, next_event)
                else:
                    self._post(
                        target_id,
                        gid,
                        int(spec["capacity"]),
                        [float(x) for x in spec["attributes"]],
                        [
                            self._local_id("event", target_id, int(g))
                            for g in spec["conflicts"]
                            if int(g) in posted
                        ],
                    )
                posted.add(gid)
                self._owner["event"][gid] = target_id
                next_event += 1
            for spec in move["users"]:
                gid = int(spec["gid"])
                if not 0 <= gid < len(self._owner["user"]):
                    raise JournalError(
                        f"rebalance entry {entry.get('n')} moves unplaced "
                        f"user {gid}"
                    )
                if next_user < target.store.n_users:
                    local = next_user
                else:
                    local = target.register_user(
                        int(spec["capacity"]), [float(x) for x in spec["attributes"]]
                    )
                self._bind("user", target_id, gid, local)
                self._owner["user"][gid] = target_id
                next_user += 1
            pairs = [(int(e), int(u)) for e, u in move["assignments"]]
            if pairs and not self._seats_landed(target_id, source_id, move):
                users = [self._local_id("user", target_id, u) for _, u in pairs]
                delta = Delta(
                    assigns=tuple(
                        sorted(
                            (self._local_id("event", target_id, e), user)
                            for (e, _), user in zip(pairs, users)
                        )
                    )
                )
                target.commit_delta(delta, users=users)
            for spec in move["events"]:
                local = self._local_id("event", target_id, int(spec["gid"]))
                if spec["frozen"] and not target.store.is_frozen(local):
                    target.freeze_event(local)
                    target.engine.mark_dirty()
                elif spec["cancelled"] and not target.store.is_cancelled(local):
                    target.cancel_event(local)
                    target.engine.mark_dirty()
            for spec in move["events"]:
                gid = int(spec["gid"])
                local = self._local["event"][source_id].get(gid)
                if local is not None:
                    if not source.store.is_cancelled(local):
                        source.retire_event(local)
                        source.engine.mark_dirty()
                    self._unbind("event", source_id, gid)
            for spec in move["users"]:
                gid = int(spec["gid"])
                local = self._local["user"][source_id].get(gid)
                if local is not None:
                    if source.store.user_capacity(local) != 0:
                        source.retire_user(local)
                    self._unbind("user", source_id, gid)

    def _seats_landed(self, target: int, source: int, move: dict) -> bool:
        """Whether a rebalance move's seat delta is already on the target.

        The source retires the moved users only after the target
        committed their seats. Until then nothing but the migration has
        touched those seats (it holds both shards' locks), so one pair
        tells; from then on later batches may have moved them, and the
        retire is the answer.
        """
        first = self._local["user"][source].get(int(move["users"][0]["gid"]))
        if first is None:
            return True  # retired by this process
        if self._shards[source].store.user_capacity(first) == 0:
            return True  # retired before the crash
        event, user = move["assignments"][0]
        seated = self._shards[target].store.users_of(
            self._local_id("event", target, int(event))
        )
        return self._local_id("user", target, int(user)) in seated

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

    def _shard_locks(self, shards: Iterable[int]) -> ExitStack:
        """Hold the state locks of ``shards`` (ascending, so no deadlock)."""
        stack = ExitStack()
        for shard in sorted(shards):
            stack.enter_context(self._shards[shard]._lock)
        return stack

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("coordinator is closed")

    # ------------------------------------------------------------------
    # Commands
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
            owner = self._owner["event"]
            for g in conflict_gids:
                if not is_int(g) or not 0 <= g < len(owner):
                    raise ServiceError(f"unknown conflict event {g!r}")
            if conflict_gids:
                components = self.partitioner.merge_targets(conflict_gids)
                shards = sorted({owner[comp] for comp in components})
                if len(shards) > 1:
                    target = self._rebalance(components)
                else:
                    target = shards[0]
            else:
                target = min(
                    range(len(self._shards)),
                    key=lambda s: (len(self._local["event"][s]), s),
                )
            service = self._shards[target]
            gid = len(owner)
            local_conflicts = [
                self._local_id("event", target, g) for g in conflict_gids
            ]
            # Validate before the manifest entry, so a rejected command
            # leaves no durable trace anywhere.
            with service._lock:
                service.store.validate_command(
                    CMD_POST_EVENT,
                    {
                        "capacity": capacity,
                        "attributes": attributes,
                        "conflicts": local_conflicts,
                    },
                )
            self.manifest.append("event", {"gid": gid, "shard": target})
            self._post(target, gid, capacity, attributes, local_conflicts)
            owner.append(target)
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
            with self._shards[0]._lock:
                self._shards[0].store.validate_command(
                    CMD_REGISTER_USER,
                    {"capacity": capacity, "attributes": attributes},
                )
            attrs = tuple(float(x) for x in attributes)
            scores = []
            for service in self._shards:
                with service._lock:
                    scores.append(service.store.best_similarity(attrs))
            best = max(scores)
            target = min(
                (s for s, score in enumerate(scores) if score == best),
                key=lambda s: (len(self._local["user"][s]), s),
            )
            gid = len(self._owner["user"])
            self.manifest.append("user", {"gid": gid, "shard": target})
            local = self._shards[target].register_user(capacity, attributes)
            self._bind("user", target, gid, local)
            self._owner["user"].append(target)
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
        *other* shard whose engine a mutation left dirty (the unsharded
        engine would have re-solved those components in the same batch),
        then drives the owning shard's batch. Returns the user's
        standing events as global ids (``wait=True``) or a
        :class:`~repro.service.engine.PendingRequest` whose ``wait``
        gives them (``wait=False``).
        """
        with self._lock:
            self._check_open()
            shard = self._shard_of("user", user)
            service = self._shards[shard]
            request = service.request_assignment(
                self._local_id("user", shard, user), wait=False
            )
            assert isinstance(request, PendingRequest)
            request.global_ids = self._gids["event"][shard]
            stale = (
                []
                if self._threaded
                else [s for s in self._shards if s is not service and s.engine.dirty]
            )
        if not self._threaded:
            for other in stale:
                other.run_pending_batch()
            service.run_pending_batch()
        return request.wait(timeout) if wait else request

    def freeze_event(self, event: int) -> None:
        with self._lock:
            self._check_open()
            shard = self._shard_of("event", event)
            self._shards[shard].freeze_event(self._local_id("event", shard, event))
            self._shards[shard].engine.mark_dirty()

    def cancel_event(self, event: int) -> None:
        with self._lock:
            self._check_open()
            shard = self._shard_of("event", event)
            self._shards[shard].cancel_event(self._local_id("event", shard, event))
            self._shards[shard].engine.mark_dirty()

    def run_pending_batch(self) -> int:
        """Drive one batch on every shard synchronously (tests, replay)."""
        return sum(service.run_pending_batch() for service in self._shards)

    # ------------------------------------------------------------------
    # Rebalancing (the one cross-shard mutation)
    # ------------------------------------------------------------------

    def _rebalance(self, components: list[int]) -> int:
        """Co-locate ``components`` onto one shard; returns that shard.

        Protocol (under the coordinator lock): pick the involved shard
        already holding the most moving events as the target, drain the
        involved shards, take their state locks, write one manifest
        ``rebalance`` entry carrying the complete redo payload, then
        apply it through :meth:`_apply_rebalance` -- the same function
        recovery applies it with, so a crash anywhere in the tail is
        finished exactly as the live run would have.
        """
        owner = self._owner["event"]
        members = self.partitioner.components()
        involved: dict[int, int] = {}
        for comp in components:
            shard = owner[comp]
            involved[shard] = involved.get(shard, 0) + len(members[comp])
        target = max(sorted(involved), key=lambda s: involved[s])
        for shard in sorted(involved):
            self._shards[shard].run_pending_batch()
        with self._shard_locks(involved):
            moves = []
            for comp in sorted(components):
                source = owner[comp]
                if source == target:
                    continue
                events, users, assignments = self._export_component(
                    source, members[comp]
                )
                moves.append(
                    {
                        "shard": source,
                        "events": events,
                        "users": users,
                        "assignments": assignments,
                    }
                )
            entry = self.manifest.append(
                "rebalance",
                {
                    "target": target,
                    "target_events_before": len(self._gids["event"][target]),
                    "target_users_before": len(self._gids["user"][target]),
                    "moves": moves,
                },
            )
            self._apply_rebalance(entry)
        self.rebalances += 1
        self.last_rebalance = self._rebalance_summary(entry)
        return target

    def _export_component(
        self, shard: int, event_gids: list[int]
    ) -> tuple[list[dict], list[dict], list[list[int]]]:
        """Snapshot the moving events, their seated users, and the seats.

        Everything is expressed in global ids -- the payload goes into
        the manifest's rebalance entry verbatim, so recovery can redo
        the migration without consulting this (possibly lost) process.
        Users move with the component only when *all* their seats are on
        moving events and they hold at least one; capacity they may have
        on other shards' user records is unaffected.
        """
        store = self._shards[shard].store
        event_gids_of = self._gids["event"][shard]
        user_gids_of = self._gids["user"][shard]
        moving = set(event_gids)
        events: list[dict] = []
        movers: set[int] = set()
        for gid in sorted(moving):
            local = self._local_id("event", shard, gid)
            record = store.event_record(local)
            record["conflicts"] = sorted(
                event_gids_of[other]
                for other in record["conflicts"]
                if event_gids_of[other] in moving
            )
            events.append({"gid": gid, **record})
            for user in store.users_of(local):
                if all(event_gids_of[e] in moving for e in store.events_of(user)):
                    movers.add(user_gids_of[user])
        users = [
            {"gid": gid, **store.user_record(self._local_id("user", shard, gid))}
            for gid in sorted(movers)
        ]
        assignments = sorted(
            [event_gids_of[e], user_gids_of[u]]
            for e, u in store.pairs()
            if event_gids_of[e] in moving and user_gids_of[u] in movers
        )
        return events, users, assignments

    # ------------------------------------------------------------------
    # Snapshots & compaction
    # ------------------------------------------------------------------

    def compact(self) -> ShardedCompactionStats:
        """Snapshot + trim every shard (the ``POST /compact`` admin op)."""
        with self._lock:
            self._check_open()
            return ShardedCompactionStats(
                [service.compact() for service in self._shards]
            )

    def _crash_after_snapshot(self) -> None:
        """Test hook: every shard's next compaction hard-exits mid-way.

        The process dies between the snapshot write and the journal trim
        (``geacc serve --crash-after-snapshot``, smoke scenario B).
        """
        for service in self._shards:
            service._crash_after_snapshot = True

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Total journal sequence across shards."""
        with self._lock:
            return sum(service.seq for service in self._shards)

    def assignments_of(self, user: int) -> tuple[int, ...]:
        """The user's standing events, as sorted global ids."""
        with self._lock:
            shard = self._shard_of("user", user)
            service = self._shards[shard]
            gids = self._gids["event"][shard]
            with service._lock:
                local = self._local_id("user", shard, user)
                return tuple(sorted(gids[e] for e in service.store.events_of(local)))

    def state_summary(self) -> dict:
        """The ``GET /state`` body, plus the ``sharding`` topology block."""
        with self._lock:
            shard_stats = [
                {
                    "shard": shard,
                    **service.state_summary(),
                    "retired_events": self._retired["event"][shard],
                    "retired_users": self._retired["user"][shard],
                }
                for shard, service in enumerate(self._shards)
            ]
            sizes = self.partitioner.component_sizes()
            # A recovered fleet reports its slowest shard's ladder rung and
            # the time its shards spent on snapshots and on replay.
            recoveries = [s["last_recovery"] for s in shard_stats if s["last_recovery"]]
            return {
                "seq": sum(s["seq"] for s in shard_stats),
                "n_events": len(self._owner["event"]),
                "n_users": len(self._owner["user"]),
                "n_assignments": sum(s["n_assignments"] for s in shard_stats),
                "open_events": sum(s["open_events"] for s in shard_stats),
                "requests_seen": sum(s["requests_seen"] for s in shard_stats),
                "batches_committed": sum(
                    s["batches_committed"] for s in shard_stats
                ),
                "pending": sum(s["pending"] for s in shard_stats),
                "engine": fleet_engine_summary([s["engine"] for s in shard_stats]),
                "max_sum": sum(s["max_sum"] for s in shard_stats),
                "digest": self.arrangement_digest(),
                "journal_bytes": sum(s["journal_bytes"] for s in shard_stats),
                "last_recovery": (
                    {
                        "rung": max(
                            (r["rung"] for r in recoveries), key=RECOVERY_RUNGS.index
                        ),
                        "snapshot_ms": round(sum(r["snapshot_ms"] for r in recoveries), 3),
                        "replay_ms": round(sum(r["replay_ms"] for r in recoveries), 3),
                    }
                    if recoveries
                    else None
                ),
                "sharding": {
                    "shards": len(self._shards),
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
        with self._lock, self._shard_locks(range(len(self._shards))):
            events = []
            event_remaining = []
            for gid, shard in enumerate(self._owner["event"]):
                store = self._shards[shard].store
                gids = self._gids["event"][shard]
                local = self._local_id("event", shard, gid)
                record = store.event_record(local)
                record["conflicts"] = sorted(
                    gids[other] for other in record["conflicts"]
                )
                events.append(record)
                event_remaining.append(store.event_remaining(local))
            users = []
            user_remaining = []
            for gid, shard in enumerate(self._owner["user"]):
                store = self._shards[shard].store
                local = self._local_id("user", shard, gid)
                users.append(store.user_record(local))
                user_remaining.append(store.user_remaining(local))
            assignments = sorted(
                (self._gids["event"][shard][e], self._gids["user"][shard][u])
                for shard, service in enumerate(self._shards)
                for e, u in service.store.pairs()
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
        return canonical_digest(self.arrangement_state())

    def check_invariants(self) -> None:
        """Per-shard invariants plus the cross-shard routing contract."""
        with self._lock:
            for shard, service in enumerate(self._shards):
                service.check_invariants()
                store = service.store
                for kind, n_local in (
                    ("event", store.n_events),
                    ("user", store.n_users),
                ):
                    live = self._local[kind][shard]
                    retired = self._retired[kind][shard]
                    if len(live) + retired != n_local:
                        raise ServiceError(
                            f"shard {shard}: {kind} map drift ({len(live)} live "
                            f"+ {retired} retired != {n_local})"
                        )
                    gids = self._gids[kind][shard]
                    for gid, local in live.items():
                        if gids[local] != gid:
                            raise ServiceError(
                                f"shard {shard}: {kind} map inversion broken "
                                f"at {gid}"
                            )
                        if self._owner[kind][gid] != shard:
                            raise ServiceError(
                                f"{kind} {gid} lives on shard {shard} but "
                                f"routes to {self._owner[kind][gid]}"
                            )
            for kind, owner in self._owner.items():
                for gid, shard in enumerate(owner):
                    if gid not in self._local[kind][shard]:
                        raise ServiceError(
                            f"{kind} {gid} routed to shard {shard} which does "
                            "not own it"
                        )
            for comp, member_gids in self.partitioner.components().items():
                owners = {self._owner["event"][gid] for gid in member_gids}
                if len(owners) != 1:
                    raise ServiceError(
                        f"component {comp} spans shards {sorted(owners)}"
                    )
            if len(self.partitioner) != len(self._owner["event"]):
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
        for service in self._shards:
            service.close()
        with self._lock:
            self._closed = True
            self.manifest.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator({self.root}, shards={len(self._shards)}, "
            f"events={len(self._owner['event'])}, "
            f"users={len(self._owner['user'])})"
        )


def _build_shards(
    build: Callable[[int], ArrangementService],
    count: int,
    cleanup: ExitStack,
    *,
    parallel: bool,
) -> list[ArrangementService]:
    """``build(shard)`` for every shard; ``cleanup`` closes each one built.

    In parallel (one thread per shard) every shard finishes before the
    first error in shard order is raised; serially the walk stops at
    the first error.
    """
    if parallel:
        with ThreadPoolExecutor(max_workers=count) as pool:
            futures = [pool.submit(build, shard) for shard in range(count)]
        for future in futures:
            if future.exception() is None:
                cleanup.callback(future.result().close)
        return [future.result() for future in futures]
    services: list[ArrangementService] = []
    for shard in range(count):
        services.append(build(shard))
        cleanup.callback(services[-1].close)
    return services


def _fleet_root(root: str | Path, fs: FileSystem) -> Path:
    """``root`` as a path, refusing one that exists as a file.

    A journal file written by a pre-fleet single service lands here
    when passed as ``--journal``; it is not adopted.
    """
    root = Path(root)
    if fs.exists(root) and not fs.is_dir(root):
        raise JournalError(f"{root} is a file, not a fleet root")
    return root
