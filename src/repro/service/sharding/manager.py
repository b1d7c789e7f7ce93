"""Per-shard ownership: one full service stack plus the id maps.

A :class:`ShardManager` owns everything one shard needs to run alone --
an :class:`~repro.service.store.ArrangementStore`, an fsync'd
:class:`~repro.service.journal.Journal`, a snapshot directory, and a
:class:`~repro.service.engine.MicroBatchEngine` -- as one
:class:`~repro.service.frontend.ArrangementService`, built by its own
``create``/``recover``. So the write-ahead discipline, auto-compaction
and the recovery ladder apply to each shard independently.

On top of the service the manager keeps the global<->local id
translation: shard journals speak local ids (dense, per-shard), the
coordinator speaks global ids, and the append-only ``events_g`` /
``users_g`` lists (local -> global) plus their inverse dicts are the
bridge. The maps are *not* persisted here -- they are derivable from
the coordinator's manifest, which is what recovery rebuilds them from.

Only :mod:`repro.service.sharding` may reach through a manager into its
``.service``/``.store``/``.journal`` (lint rule R16): everything else
talks to the :class:`~repro.service.sharding.ShardCoordinator`.
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.engine import PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.journal import REAL_FS, FileSystem
from repro.service.store import (
    CMD_POST_EVENT,
    CMD_REGISTER_USER,
    ArrangementStore,
    StoreConfig,
)


class ShardManager:
    """One shard's service stack plus global<->local id translation."""

    def __init__(self, shard_id: int, service: ArrangementService) -> None:
        self.shard_id = shard_id
        self.service = service
        #: Local id -> global id, append-only (tombstoned slots keep
        #: their last gid; liveness is tracked by the inverse maps).
        self.events_g: list[int] = []
        self.users_g: list[int] = []
        #: Global id -> local id, live entities only.
        self._local_event: dict[int, int] = {}
        self._local_user: dict[int, int] = {}
        #: Entities tombstoned out of this shard by a rebalance.
        self.retired_events = 0
        self.retired_users = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def journal_path(root: Path, shard_id: int) -> Path:
        return root / f"shard-{shard_id:02d}.jsonl"

    @staticmethod
    def snapshot_dir(root: Path, shard_id: int) -> Path:
        return root / f"shard-{shard_id:02d}.snapshots"

    @classmethod
    def create(
        cls,
        root: Path,
        shard_id: int,
        config: StoreConfig,
        *,
        fs: FileSystem = REAL_FS,
        **service_kwargs: object,
    ) -> "ShardManager":
        """Create a fresh shard under ``root`` (journal + snapshot dir)."""
        service = ArrangementService.create(
            cls.journal_path(root, shard_id),
            config,
            fs=fs,
            snapshot_dir=cls.snapshot_dir(root, shard_id),
            **service_kwargs,
        )
        return cls(shard_id, service)

    @classmethod
    def recover(
        cls,
        root: Path,
        shard_id: int,
        config: StoreConfig,
        *,
        fs: FileSystem = REAL_FS,
        **service_kwargs: object,
    ) -> "ShardManager":
        """Recover one shard through its own snapshot+tail ladder.

        Each shard recovers independently -- a corrupt snapshot or torn
        journal here degrades *this* shard down its ladder without the
        other shards replaying a single record.
        """
        service = ArrangementService.recover(
            cls.journal_path(root, shard_id),
            snapshot_dir=cls.snapshot_dir(root, shard_id),
            config=config,
            fs=fs,
            **service_kwargs,
        )
        return cls(shard_id, service)

    # ------------------------------------------------------------------
    # Id translation
    # ------------------------------------------------------------------

    @property
    def store(self) -> ArrangementStore:
        return self.service.store

    def local_event(self, gid: int) -> int:
        try:
            return self._local_event[gid]
        except KeyError:
            raise ServiceError(
                f"event {gid} does not live on shard {self.shard_id}"
            ) from None

    def local_user(self, gid: int) -> int:
        try:
            return self._local_user[gid]
        except KeyError:
            raise ServiceError(
                f"user {gid} does not live on shard {self.shard_id}"
            ) from None

    def bind_event(self, gid: int, local: int) -> None:
        """Record that global event ``gid`` occupies local slot ``local``.

        Normal operation appends (``local == len(events_g)``); the
        recovery walk re-binds in the same order, so a mismatch means
        the manifest and the shard journal disagree.
        """
        if local == len(self.events_g):
            self.events_g.append(gid)
        elif not (0 <= local < len(self.events_g) and self.events_g[local] == gid):
            raise ServiceError(
                f"shard {self.shard_id}: event bind ({gid} -> local {local}) "
                "does not match the journal's arrival order"
            )
        self._local_event[gid] = local

    def bind_user(self, gid: int, local: int) -> None:
        if local == len(self.users_g):
            self.users_g.append(gid)
        elif not (0 <= local < len(self.users_g) and self.users_g[local] == gid):
            raise ServiceError(
                f"shard {self.shard_id}: user bind ({gid} -> local {local}) "
                "does not match the journal's arrival order"
            )
        self._local_user[gid] = local

    def unbind_event(self, gid: int) -> None:
        """Drop a migrated-away event from the live maps (tombstone stays)."""
        del self._local_event[gid]
        self.retired_events += 1

    def unbind_user(self, gid: int) -> None:
        del self._local_user[gid]
        self.retired_users += 1

    def owns_event(self, gid: int) -> bool:
        return gid in self._local_event

    def owns_user(self, gid: int) -> bool:
        return gid in self._local_user

    @property
    def n_live_events(self) -> int:
        return len(self._local_event)

    @property
    def n_live_users(self) -> int:
        return len(self._local_user)

    def live_events(self) -> list[int]:
        """Global ids of events living on this shard, ascending."""
        return sorted(self._local_event)

    def live_users(self) -> list[int]:
        return sorted(self._local_user)

    # ------------------------------------------------------------------
    # Commands (global ids in, local execution)
    # ------------------------------------------------------------------

    def validate_post_event(
        self, capacity: int, attributes: list[float], conflict_gids: list[int]
    ) -> None:
        """Admission-check a post against this shard, mutating nothing.

        The coordinator validates *before* writing the manifest entry so
        a rejected command never leaves a durable trace anywhere.
        """
        local_conflicts = [self.local_event(g) for g in conflict_gids]
        with self.service._lock:
            self.store.validate_command(
                CMD_POST_EVENT,
                {
                    "capacity": capacity,
                    "attributes": list(attributes),
                    "conflicts": local_conflicts,
                },
            )

    def validate_register_user(
        self, capacity: int, attributes: list[float]
    ) -> None:
        with self.service._lock:
            self.store.validate_command(
                CMD_REGISTER_USER,
                {"capacity": capacity, "attributes": list(attributes)},
            )

    def post_event(
        self,
        gid: int,
        capacity: int,
        attributes: list[float],
        conflict_gids: list[int],
    ) -> int:
        """Post a new event on this shard; binds and returns its local id."""
        local_conflicts = [self.local_event(g) for g in conflict_gids]
        local = self.service.post_event(capacity, attributes, local_conflicts)
        self.bind_event(gid, local)
        self.service.engine.mark_dirty()
        return local

    def register_user(
        self, gid: int, capacity: int, attributes: list[float]
    ) -> int:
        local = self.service.register_user(capacity, attributes)
        self.bind_user(gid, local)
        return local

    def request_assignment(self, gid: int) -> PendingRequest:
        """Admit + journal an assignment request; never blocks.

        The future answers in global event ids.
        """
        result = self.service.request_assignment(self.local_user(gid), wait=False)
        assert isinstance(result, PendingRequest)
        result.global_ids = self.events_g
        return result

    def freeze_event(self, gid: int) -> None:
        self.service.freeze_event(self.local_event(gid))
        self.service.engine.mark_dirty()

    def cancel_event(self, gid: int) -> None:
        self.service.cancel_event(self.local_event(gid))
        self.service.engine.mark_dirty()

    def events_of(self, gid: int) -> tuple[int, ...]:
        """The user's standing events, as sorted global ids."""
        local = self.local_user(gid)
        with self.service._lock:
            return tuple(
                sorted(self.events_g[e] for e in self.store.events_of(local))
            )

    def best_similarity(self, attributes: tuple[float, ...]) -> float:
        with self.service._lock:
            return self.store.best_similarity(attributes)

    # ------------------------------------------------------------------
    # Migration (the rebalance protocol's export side)
    # ------------------------------------------------------------------

    def export_component(
        self, event_gids: list[int]
    ) -> tuple[list[dict], list[dict], list[list[int]]]:
        """Snapshot the moving events, their seated users, and the seats.

        Everything is expressed in global ids -- the payload goes into
        the manifest's rebalance entry verbatim, so recovery can redo
        the migration without consulting this (possibly lost) process.
        Users move with the component only when *all* their seats are on
        moving events and they hold at least one; capacity they may have
        on other shards' user records is unaffected.
        """
        store = self.store
        moving = set(event_gids)
        events: list[dict] = []
        for gid in sorted(moving):
            local = self.local_event(gid)
            events.append(
                {
                    "gid": gid,
                    "capacity": store.event_capacity(local),
                    "attributes": list(store.event_attributes(local)),
                    "frozen": store.is_frozen(local),
                    "cancelled": store.is_cancelled(local),
                    "conflicts": sorted(
                        self.events_g[other]
                        for other in store.event_conflicts(local)
                        if self.events_g[other] in moving
                    ),
                }
            )
        mover_users: set[int] = set()
        for gid in sorted(moving):
            for local_user in store.users_of(self.local_event(gid)):
                user_gid = self.users_g[local_user]
                seats = store.events_of(local_user)
                if all(self.events_g[e] in moving for e in seats):
                    mover_users.add(user_gid)
        users = [
            {
                "gid": gid,
                "capacity": store.user_capacity(self.local_user(gid)),
                "attributes": list(store.user_attributes(self.local_user(gid))),
            }
            for gid in sorted(mover_users)
        ]
        assignments = [
            [self.events_g[e], self.users_g[u]]
            for e, u in store.pairs()
            if self.events_g[e] in moving and self.users_g[u] in mover_users
        ]
        return events, users, sorted(assignments)

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard topology entry for ``GET /state``."""
        return {
            "shard": self.shard_id,
            **self.service.state_summary(),
            "retired_events": self.retired_events,
            "retired_users": self.retired_users,
        }

    def check_invariants(self) -> None:
        self.service.check_invariants()
        live_events = sorted(self._local_event.values())
        if len(live_events) + self.retired_events != self.store.n_events:
            raise ServiceError(
                f"shard {self.shard_id}: event map drift "
                f"({len(live_events)} live + {self.retired_events} retired != "
                f"{self.store.n_events})"
            )
        live_users = sorted(self._local_user.values())
        if len(live_users) + self.retired_users != self.store.n_users:
            raise ServiceError(f"shard {self.shard_id}: user map drift")
        for gid, local in self._local_event.items():
            if self.events_g[local] != gid:
                raise ServiceError(
                    f"shard {self.shard_id}: event map inversion broken at {gid}"
                )
        for gid, local in self._local_user.items():
            if self.users_g[local] != gid:
                raise ServiceError(
                    f"shard {self.shard_id}: user map inversion broken at {gid}"
                )

    def close(self) -> None:
        self.service.close()

    def __repr__(self) -> str:
        return f"ShardManager(shard={self.shard_id}, {self.store!r})"
