"""Mutable live-service state: a GEACC instance that grows over time.

The batch library's :class:`~repro.core.model.Instance` is a frozen
snapshot -- exactly what a long-lived service cannot use, because events
and users keep arriving. :class:`ArrangementStore` is the mutable
counterpart: events and users are appended by journaled commands, the
conflict set grows edge-by-edge, and the standing arrangement is edited
through O(1) :class:`Delta` objects that the micro-batch engine can
apply and revert without rebuilding anything.

The store is also the single source of truth for recovery: it is a pure
state machine over journal records (:meth:`ArrangementStore.apply`), so
replaying a journal reconstructs the exact pre-crash state -- see
:meth:`canonical_state` / :meth:`digest` for the equality the crash
tests assert.

Feasibility is not re-invented here: :meth:`check_invariants` snapshots
the live state into a real :class:`~repro.core.model.Instance` +
:class:`~repro.core.model.Arrangement` and runs the library's own
:func:`repro.core.validation.validate_arrangement` over it, then checks
the O(1) remaining-capacity accounting against the ground truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.similarity import (
    TILEABLE_METRICS,
    SimilarityRowCache,
    similarity_matrix,
)
from repro.core.validation import validate_arrangement
from repro.exceptions import JournalError, ServiceError

#: Journal/store command names (the record ``cmd`` field).
CMD_POST_EVENT = "post_event"
CMD_REGISTER_USER = "register_user"
CMD_REQUEST_ASSIGNMENT = "request_assignment"
CMD_FREEZE_EVENT = "freeze_event"
CMD_CANCEL_EVENT = "cancel_event"
CMD_COMMIT_BATCH = "commit_batch"
CMD_RETIRE_EVENT = "retire_event"
CMD_RETIRE_USER = "retire_user"

ALL_COMMANDS = frozenset(
    {
        CMD_POST_EVENT,
        CMD_REGISTER_USER,
        CMD_REQUEST_ASSIGNMENT,
        CMD_FREEZE_EVENT,
        CMD_CANCEL_EVENT,
        CMD_COMMIT_BATCH,
        CMD_RETIRE_EVENT,
        CMD_RETIRE_USER,
    }
)


def as_vector(attributes: object) -> list:
    """Copy a client attribute vector (a missing one is a client error)."""
    if not isinstance(attributes, (list, tuple)):
        raise ServiceError(f"attributes must be a list of numbers, got {attributes!r}")
    return list(attributes)


def as_event_ids(conflicts: object) -> list[int]:
    """Sorted, de-duplicated event ids from a client list (``None`` = none)."""
    if conflicts is None:
        return []
    if not isinstance(conflicts, (list, tuple)):
        raise ServiceError("conflicts must be a list of event ids")
    for other in conflicts:
        if not isinstance(other, int):
            raise ServiceError(f"conflict references unknown event {other!r}")
    return sorted(set(conflicts))


@dataclass(frozen=True)
class StoreConfig:
    """Immutable service-wide model parameters (journal header payload).

    Attributes:
        dimension: Attribute dimensionality ``d`` of Definitions 1-2.
        t: The attribute bound ``T`` (attributes live in ``[0, T]^d``).
        metric: Similarity metric name (``euclidean`` = the paper's
            Eq. 1).
    """

    dimension: int
    t: float = 10_000.0
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ServiceError(f"dimension must be >= 1, got {self.dimension}")
        if not (self.t > 0):
            raise ServiceError(f"attribute bound t must be > 0, got {self.t}")

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "t": self.t, "metric": self.metric}

    @classmethod
    def from_json(cls, data: dict) -> "StoreConfig":
        try:
            return cls(
                dimension=int(data["dimension"]),
                t=float(data["t"]),
                metric=str(data["metric"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed store config {data!r}: {exc}") from exc


@dataclass(frozen=True)
class Delta:
    """One micro-batch's arrangement edit: unassigns, then assigns.

    Both lists hold ``(event, user)`` pairs. Application cost is O(1)
    per pair (set insert/remove + counter bump); :meth:`reverse` gives
    the exact inverse delta, so a failed batch can be rolled back
    without snapshotting the store.
    """

    assigns: tuple[tuple[int, int], ...] = ()
    unassigns: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.assigns or self.unassigns)

    def reverse(self) -> "Delta":
        """The inverse edit (applying both is a no-op)."""
        return Delta(assigns=self.unassigns, unassigns=self.assigns)

    def to_json(self) -> dict:
        return {
            "assign": [[e, u] for e, u in self.assigns],
            "unassign": [[e, u] for e, u in self.unassigns],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Delta":
        try:
            return cls(
                assigns=tuple((int(e), int(u)) for e, u in data.get("assign", ())),
                unassigns=tuple(
                    (int(e), int(u)) for e, u in data.get("unassign", ())
                ),
            )
        except (TypeError, ValueError) as exc:
            raise JournalError(f"malformed delta {data!r}: {exc}") from exc


@dataclass
class _LiveEvent:
    capacity: int
    attributes: tuple[float, ...]
    frozen: bool = False
    cancelled: bool = False
    conflicts: set[int] = field(default_factory=set)


@dataclass
class _LiveUser:
    capacity: int
    attributes: tuple[float, ...]


class ArrangementStore:
    """Live GEACC state: entities, conflicts, assignments, capacities.

    All mutation goes through :meth:`apply` (a journal record in, a
    state transition out) or :meth:`apply_delta` / :meth:`revert_delta`
    for the engine's batch edits. Validation of *inputs* happens before
    journaling (:meth:`validate_command`); :meth:`apply` assumes the
    record was accepted and raises :class:`JournalError` if a replayed
    record no longer fits the state -- that means the journal is corrupt,
    not merely that a client sent garbage.
    """

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self.seq = 0
        self.requests_seen = 0
        self.batches_committed = 0
        self._events: list[_LiveEvent] = []
        self._users: list[_LiveUser] = []
        self._events_of_user: list[set[int]] = []
        self._users_of_event: list[set[int]] = []
        self._event_remaining: list[int] = []
        self._user_remaining: list[int] = []
        self._n_assignments = 0
        # Packed user attributes (rows appended as users register) plus a
        # per-event similarity-row cache over that append-only set. User
        # and event attributes are immutable, so cached rows stay valid
        # as prefixes and only new-user suffixes are ever recomputed.
        self._user_attrs_buf = np.empty((0, config.dimension), dtype=np.float64)
        self._row_cache: SimilarityRowCache | None = (
            SimilarityRowCache(config.t, config.metric)
            if config.metric in TILEABLE_METRICS
            else None
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_assignments(self) -> int:
        return self._n_assignments

    def open_events(self) -> list[int]:
        """Events still accepting (and releasing) seats, ascending."""
        return [
            v
            for v, event in enumerate(self._events)
            if not event.frozen and not event.cancelled
        ]

    def is_open(self, event: int) -> bool:
        record = self._events[event]
        return not record.frozen and not record.cancelled

    def is_frozen(self, event: int) -> bool:
        return self._events[event].frozen

    def is_cancelled(self, event: int) -> bool:
        return self._events[event].cancelled

    def event_capacity(self, event: int) -> int:
        return self._events[event].capacity

    def user_capacity(self, user: int) -> int:
        return self._users[user].capacity

    def event_attributes(self, event: int) -> tuple[float, ...]:
        return self._events[event].attributes

    def user_attributes(self, user: int) -> tuple[float, ...]:
        return self._users[user].attributes

    def event_conflicts(self, event: int) -> frozenset[int]:
        """Events conflicting with ``event`` (the live adjacency set)."""
        return frozenset(self._events[event].conflicts)

    def best_similarity(self, attributes: tuple[float, ...]) -> float:
        """Best Eq. (1) similarity of a prospective user to any live event.

        The shard router's affinity score: a new user lands on the shard
        whose events it most resembles. Cancelled events are skipped so
        tombstones left behind by a migration never attract traffic.
        """
        candidates = [e.attributes for e in self._events if not e.cancelled]
        if not candidates:
            return 0.0
        sims = similarity_matrix(
            np.asarray(candidates),
            np.asarray([attributes]),
            self.config.t,
            self.config.metric,
        )
        return float(sims.max())

    def event_remaining(self, event: int) -> int:
        return self._event_remaining[event]

    def user_remaining(self, user: int) -> int:
        return self._user_remaining[user]

    def events_of(self, user: int) -> frozenset[int]:
        return frozenset(self._events_of_user[user])

    def users_of(self, event: int) -> frozenset[int]:
        return frozenset(self._users_of_event[event])

    def pairs(self) -> list[tuple[int, int]]:
        """All standing ``(event, user)`` pairs, sorted for determinism."""
        return sorted(
            (event, user)
            for event, users in enumerate(self._users_of_event)
            for user in users
        )

    def conflicts_between(self, a: int, b: int) -> bool:
        return b in self._events[a].conflicts

    def conflicts_with_any(self, event: int, others: frozenset[int] | set[int]) -> bool:
        adjacency = self._events[event].conflicts
        return any(other in adjacency for other in others)

    def _user_attrs_view(self) -> np.ndarray:
        """Packed ``(|U|, d)`` user-attribute matrix (rows append-only)."""
        return self._user_attrs_buf[: len(self._users)]

    def _append_user_attrs(self, attributes: tuple[float, ...]) -> None:
        buf = self._user_attrs_buf
        n = len(self._users)  # the new user is already in self._users
        if n > buf.shape[0]:
            grown = np.empty(
                (max(16, 2 * buf.shape[0], n), buf.shape[1]), dtype=np.float64
            )
            grown[: buf.shape[0]] = buf
            self._user_attrs_buf = buf = grown
        buf[n - 1] = attributes

    def sim(self, event: int, user: int) -> float:
        """Eq. (1) similarity of one live pair.

        Served from the memoised event row when the metric is tileable
        (one vectorised row compute, then O(1) lookups for every later
        probe of the same event), else computed pairwise on demand.
        """
        if self._row_cache is not None:
            return float(self.sim_row(event)[user])
        row = similarity_matrix(
            np.asarray([self._events[event].attributes]),
            np.asarray([self._users[user].attributes]),
            self.config.t,
            self.config.metric,
        )
        return float(row[0, 0])

    def sim_row(self, event: int) -> np.ndarray:
        """Similarities of one event against every registered user.

        Memoised per event over the append-only user set: a repeat call
        after ``k`` new registrations computes only the ``k``-column
        suffix tile. The returned row is read-only when cached.
        """
        if not self._users:
            return np.zeros(0)
        if self._row_cache is not None:
            return self._row_cache.row(
                event,
                np.asarray(self._events[event].attributes, dtype=np.float64),
                self._user_attrs_view(),
            )
        return similarity_matrix(
            np.asarray([self._events[event].attributes]),
            np.asarray([u.attributes for u in self._users]),
            self.config.t,
            self.config.metric,
        )[0]

    def max_sum(self) -> float:
        """``MaxSum`` of the standing arrangement (Definition 5)."""
        if not self._n_assignments:
            return 0.0
        sims = self._sims_matrix()
        return float(
            sum(sims[event, user] for event, user in self.pairs())
        )

    # ------------------------------------------------------------------
    # Feasibility guard (the paper's, plus the service lifecycle)
    # ------------------------------------------------------------------

    def can_assign(self, event: int, user: int) -> bool:
        """True iff ``{event, user}`` could be added right now.

        The exact :meth:`Arrangement.can_add` guard -- capacity left on
        both sides, pair unmatched, no conflict with the user's standing
        events -- plus the service lifecycle: the event must be open and
        the similarity positive.
        """
        if not (0 <= event < self.n_events and 0 <= user < self.n_users):
            return False
        if not self.is_open(event):
            return False
        if self._event_remaining[event] <= 0 or self._user_remaining[user] <= 0:
            return False
        if user in self._users_of_event[event]:
            return False
        if self.conflicts_with_any(event, self._events_of_user[user]):
            return False
        return self.sim(event, user) > 0

    # ------------------------------------------------------------------
    # Command validation (before journaling) and application (after)
    # ------------------------------------------------------------------

    def validate_command(self, cmd: str, args: dict) -> None:
        """Reject a client command *before* it reaches the journal.

        Raises:
            ServiceError: With a client-presentable reason. Nothing is
                journaled for a rejected command.
        """
        if cmd == CMD_POST_EVENT:
            self._validate_entity_args(args)
            conflicts = args.get("conflicts", [])
            if not isinstance(conflicts, (list, tuple)):
                raise ServiceError("conflicts must be a list of event ids")
            for other in conflicts:
                if not isinstance(other, int) or not 0 <= other < self.n_events:
                    raise ServiceError(f"conflict references unknown event {other!r}")
        elif cmd == CMD_REGISTER_USER:
            self._validate_entity_args(args)
        elif cmd == CMD_REQUEST_ASSIGNMENT:
            user = args.get("user")
            if not isinstance(user, int) or not 0 <= user < self.n_users:
                raise ServiceError(f"unknown user {user!r}")
        elif cmd == CMD_FREEZE_EVENT:
            event = self._validate_event_ref(args)
            if self._events[event].cancelled:
                raise ServiceError(f"event {event} is cancelled; cannot freeze")
        elif cmd == CMD_CANCEL_EVENT:
            event = self._validate_event_ref(args)
            if self._events[event].frozen:
                raise ServiceError(f"event {event} is frozen; cannot cancel")
            if self._events[event].cancelled:
                raise ServiceError(f"event {event} is already cancelled")
        elif cmd == CMD_COMMIT_BATCH:
            # Engine-internal; validated structurally during apply.
            pass
        elif cmd == CMD_RETIRE_EVENT:
            event = self._validate_event_ref(args)
            if self._events[event].cancelled:
                raise ServiceError(f"event {event} is already retired/cancelled")
        elif cmd == CMD_RETIRE_USER:
            user = args.get("user")
            if not isinstance(user, int) or not 0 <= user < self.n_users:
                raise ServiceError(f"unknown user {user!r}")
            if self._events_of_user[user]:
                raise ServiceError(
                    f"user {user} still holds seats; release them before retiring"
                )
        else:
            raise ServiceError(f"unknown command {cmd!r}")

    def _validate_entity_args(self, args: dict) -> None:
        capacity = args.get("capacity")
        if not isinstance(capacity, int) or capacity < 0:
            raise ServiceError(f"capacity must be a non-negative int, got {capacity!r}")
        attributes = args.get("attributes")
        if not isinstance(attributes, (list, tuple)) or len(attributes) != (
            self.config.dimension
        ):
            raise ServiceError(
                f"attributes must be a length-{self.config.dimension} vector"
            )
        for value in attributes:
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ServiceError(f"attribute {value!r} is not a finite number")
            if not 0 <= value <= self.config.t:
                raise ServiceError(
                    f"attribute {value!r} outside [0, {self.config.t}]"
                )

    def _validate_event_ref(self, args: dict) -> int:
        event = args.get("event")
        if not isinstance(event, int) or not 0 <= event < self.n_events:
            raise ServiceError(f"unknown event {event!r}")
        return event

    def apply(self, record: dict) -> None:
        """Apply one journal record (live path and replay path alike).

        Records carry ``{"seq": n, "cmd": name, ...args}``; sequence
        numbers must arrive in order (the journal enforces contiguity,
        the store enforces monotonicity so a half-applied batch cannot
        be re-applied).

        Raises:
            JournalError: If the record does not fit the current state.
        """
        seq = record.get("seq")
        cmd = record.get("cmd")
        if not isinstance(seq, int) or seq != self.seq + 1:
            raise JournalError(
                f"record seq {seq!r} does not follow store seq {self.seq}"
            )
        if cmd == CMD_POST_EVENT:
            self._apply_post_event(record)
        elif cmd == CMD_REGISTER_USER:
            self._apply_register_user(record)
        elif cmd == CMD_REQUEST_ASSIGNMENT:
            self.requests_seen += 1
        elif cmd == CMD_FREEZE_EVENT:
            self._events[self._checked_event(record)].frozen = True
        elif cmd == CMD_CANCEL_EVENT:
            self._apply_cancel(record)
        elif cmd == CMD_COMMIT_BATCH:
            self._apply_commit_batch(record)
        elif cmd == CMD_RETIRE_EVENT:
            self._apply_retire_event(record)
        elif cmd == CMD_RETIRE_USER:
            self._apply_retire_user(record)
        else:
            raise JournalError(f"unknown journal command {cmd!r}")
        self.seq = seq

    def _checked_event(self, record: dict) -> int:
        event = record.get("event")
        if not isinstance(event, int) or not 0 <= event < self.n_events:
            raise JournalError(f"record references unknown event {event!r}")
        return event

    def _apply_post_event(self, record: dict) -> None:
        conflicts = {int(v) for v in record.get("conflicts", ())}
        for other in conflicts:
            if not 0 <= other < self.n_events:
                raise JournalError(f"conflict references unknown event {other}")
        event = len(self._events)
        self._events.append(
            _LiveEvent(
                capacity=int(record["capacity"]),
                attributes=tuple(float(x) for x in record["attributes"]),
                conflicts=conflicts,
            )
        )
        self._users_of_event.append(set())
        self._event_remaining.append(int(record["capacity"]))
        for other in conflicts:
            self._events[other].conflicts.add(event)

    def _apply_register_user(self, record: dict) -> None:
        user = _LiveUser(
            capacity=int(record["capacity"]),
            attributes=tuple(float(x) for x in record["attributes"]),
        )
        self._users.append(user)
        self._append_user_attrs(user.attributes)
        self._events_of_user.append(set())
        self._user_remaining.append(int(record["capacity"]))

    def _apply_cancel(self, record: dict) -> None:
        event = self._checked_event(record)
        live = self._events[event]
        if live.frozen or live.cancelled:
            raise JournalError(f"cancel of non-open event {event}")
        # Deterministically derived from state -- the record does not
        # (and must not) carry the seat list.
        for user in sorted(self._users_of_event[event]):
            self._unassign(event, user)
        live.cancelled = True

    def _apply_commit_batch(self, record: dict) -> None:
        delta = Delta.from_json(record)
        self.apply_delta(delta, _strict=JournalError)
        self.batches_committed += 1

    def _apply_retire_event(self, record: dict) -> None:
        """Tombstone an event after its state migrated to another shard.

        Unlike :meth:`_apply_cancel` this also releases *frozen* seats:
        the migrated copy owns them now, and keeping the tombstone's
        counters consistent requires the source side to hold none. The
        end state is indistinguishable from a cancelled event, so the
        canonical-state format (and every pre-sharding digest) is
        untouched.
        """
        event = self._checked_event(record)
        live = self._events[event]
        if live.cancelled:
            raise JournalError(f"retire of already-retired event {event}")
        for user in sorted(self._users_of_event[event]):
            self._unassign(event, user)
        live.frozen = False
        live.cancelled = True

    def _apply_retire_user(self, record: dict) -> None:
        """Tombstone a migrated user: capacity drops to zero.

        The user must hold no seats (its events were retired first in
        the migration order); a seat here means the rebalance protocol
        was violated, i.e. a corrupt journal.
        """
        user = record.get("user")
        if not isinstance(user, int) or not 0 <= user < self.n_users:
            raise JournalError(f"retire of unknown user {user!r}")
        if self._events_of_user[user]:
            raise JournalError(f"retire of user {user} who still holds seats")
        self._users[user].capacity = 0
        self._user_remaining[user] = 0

    # ------------------------------------------------------------------
    # O(1) delta application (the engine's edit path)
    # ------------------------------------------------------------------

    def apply_delta(
        self, delta: Delta, _strict: type[Exception] = ServiceError
    ) -> None:
        """Apply ``delta`` (unassigns first); each pair edit is O(1).

        Every edit must target an *open* event; assigns must pass the
        full :meth:`can_assign` guard minus the sim check (the engine
        guarantees sim > 0 by construction; replay trusts the journal
        and the invariant checker re-certifies afterwards).
        """
        applied_un: list[tuple[int, int]] = []
        applied_as: list[tuple[int, int]] = []
        try:
            for event, user in delta.unassigns:
                if not (0 <= event < self.n_events and 0 <= user < self.n_users):
                    raise _strict(f"delta references unknown pair ({event}, {user})")
                if not self.is_open(event):
                    raise _strict(f"delta edits non-open event {event}")
                if user not in self._users_of_event[event]:
                    raise _strict(f"delta unassigns unmatched pair ({event}, {user})")
                self._unassign(event, user)
                applied_un.append((event, user))
            for event, user in delta.assigns:
                if not (0 <= event < self.n_events and 0 <= user < self.n_users):
                    raise _strict(f"delta references unknown pair ({event}, {user})")
                if (
                    not self.is_open(event)
                    or self._event_remaining[event] <= 0
                    or self._user_remaining[user] <= 0
                    or user in self._users_of_event[event]
                    or self.conflicts_with_any(event, self._events_of_user[user])
                ):
                    raise _strict(f"delta assign ({event}, {user}) is infeasible")
                self._assign(event, user)
                applied_as.append((event, user))
        except Exception:
            # Roll the partial application back so the store never holds
            # a half-applied batch.
            for event, user in reversed(applied_as):
                self._unassign(event, user)
            for event, user in reversed(applied_un):
                self._assign(event, user)
            raise

    def revert_delta(self, delta: Delta) -> None:
        """Undo a previously applied delta (O(1) per pair)."""
        self.apply_delta(delta.reverse())

    def _assign(self, event: int, user: int) -> None:
        self._users_of_event[event].add(user)
        self._events_of_user[user].add(event)
        self._event_remaining[event] -= 1
        self._user_remaining[user] -= 1
        self._n_assignments += 1

    def _unassign(self, event: int, user: int) -> None:
        self._users_of_event[event].remove(user)
        self._events_of_user[user].remove(event)
        self._event_remaining[event] += 1
        self._user_remaining[user] += 1
        self._n_assignments -= 1

    # ------------------------------------------------------------------
    # Snapshots, equality, invariants
    # ------------------------------------------------------------------

    def _sims_matrix(self) -> np.ndarray:
        if not self._events or not self._users:
            return np.zeros((len(self._events), len(self._users)))
        return similarity_matrix(
            np.asarray([e.attributes for e in self._events]),
            self._user_attrs_view(),
            self.config.t,
            self.config.metric,
        )

    def snapshot_instance(self) -> Instance:
        """Freeze the live state into a batch :class:`Instance`.

        Cancelled events keep their slot (ids are stable) with capacity
        0, so the snapshot's shape always matches the live id space.
        """
        capacities = [
            0 if e.cancelled else e.capacity for e in self._events
        ]
        conflicts = ConflictGraph(
            len(self._events),
            [
                (a, b)
                for a, event in enumerate(self._events)
                for b in event.conflicts
                if a < b
            ],
        )
        return Instance(
            np.asarray(capacities, dtype=np.int64),
            np.asarray([u.capacity for u in self._users], dtype=np.int64),
            conflicts,
            sims=self._sims_matrix(),
            validate=False,
        )

    def snapshot_arrangement(self, instance: Instance | None = None) -> Arrangement:
        """The standing assignment as a batch :class:`Arrangement`."""
        arrangement = Arrangement(instance or self.snapshot_instance())
        for event, user in self.pairs():
            arrangement.add(event, user)
        return arrangement

    def check_invariants(self) -> None:
        """Certify the live state with the library's own validator.

        Runs :func:`repro.core.validation.validate_arrangement` over a
        snapshot (capacities, conflicts, sim > 0 -- Definition 5 in
        full), then cross-checks the O(1) remaining-capacity counters
        against the ground-truth set sizes.

        Raises:
            repro.exceptions.InfeasibleArrangementError: On a GEACC
                constraint violation.
            ServiceError: On internal accounting drift.
        """
        instance = self.snapshot_instance()
        validate_arrangement(self.snapshot_arrangement(instance), instance)
        for event, live in enumerate(self._events):
            expected = live.capacity - len(self._users_of_event[event])
            if live.cancelled and self._users_of_event[event]:
                raise ServiceError(f"cancelled event {event} still holds seats")
            if self._event_remaining[event] != expected:
                raise ServiceError(
                    f"event {event} remaining-capacity drift: "
                    f"{self._event_remaining[event]} != {expected}"
                )
        for user in range(self.n_users):
            expected = self._users[user].capacity - len(self._events_of_user[user])
            if self._user_remaining[user] != expected:
                raise ServiceError(
                    f"user {user} remaining-capacity drift: "
                    f"{self._user_remaining[user]} != {expected}"
                )
        if self._n_assignments != sum(
            len(users) for users in self._users_of_event
        ):
            raise ServiceError("assignment-count drift")

    def canonical_state(self) -> dict:
        """The full state as one canonical JSON-ready dict.

        Two stores are *the same state* iff their canonical dicts are
        equal; :meth:`digest` hashes this dict, and the crash-recovery
        tests compare digests across kill/replay boundaries.
        """
        return {
            "config": self.config.to_json(),
            "seq": self.seq,
            "requests_seen": self.requests_seen,
            "batches_committed": self.batches_committed,
            "events": [
                {
                    "capacity": e.capacity,
                    "attributes": list(e.attributes),
                    "frozen": e.frozen,
                    "cancelled": e.cancelled,
                    "conflicts": sorted(e.conflicts),
                }
                for e in self._events
            ],
            "users": [
                {"capacity": u.capacity, "attributes": list(u.attributes)}
                for u in self._users
            ],
            "assignments": [[e, u] for e, u in self.pairs()],
            "event_remaining": list(self._event_remaining),
            "user_remaining": list(self._user_remaining),
        }

    @classmethod
    def from_canonical(cls, state: dict) -> "ArrangementStore":
        """Rebuild a store from a :meth:`canonical_state` dict.

        The inverse of :meth:`canonical_state`, used by the snapshot
        layer: entities and assignments are reconstructed directly (no
        journal records re-applied), then the O(1) remaining-capacity
        counters are cross-checked against the snapshot's own -- any
        drift means the payload does not describe a state this class can
        produce.

        Raises:
            ServiceError: On a structurally malformed or internally
                inconsistent canonical payload.
        """
        try:
            store = cls(StoreConfig.from_json(state["config"]))
            store.seq = int(state["seq"])
            store.requests_seen = int(state["requests_seen"])
            store.batches_committed = int(state["batches_committed"])
            for entry in state["events"]:
                store._events.append(
                    _LiveEvent(
                        capacity=int(entry["capacity"]),
                        attributes=tuple(float(x) for x in entry["attributes"]),
                        frozen=bool(entry["frozen"]),
                        cancelled=bool(entry["cancelled"]),
                        conflicts={int(v) for v in entry["conflicts"]},
                    )
                )
                store._users_of_event.append(set())
                store._event_remaining.append(int(entry["capacity"]))
            for entry in state["users"]:
                user = _LiveUser(
                    capacity=int(entry["capacity"]),
                    attributes=tuple(float(x) for x in entry["attributes"]),
                )
                store._users.append(user)
                store._append_user_attrs(user.attributes)
                store._events_of_user.append(set())
                store._user_remaining.append(int(entry["capacity"]))
            for pair in state["assignments"]:
                event, user = (int(pair[0]), int(pair[1]))
                if not (0 <= event < store.n_events and 0 <= user < store.n_users):
                    raise ValueError(f"assignment ({event}, {user}) out of range")
                if user in store._users_of_event[event]:
                    raise ValueError(f"duplicate assignment ({event}, {user})")
                store._assign(event, user)
            expected_event = [int(v) for v in state["event_remaining"]]
            expected_user = [int(v) for v in state["user_remaining"]]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed canonical state: {exc}") from exc
        if (
            store._event_remaining != expected_event
            or store._user_remaining != expected_user
        ):
            raise ServiceError(
                "canonical state is internally inconsistent: remaining-capacity "
                "fields disagree with the assignment list"
            )
        return store

    def digest(self) -> str:
        """SHA-256 over the canonical state (stable across processes)."""
        payload = json.dumps(
            self.canonical_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def arrangement_state(self) -> dict:
        """Canonical state minus the journal counters.

        A sharded deployment splits one logical history across several
        journals, so ``seq`` / ``requests_seen`` / ``batches_committed``
        necessarily differ from the unsharded run even when the
        *arrangement* is identical. This view keeps everything a user
        can observe -- entities, lifecycle flags, conflicts, seats,
        remaining capacities -- and drops only the bookkeeping counters;
        :func:`repro.service.sharding.ShardCoordinator.arrangement_state`
        produces the same dict from global ids, which is the equality
        the sharding equivalence tests assert.
        """
        state = self.canonical_state()
        for counter in ("seq", "requests_seen", "batches_committed"):
            del state[counter]
        return state

    def arrangement_digest(self) -> str:
        """SHA-256 over :meth:`arrangement_state`."""
        payload = json.dumps(
            self.arrangement_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrangementStore):
            return NotImplemented
        return self.canonical_state() == other.canonical_state()

    __hash__ = None  # type: ignore[assignment]  # mutable; identity hashing would lie

    def __repr__(self) -> str:
        return (
            f"ArrangementStore(seq={self.seq}, |V|={self.n_events}, "
            f"|U|={self.n_users}, |M|={self._n_assignments}, "
            f"open={len(self.open_events())})"
        )
