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
from repro.core.similarity import TILEABLE_METRICS, similarity_matrix
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


#: The largest capacity the engine's ``int64`` capacity arrays can hold.
MAX_CAPACITY = int(np.iinfo(np.int64).max)


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool`` (JSON ``true`` parses as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not is_int(other):
            raise ServiceError(f"conflict references unknown event {other!r}")
    return sorted(set(conflicts))


def canonical_json(state: dict) -> bytes:
    """``state`` as canonical JSON: sorted keys, no whitespace, UTF-8."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_digest(state: dict) -> str:
    """SHA-256 over :func:`canonical_json` (stable across processes)."""
    return hashlib.sha256(canonical_json(state)).hexdigest()


def grown_to(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``buf`` itself if ``shape`` fits in it, else a copy grown by doubling.

    The copy keeps ``buf``'s contents in its leading corner; a dimension
    that fits keeps its size.
    """
    if all(want <= have for want, have in zip(shape, buf.shape)):
        return buf
    grown = np.zeros(
        tuple(
            have if want <= have else max(16, 2 * have, want)
            for want, have in zip(shape, buf.shape)
        ),
        dtype=buf.dtype,
    )
    grown[tuple(slice(0, n) for n in buf.shape)] = buf
    return grown


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
class ChangeLog:
    """What changed since the engine last looked, in O(1) per record.

    New events and users are not listed: ids are append-only, so the
    engine keeps a watermark instead. Only lifecycle changes are kept,
    in sets bounded by the entity counts, so a store that never runs a
    batch (replay, bulk ingest) does not grow a log with its journal.

    Attributes:
        events: Events frozen, cancelled or retired, plus events whose
            seats a ``commit_batch`` edited.
        users: Users who lost seats to a cancel or a retire.
        retired: An event was retired (frozen seats may have been
            released, so derived masks must be rebuilt).
    """

    events: set[int] = field(default_factory=set)
    users: set[int] = field(default_factory=set)
    retired: bool = False


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
        self.changes = ChangeLog()
        # Packed attributes (rows appended as entities arrive) plus a
        # dense similarity buffer over them, allocated on first use and
        # grown by doubling. Attributes are immutable and tileable
        # metrics are per pair, so the filled block stays valid and only
        # new rows and columns are ever computed.
        self._event_attrs_buf = np.empty((0, config.dimension), dtype=np.float64)
        self._user_attrs_buf = np.empty((0, config.dimension), dtype=np.float64)
        self._sims_buf = np.empty((0, 0), dtype=np.float64)
        self._sims_filled = (0, 0)

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

    def event_record(self, event: int) -> dict:
        """One event as its canonical-state entry (conflicts ascending)."""
        record = self._events[event]
        return {
            "capacity": record.capacity,
            "attributes": list(record.attributes),
            "frozen": record.frozen,
            "cancelled": record.cancelled,
            "conflicts": sorted(record.conflicts),
        }

    def user_record(self, user: int) -> dict:
        """One user as its canonical-state entry."""
        record = self._users[user]
        return {"capacity": record.capacity, "attributes": list(record.attributes)}

    def event_conflicts(self, event: int) -> frozenset[int]:
        """Events conflicting with ``event`` (the live adjacency set)."""
        return frozenset(self._events[event].conflicts)

    def conflict_graph(self, events: "np.ndarray | range") -> ConflictGraph:
        """The conflict graph among ``events``, relabelled ``0..k-1``.

        ``events`` must be ascending; local id ``i`` is ``events[i]``.
        Edges leaving the set are dropped, so pass a union of conflict
        components when none may be lost.
        """
        local = {int(event): i for i, event in enumerate(events)}
        pairs = [
            (i, local[b])
            for a, i in local.items()
            for b in self._events[a].conflicts
            if a < b and b in local
        ]
        return ConflictGraph(len(local), pairs)

    def open_seats(self) -> tuple[np.ndarray, np.ndarray]:
        """Standing seats on open events as ``(events, users)`` arrays."""
        events: list[int] = []
        users: list[int] = []
        for event, record in enumerate(self._events):
            if record.frozen or record.cancelled:
                continue
            holders = self._users_of_event[event]
            events.extend([event] * len(holders))
            users.extend(holders)
        return (
            np.asarray(events, dtype=np.intp),
            np.asarray(users, dtype=np.intp),
        )

    def user_remaining_array(self) -> np.ndarray:
        """Remaining capacity of every user, as an array."""
        return np.asarray(self._user_remaining, dtype=np.int64)

    def take_changes(self) -> ChangeLog:
        """Hand the change log to the caller and start a fresh one."""
        changes, self.changes = self.changes, ChangeLog()
        return changes

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

    def _event_attrs_view(self) -> np.ndarray:
        """Packed ``(|V|, d)`` event-attribute matrix (rows append-only)."""
        return self._event_attrs_buf[: len(self._events)]

    def _append_user_attrs(self, attributes: tuple[float, ...]) -> None:
        n = len(self._users)  # the new user is already in self._users
        if n > len(self._user_attrs_buf):
            self._user_attrs_buf = grown_to(self._user_attrs_buf, (n, self.config.dimension))
        self._user_attrs_buf[n - 1] = attributes

    def _append_event_attrs(self, attributes: tuple[float, ...]) -> None:
        n = len(self._events)  # the new event is already in self._events
        if n > len(self._event_attrs_buf):
            self._event_attrs_buf = grown_to(self._event_attrs_buf, (n, self.config.dimension))
        self._event_attrs_buf[n - 1] = attributes

    @property
    def per_pair_similarity(self) -> bool:
        """True when a pair's similarity never changes as entities arrive.

        Holds for the tileable metrics; ``dot`` rescales by a peak that
        moves with every new entity.
        """
        return self.config.metric in TILEABLE_METRICS

    def similarities(self) -> np.ndarray:
        """The read-only ``(|V|, |U|)`` similarity matrix of every entity.

        With a per-pair metric the matrix lives in one buffer that is
        grown by doubling; a call computes only the rows of events and
        the columns of users that arrived since the last call. Other
        metrics are recomputed row by row on every call, as
        :meth:`sim_row` defines them.
        """
        n_events, n_users = len(self._events), len(self._users)
        if not self.per_pair_similarity:
            sims = np.zeros((n_events, n_users))
            for event in range(n_events if n_users else 0):
                sims[event] = self.sim_row(event)
            sims.flags.writeable = False
            return sims
        rows, cols = self._sims_filled
        if (rows, cols) != (n_events, n_users):
            self._sims_buf = buf = grown_to(self._sims_buf, (n_events, n_users))
            events, users = self._event_attrs_view(), self._user_attrs_view()
            t, metric = self.config.t, self.config.metric
            if cols < n_users and rows:
                buf[:rows, cols:n_users] = similarity_matrix(
                    events[:rows], users[cols:], t, metric
                )
            if rows < n_events and n_users:
                buf[rows:n_events, :n_users] = similarity_matrix(
                    events[rows:], users, t, metric
                )
            self._sims_filled = (n_events, n_users)
        view = self._sims_buf[:n_events, :n_users]
        view.flags.writeable = False
        return view

    def sim(self, event: int, user: int) -> float:
        """Eq. (1) similarity of one live pair.

        Served from :meth:`similarities` when the metric is per pair
        (O(1) lookups once the buffer is filled), else computed pairwise
        on demand.
        """
        if self.per_pair_similarity:
            return float(self.similarities()[event, user])
        row = similarity_matrix(
            np.asarray([self._events[event].attributes]),
            np.asarray([self._users[user].attributes]),
            self.config.t,
            self.config.metric,
        )
        return float(row[0, 0])

    def sim_row(self, event: int) -> np.ndarray:
        """Similarities of one event against every registered user.

        A read-only row of :meth:`similarities` when the metric is per
        pair, so no number of open events makes rows recompute; else
        computed on demand against the current user set.
        """
        if not self._users:
            return np.zeros(0)
        if self.per_pair_similarity:
            return self.similarities()[event]
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
                if not is_int(other) or not 0 <= other < self.n_events:
                    raise ServiceError(f"conflict references unknown event {other!r}")
        elif cmd == CMD_REGISTER_USER:
            self._validate_entity_args(args)
        elif cmd == CMD_REQUEST_ASSIGNMENT:
            user = args.get("user")
            if not is_int(user) or not 0 <= user < self.n_users:
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
            if not is_int(user) or not 0 <= user < self.n_users:
                raise ServiceError(f"unknown user {user!r}")
            if self._events_of_user[user]:
                raise ServiceError(
                    f"user {user} still holds seats; release them before retiring"
                )
        else:
            raise ServiceError(f"unknown command {cmd!r}")

    def _validate_entity_args(self, args: dict) -> None:
        capacity = args.get("capacity")
        if not is_int(capacity) or not 0 <= capacity <= MAX_CAPACITY:
            raise ServiceError(
                f"capacity must be a non-negative int up to {MAX_CAPACITY}, "
                f"got {capacity!r}"
            )
        attributes = args.get("attributes")
        if not isinstance(attributes, (list, tuple)) or len(attributes) != (
            self.config.dimension
        ):
            raise ServiceError(
                f"attributes must be a length-{self.config.dimension} vector"
            )
        for value in attributes:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not np.isfinite(value)
            ):
                raise ServiceError(f"attribute {value!r} is not a finite number")
            if not 0 <= value <= self.config.t:
                raise ServiceError(
                    f"attribute {value!r} outside [0, {self.config.t}]"
                )

    def _validate_event_ref(self, args: dict) -> int:
        event = args.get("event")
        if not is_int(event) or not 0 <= event < self.n_events:
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
            event = self._checked_event(record)
            self._events[event].frozen = True
            self.changes.events.add(event)
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
        self._append_event_attrs(self._events[event].attributes)
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
        self._release_seats(event)
        live.cancelled = True

    def _apply_commit_batch(self, record: dict) -> None:
        delta = Delta.from_json(record)
        self.apply_delta(delta, _strict=JournalError)
        self.batches_committed += 1
        self.changes.events.update(e for e, _ in delta.assigns)
        self.changes.events.update(e for e, _ in delta.unassigns)

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
        self._release_seats(event)
        live.frozen = False
        live.cancelled = True
        self.changes.retired = True

    def _release_seats(self, event: int) -> None:
        """Unassign every seat of ``event`` and log the change."""
        holders = sorted(self._users_of_event[event])
        for user in holders:
            self._unassign(event, user)
        self.changes.events.add(event)
        self.changes.users.update(holders)

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
            self._event_attrs_view(),
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
        return Instance(
            np.asarray(capacities, dtype=np.int64),
            np.asarray([u.capacity for u in self._users], dtype=np.int64),
            self.conflict_graph(range(len(self._events))),
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
            "events": [self.event_record(event) for event in range(self.n_events)],
            "users": [self.user_record(user) for user in range(self.n_users)],
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
                store._append_event_attrs(store._events[-1].attributes)
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
        return canonical_digest(self.canonical_state())

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
        return canonical_digest(self.arrangement_state())

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
