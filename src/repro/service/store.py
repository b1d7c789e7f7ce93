"""Mutable live-service state: a GEACC instance that grows over time.

The batch library's :class:`~repro.core.model.Instance` is a frozen
snapshot -- exactly what a long-lived service cannot use, because events
and users keep arriving. :class:`ArrangementStore` is the mutable
counterpart: events and users are appended by journaled commands, the
conflict set grows edge-by-edge, and the standing arrangement is edited
by ``commit_batch`` records, each an O(1)-per-pair :class:`Delta` the
micro-batch engine solved.

The store is also the single source of truth for recovery: it is a pure
state machine over journal records (:meth:`ArrangementStore.apply`), so
replaying a journal reconstructs the exact pre-crash state -- see
:meth:`canonical_state` / :meth:`digest` for the equality the crash
tests assert. The state lives in typed arrays (capacities, lifecycle
flags, packed attributes, seats, remaining capacities);
:meth:`state_buffers` hands them out in one fixed layout, which the
digest hashes and the snapshot codec writes, and :meth:`from_buffers`
rebuilds a store from them.

Every similarity the service reads -- the engine's batch instances,
:meth:`~ArrangementStore.sim`, :meth:`~ArrangementStore.max_sum`, the
invariant check -- comes from one buffer,
:meth:`~ArrangementStore.similarities`. That needs a metric whose
entries depend on the one pair only, so :class:`StoreConfig` accepts
the :data:`~repro.core.similarity.TILEABLE_METRICS` alone and refuses
the offline library's rescaled ``dot``.

Feasibility is not re-invented here: :meth:`check_invariants` snapshots
the live state into a real :class:`~repro.core.model.Instance` +
:class:`~repro.core.model.Arrangement` and runs the library's own
:func:`repro.core.validation.validate_arrangement` over it, then checks
the O(1) remaining-capacity accounting against the ground truth.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance, seat_order
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

#: Bits of an event's lifecycle flags (the ``event_flags`` buffer).
FROZEN = 1
CANCELLED = 2

#: The state buffers in digest and snapshot order, with their dtypes
#: (little-endian, C order): see :meth:`ArrangementStore.state_buffers`.
STATE_BUFFERS = (
    ("event_capacity", "<i8"),
    ("event_attributes", "<f8"),
    ("event_flags", "|u1"),
    ("conflicts", "<i8"),
    ("user_capacity", "<i8"),
    ("user_attributes", "<f8"),
    ("seats", "<i8"),
    ("event_remaining", "<i8"),
    ("user_remaining", "<i8"),
)


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


def buffers_digest(header: dict, buffers: Iterable[np.ndarray]) -> str:
    """SHA-256 over ``header`` as canonical JSON, then each buffer's bytes.

    The header fixes every buffer's dtype and shape, so the byte stream
    parses back one way only: equal digests mean equal headers and
    equal buffers.
    """
    digest = hashlib.sha256(canonical_json(header))
    for buf in buffers:
        digest.update(np.ascontiguousarray(buf))
    return digest.hexdigest()


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
        metric: Similarity metric name, one of
            :data:`~repro.core.similarity.TILEABLE_METRICS` (``euclidean``
            = the paper's Eq. 1).
    """

    dimension: int
    t: float = 10_000.0
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ServiceError(f"dimension must be >= 1, got {self.dimension}")
        if not (self.t > 0):
            raise ServiceError(f"attribute bound t must be > 0, got {self.t}")
        if self.metric not in TILEABLE_METRICS:
            raise ServiceError(
                f"metric {self.metric!r} is not served (choose from "
                f"{sorted(TILEABLE_METRICS)})"
            )

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
        except (KeyError, TypeError, ValueError, ServiceError) as exc:
            raise JournalError(f"malformed store config {data!r}: {exc}") from exc


@dataclass(frozen=True)
class Delta:
    """One micro-batch's arrangement edit: unassigns, then assigns.

    Both lists hold ``(event, user)`` pairs. The store applies one as a
    ``commit_batch`` record at O(1) per pair (seat insert/remove plus a
    counter bump) and rolls a batch that fails midway back pair by pair,
    without snapshotting the store.
    """

    assigns: tuple[tuple[int, int], ...] = ()
    unassigns: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.assigns or self.unassigns)

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


def _length(buf: np.ndarray) -> int:
    """A buffer's leading dimension (-1 for a scalar, which no shape fits)."""
    return buf.shape[0] if buf.ndim else -1


def _int_array(buf: np.ndarray) -> array:
    """A native ``array("q")`` copy of an integer numpy buffer."""
    return array("q", np.ascontiguousarray(buf, dtype=np.int64).tobytes())


def _attributes(entries: list, dimension: int) -> np.ndarray:
    """The ``attributes`` of canonical-state entries as an ``(n, d)`` array."""
    return np.array(
        [[float(x) for x in entry["attributes"]] for entry in entries], dtype=np.float64
    ).reshape(len(entries), dimension)


class ArrangementStore:
    """Live GEACC state: entities, conflicts, assignments, capacities.

    :meth:`apply` is the one mutator: a journal record in, a state
    transition out, the engine's batch edits included (``commit_batch``
    records). Inside ``repro`` it runs at two places only: the service's
    write-ahead spine, right after the record is fsync'd
    (:meth:`~repro.service.frontend.ArrangementService._journal_and_apply`),
    and :func:`~repro.service.journal.replay`. Validation of *inputs*
    happens before journaling (:meth:`validate_command`); :meth:`apply`
    assumes the record was accepted and raises :class:`JournalError` if a
    replayed record no longer fits the state -- that means the journal is
    corrupt, not merely that a client sent garbage.
    """

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self.seq = 0
        self.requests_seen = 0
        self.batches_committed = 0
        # Entities as typed arrays indexed by id: capacities, lifecycle
        # flags (FROZEN | CANCELLED bits) and each event's conflict set,
        # plus every conflict edge once as a flat (a, b) pair, a < b.
        self._event_capacity = array("q")
        self._event_flags = bytearray()
        self._conflicts: list[set[int]] = []
        self._conflict_pairs = array("q")
        self._user_capacity = array("q")
        # The seats as parallel (event, user) typed arrays and the
        # remaining capacities likewise, which a batch copies into numpy
        # in one step; and each user's events, mapped to their seat's
        # place in the seat arrays.
        self._seat_events = array("q")
        self._seat_users = array("q")
        self._events_of_user: list[dict[int, int]] = []
        self._event_remaining = array("q")
        self._user_remaining = array("q")
        self.changes = ChangeLog()
        # Packed attributes (rows appended as entities arrive) plus a
        # dense similarity buffer over them, allocated on first use and
        # grown by doubling. Attributes are immutable and the served
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
        return len(self._event_capacity)

    @property
    def n_users(self) -> int:
        return len(self._user_capacity)

    @property
    def n_assignments(self) -> int:
        return len(self._seat_events)

    def open_events(self) -> list[int]:
        """Events still accepting (and releasing) seats, ascending."""
        return [v for v, flags in enumerate(self._event_flags) if not flags]

    def is_open(self, event: int) -> bool:
        return not self._event_flags[event]

    def is_frozen(self, event: int) -> bool:
        return bool(self._event_flags[event] & FROZEN)

    def is_cancelled(self, event: int) -> bool:
        return bool(self._event_flags[event] & CANCELLED)

    def event_capacity(self, event: int) -> int:
        return self._event_capacity[event]

    def user_capacity(self, user: int) -> int:
        return self._user_capacity[user]

    def event_attributes(self, event: int) -> tuple[float, ...]:
        return tuple(self._event_attrs_buf[event].tolist())

    def user_attributes(self, user: int) -> tuple[float, ...]:
        return tuple(self._user_attrs_buf[user].tolist())

    def event_record(self, event: int) -> dict:
        """One event as its canonical-state entry (conflicts ascending)."""
        return {
            "capacity": self._event_capacity[event],
            "attributes": self._event_attrs_buf[event].tolist(),
            "frozen": self.is_frozen(event),
            "cancelled": self.is_cancelled(event),
            "conflicts": sorted(self._conflicts[event]),
        }

    def user_record(self, user: int) -> dict:
        """One user as its canonical-state entry."""
        return {
            "capacity": self._user_capacity[user],
            "attributes": self._user_attrs_buf[user].tolist(),
        }

    def event_conflicts(self, event: int) -> frozenset[int]:
        """Events conflicting with ``event`` (the live adjacency set)."""
        return frozenset(self._conflicts[event])

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
            for b in self._conflicts[a]
            if a < b and b in local
        ]
        return ConflictGraph(len(local), pairs)

    def seats(self) -> tuple[np.ndarray, np.ndarray]:
        """Every standing seat as ``(events, users)`` arrays, unordered."""
        return (
            np.array(self._seat_events, dtype=np.intp),
            np.array(self._seat_users, dtype=np.intp),
        )

    def user_remaining_array(self) -> np.ndarray:
        """Remaining capacity of every user, as an array."""
        return np.array(self._user_remaining, dtype=np.int64)

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
        live = ~self._cancelled()
        if not live.any():
            return 0.0
        sims = similarity_matrix(
            self._event_attrs_view()[live],
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
        events, users = self.seats()
        return frozenset(users[events == event].tolist())

    def pairs(self) -> list[tuple[int, int]]:
        """All standing ``(event, user)`` pairs, sorted for determinism."""
        events, users = seat_order(*self.seats())
        return list(zip(events.tolist(), users.tolist()))

    def conflicts_between(self, a: int, b: int) -> bool:
        return b in self._conflicts[a]

    def conflicts_with_any(self, event: int, others: Iterable[int]) -> bool:
        adjacency = self._conflicts[event]
        return any(other in adjacency for other in others)

    def _user_attrs_view(self) -> np.ndarray:
        """Packed ``(|U|, d)`` user-attribute matrix (rows append-only)."""
        return self._user_attrs_buf[: self.n_users]

    def _event_attrs_view(self) -> np.ndarray:
        """Packed ``(|V|, d)`` event-attribute matrix (rows append-only)."""
        return self._event_attrs_buf[: self.n_events]

    def _append_user(self, capacity: int, attributes: list[float]) -> None:
        self._user_capacity.append(capacity)
        n = self.n_users
        if n > len(self._user_attrs_buf):
            self._user_attrs_buf = grown_to(self._user_attrs_buf, (n, self.config.dimension))
        self._user_attrs_buf[n - 1] = attributes
        self._user_remaining.append(capacity)
        self._events_of_user.append({})

    def _append_event(self, capacity: int, attributes: list[float], conflicts: set[int]) -> None:
        event = self.n_events
        self._event_capacity.append(capacity)
        self._event_flags.append(0)
        if event >= len(self._event_attrs_buf):
            self._event_attrs_buf = grown_to(
                self._event_attrs_buf, (event + 1, self.config.dimension)
            )
        self._event_attrs_buf[event] = attributes
        self._event_remaining.append(capacity)
        self._conflicts.append(conflicts)
        for other in sorted(conflicts):
            self._conflicts[other].add(event)
            self._conflict_pairs.extend((other, event))

    def similarities(self) -> np.ndarray:
        """The read-only ``(|V|, |U|)`` similarity matrix of every entity.

        The matrix lives in one buffer that is grown by doubling. Every
        served metric is per pair, so the filled block stays valid and a
        call computes only the rows of events and the columns of users
        that arrived since the last call.
        """
        n_events, n_users = self.n_events, self.n_users
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
        """Eq. (1) similarity of one live pair, read off :meth:`similarities`."""
        return float(self.similarities()[event, user])

    def sim_row(self, event: int) -> np.ndarray:
        """Similarities of one event against every registered user.

        A read-only row of :meth:`similarities`, so no number of open
        events makes rows recompute.
        """
        return self.similarities()[event]

    def max_sum(self) -> float:
        """``MaxSum`` of the standing arrangement (Definition 5), summed
        as :meth:`repro.core.model.Arrangement.max_sum` sums it."""
        if not self._seat_events:
            return 0.0
        events, users = seat_order(*self.seats())
        return float(sum(self.similarities()[events, users].tolist()))

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
        return self._fits(event, user) and self.sim(event, user) > 0

    def _fits(self, event: int, user: int) -> bool:
        """The guard of :meth:`can_assign` and of a ``commit_batch``
        assign, minus the similarity: ``event`` is open, both sides have
        capacity left, and the user holds neither ``event`` nor a
        conflicting event. Both ids must be known."""
        held = self._events_of_user[user]
        return (
            self.is_open(event)
            and self._event_remaining[event] > 0
            and self._user_remaining[user] > 0
            and event not in held
            and not self.conflicts_with_any(event, held)
        )

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
            if self.is_cancelled(event):
                raise ServiceError(f"event {event} is cancelled; cannot freeze")
        elif cmd == CMD_CANCEL_EVENT:
            event = self._validate_event_ref(args)
            if self.is_frozen(event):
                raise ServiceError(f"event {event} is frozen; cannot cancel")
            if self.is_cancelled(event):
                raise ServiceError(f"event {event} is already cancelled")
        elif cmd == CMD_COMMIT_BATCH:
            # Engine-internal; validated structurally during apply.
            pass
        elif cmd == CMD_RETIRE_EVENT:
            event = self._validate_event_ref(args)
            if self.is_cancelled(event):
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
            self._event_flags[event] |= FROZEN
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
        self._append_event(
            int(record["capacity"]),
            [float(x) for x in record["attributes"]],
            conflicts,
        )

    def _apply_register_user(self, record: dict) -> None:
        self._append_user(
            int(record["capacity"]), [float(x) for x in record["attributes"]]
        )

    def _apply_cancel(self, record: dict) -> None:
        event = self._checked_event(record)
        if not self.is_open(event):
            raise JournalError(f"cancel of non-open event {event}")
        # Deterministically derived from state -- the record does not
        # (and must not) carry the seat list.
        self._release_seats(event)
        self._event_flags[event] = CANCELLED

    def _apply_commit_batch(self, record: dict) -> None:
        delta = Delta.from_json(record)
        self._apply_delta(delta)
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
        if self.is_cancelled(event):
            raise JournalError(f"retire of already-retired event {event}")
        self._release_seats(event)
        self._event_flags[event] = CANCELLED
        self.changes.retired = True

    def _release_seats(self, event: int) -> None:
        """Unassign every seat of ``event`` and log the change."""
        holders = sorted(self.users_of(event))
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
        self._user_capacity[user] = 0
        self._user_remaining[user] = 0

    def _apply_delta(self, delta: Delta) -> None:
        """Apply a ``commit_batch`` delta (unassigns first), O(1) per pair.

        Every edit must target an *open* event; assigns must pass
        :meth:`_fits`, the :meth:`can_assign` guard minus the sim check
        (the engine guarantees sim > 0 by construction; replay trusts
        the journal and the invariant checker re-certifies afterwards). A pair that
        does not fit raises :class:`JournalError` after the pairs before
        it are rolled back, so the store never holds a half-applied batch.
        """
        applied_un: list[tuple[int, int]] = []
        applied_as: list[tuple[int, int]] = []
        try:
            for event, user in delta.unassigns:
                if not (0 <= event < self.n_events and 0 <= user < self.n_users):
                    raise JournalError(f"delta references unknown pair ({event}, {user})")
                if not self.is_open(event):
                    raise JournalError(f"delta edits non-open event {event}")
                if event not in self._events_of_user[user]:
                    raise JournalError(f"delta unassigns unmatched pair ({event}, {user})")
                self._unassign(event, user)
                applied_un.append((event, user))
            for event, user in delta.assigns:
                if not (0 <= event < self.n_events and 0 <= user < self.n_users):
                    raise JournalError(f"delta references unknown pair ({event}, {user})")
                if not self._fits(event, user):
                    raise JournalError(f"delta assign ({event}, {user}) is infeasible")
                self._assign(event, user)
                applied_as.append((event, user))
        except Exception:
            for event, user in reversed(applied_as):
                self._unassign(event, user)
            for event, user in reversed(applied_un):
                self._assign(event, user)
            raise

    def _assign(self, event: int, user: int) -> None:
        self._events_of_user[user][event] = len(self._seat_events)
        self._seat_events.append(event)
        self._seat_users.append(user)
        self._event_remaining[event] -= 1
        self._user_remaining[user] -= 1

    def _unassign(self, event: int, user: int) -> None:
        at = self._events_of_user[user].pop(event)
        moved_event, moved_user = self._seat_events.pop(), self._seat_users.pop()
        if at < len(self._seat_events):  # the last seat fills the gap
            self._seat_events[at], self._seat_users[at] = moved_event, moved_user
            self._events_of_user[moved_user][moved_event] = at
        self._event_remaining[event] += 1
        self._user_remaining[user] += 1

    # ------------------------------------------------------------------
    # Snapshots, equality, invariants
    # ------------------------------------------------------------------

    def _cancelled(self) -> np.ndarray:
        """Per-event boolean mask of the CANCELLED flag."""
        return np.frombuffer(bytes(self._event_flags), dtype=np.uint8) & CANCELLED != 0

    def snapshot_instance(self) -> Instance:
        """Freeze the live state into a batch :class:`Instance`.

        Cancelled events keep their slot (ids are stable) with capacity
        0, so the snapshot's shape always matches the live id space.
        """
        capacities = np.array(self._event_capacity, dtype=np.int64)
        capacities[self._cancelled()] = 0
        return Instance(
            capacities,
            np.array(self._user_capacity, dtype=np.int64),
            self.conflict_graph(range(self.n_events)),
            sims=self.similarities(),
            validate=False,
        )

    def snapshot_arrangement(self, instance: Instance | None = None) -> Arrangement:
        """The standing assignment as a batch :class:`Arrangement`."""
        arrangement = Arrangement(instance or self.snapshot_instance())
        arrangement.extend(*self.seats())
        return arrangement

    def check_invariants(self) -> None:
        """Certify the live state with the library's own validator.

        Runs :func:`repro.core.validation.validate_arrangement` over a
        snapshot (capacities, conflicts, sim > 0 -- Definition 5 in
        full), then cross-checks the O(1) remaining-capacity counters
        and the per-user event index against the seat arrays.

        Raises:
            repro.exceptions.InfeasibleArrangementError: On a GEACC
                constraint violation.
            ServiceError: On internal accounting drift.
        """
        instance = self.snapshot_instance()
        validate_arrangement(self.snapshot_arrangement(instance), instance)
        events, users = self.seats()
        seated = np.bincount(events, minlength=self.n_events)
        held = np.bincount(users, minlength=self.n_users)
        cancelled = self._cancelled()
        remaining = np.array(self._event_remaining, dtype=np.int64)
        expected = np.array(self._event_capacity, dtype=np.int64) - seated
        bad = np.flatnonzero((cancelled & (seated > 0)) | (remaining != expected))
        if len(bad):
            event = int(bad[0])
            if cancelled[event] and seated[event]:
                raise ServiceError(f"cancelled event {event} still holds seats")
            raise ServiceError(
                f"event {event} remaining-capacity drift: "
                f"{remaining[event]} != {expected[event]}"
            )
        remaining = np.array(self._user_remaining, dtype=np.int64)
        expected = np.array(self._user_capacity, dtype=np.int64) - held
        bad = np.flatnonzero(remaining != expected)
        if len(bad):
            user = int(bad[0])
            raise ServiceError(
                f"user {user} remaining-capacity drift: "
                f"{remaining[user]} != {expected[user]}"
            )
        if held.tolist() != [len(events) for events in self._events_of_user]:
            raise ServiceError("assignment-count drift")

    def canonical_state(self) -> dict:
        """The full state as one canonical JSON-ready dict.

        Two stores are *the same state* iff their canonical dicts are
        equal. :meth:`digest` hashes the same content in its typed-buffer
        form (:meth:`state_buffers`), so equal digests mean equal
        canonical dicts; the dict is the readable form (and the payload
        of read-only ``geacc-snapshot-v1`` files).
        """
        return {
            "config": self.config.to_json(),
            "seq": self.seq,
            "requests_seen": self.requests_seen,
            "batches_committed": self.batches_committed,
            "events": [self.event_record(event) for event in range(self.n_events)],
            "users": [
                {"capacity": capacity, "attributes": attributes}
                for capacity, attributes in zip(
                    self._user_capacity.tolist(), self._user_attrs_view().tolist()
                )
            ],
            "assignments": [[e, u] for e, u in self.pairs()],
            "event_remaining": self._event_remaining.tolist(),
            "user_remaining": self._user_remaining.tolist(),
        }

    def state_buffers(self) -> list[np.ndarray]:
        """The state as typed buffers, in :data:`STATE_BUFFERS` order.

        Capacities, attributes (``(n, d)``) and lifecycle flags by id;
        every conflict edge once as an ``(a, b)`` row with ``a < b``, rows
        ascending; the seats as ``(event, user)`` rows in
        :func:`~repro.core.model.seat_order`; then the remaining
        capacities. Together with :meth:`state_header` that is exactly
        what :meth:`canonical_state` holds. Arrays may be views of live
        buffers: use them before the next mutation.
        """
        pairs = np.array(self._conflict_pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        arrays = (
            np.array(self._event_capacity, dtype=np.int64),
            self._event_attrs_view(),
            np.frombuffer(bytes(self._event_flags), dtype=np.uint8),
            pairs,
            np.array(self._user_capacity, dtype=np.int64),
            self._user_attrs_view(),
            np.stack(seat_order(*self.seats()), axis=1),
            np.array(self._event_remaining, dtype=np.int64),
            np.array(self._user_remaining, dtype=np.int64),
        )
        return [
            np.ascontiguousarray(buf, dtype=dtype)
            for buf, (_, dtype) in zip(arrays, STATE_BUFFERS)
        ]

    def state_header(self, buffers: list[np.ndarray]) -> dict:
        """Config, counters and each buffer's ``[name, dtype, shape]``:
        what :func:`buffers_digest` hashes ahead of ``buffers``."""
        return {
            "config": self.config.to_json(),
            "seq": self.seq,
            "requests_seen": self.requests_seen,
            "batches_committed": self.batches_committed,
            "buffers": [
                [name, dtype, list(buf.shape)]
                for (name, dtype), buf in zip(STATE_BUFFERS, buffers)
            ],
        }

    def digest(self) -> str:
        """SHA-256 over :meth:`state_header` and :meth:`state_buffers`.

        One hash pass over arrays the store already keeps, stable across
        processes; equal digests iff equal :meth:`canonical_state`.
        """
        buffers = self.state_buffers()
        return buffers_digest(self.state_header(buffers), buffers)

    @classmethod
    def from_buffers(
        cls, config: StoreConfig, counters: dict, buffers: list[np.ndarray]
    ) -> "ArrangementStore":
        """Rebuild a store from :meth:`state_buffers`-shaped arrays.

        The inverse of :meth:`state_buffers`, with ``counters`` holding
        ``seq``, ``requests_seen`` and ``batches_committed``. Structural
        checks run first: shapes agree with each other and with the
        config, ids are in range, conflict edges and seats are strictly
        ascending (so none appears twice), flags hold only FROZEN and
        CANCELLED bits, capacities are non-negative, and each remaining
        capacity is its capacity minus its seats.

        Raises:
            ServiceError: On the first failed check -- the buffers
                describe no state this class can produce.
        """
        (
            event_capacity, event_attributes, flags, conflicts,
            user_capacity, user_attributes, seats, event_remaining, user_remaining,
        ) = buffers
        n_events, n_users = _length(event_capacity), _length(user_capacity)
        expected_shapes = (
            (n_events,), (n_events, config.dimension), (n_events,), (_length(conflicts), 2),
            (n_users,), (n_users, config.dimension), (_length(seats), 2),
            (n_events,), (n_users,),
        )
        for (name, _), buf, shape in zip(STATE_BUFFERS, buffers, expected_shapes):
            if buf.shape != shape:
                raise ServiceError(f"state buffer {name} has shape {buf.shape}, expected {shape}")
        for name in ("seq", "requests_seen", "batches_committed"):
            if not is_int(counters.get(name)) or counters[name] < 0:
                raise ServiceError(f"counter {name} is {counters.get(name)!r}, not a count")
        if (event_capacity < 0).any() or (user_capacity < 0).any():
            raise ServiceError("negative capacity")
        if (flags > FROZEN | CANCELLED).any():
            raise ServiceError(f"event flags {sorted(set(flags.tolist()))} outside 0..3")
        low, high = conflicts[:, 0], conflicts[:, 1]
        if ((low < 0) | (low >= high) | (high >= n_events)).any():
            raise ServiceError("conflict edge out of range or not (a < b)")
        if (np.diff(low * n_events + high) <= 0).any():
            raise ServiceError("conflict edges repeat or are out of order")
        seat_events, seat_users = seats[:, 0], seats[:, 1]
        if (
            (seat_events < 0) | (seat_events >= n_events)
            | (seat_users < 0) | (seat_users >= n_users)
        ).any():
            raise ServiceError("seat references an unknown event or user")
        if (np.diff(seat_events * n_users + seat_users) <= 0).any():
            raise ServiceError("duplicate seat, or seats out of order")
        if not (
            np.array_equal(
                event_remaining,
                event_capacity - np.bincount(seat_events, minlength=n_events),
            )
            and np.array_equal(
                user_remaining,
                user_capacity - np.bincount(seat_users, minlength=n_users),
            )
        ):
            raise ServiceError("remaining-capacity fields disagree with the seats")

        store = cls(config)
        store.seq = counters["seq"]
        store.requests_seen = counters["requests_seen"]
        store.batches_committed = counters["batches_committed"]
        store._event_capacity = _int_array(event_capacity)
        store._event_flags = bytearray(flags.tobytes())
        store._conflicts = [set() for _ in range(n_events)]
        for a, b in zip(low.tolist(), high.tolist()):
            store._conflicts[a].add(b)
            store._conflicts[b].add(a)
        store._conflict_pairs = _int_array(conflicts)
        store._user_capacity = _int_array(user_capacity)
        store._event_attrs_buf = np.array(event_attributes, dtype=np.float64)
        store._user_attrs_buf = np.array(user_attributes, dtype=np.float64)
        store._seat_events = _int_array(seat_events)
        store._seat_users = _int_array(seat_users)
        store._events_of_user = [{} for _ in range(n_users)]
        for at, event, user in zip(
            range(len(seats)), seat_events.tolist(), seat_users.tolist()
        ):
            store._events_of_user[user][event] = at
        store._event_remaining = _int_array(event_remaining)
        store._user_remaining = _int_array(user_remaining)
        return store

    @classmethod
    def from_canonical(cls, state: dict) -> "ArrangementStore":
        """Rebuild a store from a :meth:`canonical_state` dict.

        Reads a ``geacc-snapshot-v1`` payload: the dict is converted to
        :meth:`state_buffers` form and goes through
        :meth:`from_buffers` and its checks.

        Raises:
            ServiceError: On a structurally malformed or internally
                inconsistent canonical payload.
        """
        try:
            config = StoreConfig.from_json(state["config"])
            events, users = state["events"], state["users"]
            buffers = [
                np.array([int(e["capacity"]) for e in events], dtype=np.int64),
                _attributes(events, config.dimension),
                np.array(
                    [
                        FROZEN * bool(e["frozen"]) | CANCELLED * bool(e["cancelled"])
                        for e in events
                    ],
                    dtype=np.uint8,
                ),
                np.array(
                    [
                        (a, b)
                        for a, e in enumerate(events)
                        for b in sorted(int(v) for v in e["conflicts"])
                        if a < b
                    ],
                    dtype=np.int64,
                ).reshape(-1, 2),
                np.array([int(u["capacity"]) for u in users], dtype=np.int64),
                _attributes(users, config.dimension),
                np.array(
                    [(int(e), int(u)) for e, u in state["assignments"]], dtype=np.int64
                ).reshape(-1, 2),
                np.array([int(v) for v in state["event_remaining"]], dtype=np.int64),
                np.array([int(v) for v in state["user_remaining"]], dtype=np.int64),
            ]
            counters = {
                name: int(state[name])
                for name in ("seq", "requests_seen", "batches_committed")
            }
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed canonical state: {exc}") from exc
        return cls.from_buffers(config, counters, buffers)

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
            f"|U|={self.n_users}, |M|={self.n_assignments}, "
            f"open={len(self.open_events())})"
        )
