"""GEACC problem model: events, users, instances and arrangements.

An :class:`Instance` bundles everything Definition 5 of the paper needs:
events with capacities, users with capacities, the conflict set CF, and a
similarity oracle. Two construction paths are supported:

* :meth:`Instance.from_attributes` -- entities carry d-dimensional
  attribute vectors in ``[0, T]^d`` and similarity is computed by the
  paper's Eq. (1) (or another named metric). This is the path all
  experiments use. The full ``(|V|, |U|)`` similarity matrix is
  materialised lazily so scalability-scale instances (|U| in the tens of
  thousands) can be solved through index-backed neighbour streams without
  ever allocating it.
* :meth:`Instance.from_matrix` -- an explicit ``(|V|, |U|)`` similarity
  matrix, used by the paper's Table I toy example and by the Theorem 1
  reduction, where interestingness values are prescribed directly.

An :class:`Arrangement` is a mutable many-to-many matching ``M`` with both
directions indexed, tracking remaining capacities so the feasibility
checks of Algorithms 1, 2 and 4 are O(1) amortised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.conflicts import ConflictGraph
from repro.core.similarity import (
    TILEABLE_METRICS,
    similarity_matrix,
    similarity_tiles,
)
from repro.exceptions import InvalidInstanceError

DEFAULT_T = 10_000.0


@dataclass(frozen=True)
class Event:
    """An event (Definition 1): attributes and a participant capacity."""

    index: int
    capacity: int
    attributes: tuple[float, ...] | None = None
    name: str | None = None


@dataclass(frozen=True)
class User:
    """A user (Definition 2): attributes and an assigned-event capacity."""

    index: int
    capacity: int
    attributes: tuple[float, ...] | None = None
    name: str | None = None


class Instance:
    """One GEACC problem instance (Definition 5).

    Prefer the :meth:`from_attributes` / :meth:`from_matrix` constructors.
    Either ``sims`` or both attribute arrays must be provided.
    """

    def __init__(
        self,
        event_capacities: np.ndarray,
        user_capacities: np.ndarray,
        conflicts: ConflictGraph | None = None,
        sims: np.ndarray | None = None,
        event_attributes: np.ndarray | None = None,
        user_attributes: np.ndarray | None = None,
        t: float = DEFAULT_T,
        metric: str = "euclidean",
        event_names: list[str] | None = None,
        user_names: list[str] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        """``validate=False`` skips the O(|V|*|U|) value scans.

        Shape and capacity checks (cheap, and load-bearing for every
        solver) always run; only the finiteness/range scans over the
        similarity matrix and attribute arrays are elided. Reserved for
        arrays that already passed validation in this process -- e.g.
        the online engine's ``_solve_scope``, which slices each
        re-solve's sub-instance out of its validated remainder.
        """
        if sims is not None:
            sims = np.asarray(sims, dtype=np.float64)
            if sims.ndim != 2:
                raise InvalidInstanceError(f"sims must be 2-D, got shape {sims.shape}")
            if validate:
                if not np.all(np.isfinite(sims)):
                    raise InvalidInstanceError(
                        "similarities must be finite (no NaN/inf)"
                    )
                if np.any(sims < 0) or np.any(sims > 1):
                    raise InvalidInstanceError("similarities must lie in [0, 1]")
            n_events, n_users = sims.shape
        elif event_attributes is not None and user_attributes is not None:
            event_attributes = np.asarray(event_attributes, dtype=np.float64)
            user_attributes = np.asarray(user_attributes, dtype=np.float64)
            if event_attributes.ndim != 2 or user_attributes.ndim != 2:
                raise InvalidInstanceError("attribute arrays must be 2-D")
            if validate and (
                not np.all(np.isfinite(event_attributes))
                or not np.all(np.isfinite(user_attributes))
            ):
                raise InvalidInstanceError("attributes must be finite (no NaN/inf)")
            if event_attributes.shape[1] != user_attributes.shape[1]:
                raise InvalidInstanceError(
                    "event and user attributes must share dimensionality; got "
                    f"{event_attributes.shape[1]} vs {user_attributes.shape[1]}"
                )
            n_events = event_attributes.shape[0]
            n_users = user_attributes.shape[0]
        else:
            raise InvalidInstanceError(
                "provide either a similarity matrix or both attribute arrays"
            )
        self._sims = sims
        self.event_attributes = event_attributes
        self.user_attributes = user_attributes
        self.t = t
        self.metric = metric
        self._event_capacities = self._check_capacities(
            event_capacities, n_events, "event"
        )
        self._user_capacities = self._check_capacities(user_capacities, n_users, "user")
        if conflicts is None:
            conflicts = ConflictGraph.empty(n_events)
        if conflicts.n_events != n_events:
            raise InvalidInstanceError(
                f"conflict graph covers {conflicts.n_events} events, "
                f"instance has {n_events}"
            )
        self.conflicts = conflicts
        self._n_events = n_events
        self._n_users = n_users
        self._event_names = event_names
        self._user_names = user_names

    @staticmethod
    def _check_capacities(capacities, expected: int, kind: str) -> np.ndarray:
        raw = np.asarray(capacities)
        if raw.dtype.kind == "f":
            if not np.all(np.isfinite(raw)):
                raise InvalidInstanceError(
                    f"{kind} capacities must be finite (no NaN/inf)"
                )
            # Exact comparison on purpose: 3.0 is an integer count spelled
            # as a float and is accepted; 2.5 is a modelling error and must
            # not be silently truncated to 2.
            if np.any(raw != np.floor(raw)):  # geacc-lint: disable=R2 reason=integrality check; floor is exact for every float, tolerance would accept 2.5
                raise InvalidInstanceError(
                    f"{kind} capacities must be integral, got {raw!r}"
                )
        elif raw.dtype.kind not in "iub":
            raise InvalidInstanceError(
                f"{kind} capacities must be numeric, got dtype {raw.dtype}"
            )
        capacities = raw.astype(np.int64)
        if capacities.shape != (expected,):
            raise InvalidInstanceError(
                f"{kind} capacities must have shape ({expected},), "
                f"got {capacities.shape}"
            )
        if np.any(capacities < 0):
            raise InvalidInstanceError(f"{kind} capacities must be non-negative")
        return capacities

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_attributes(
        cls,
        event_attributes: np.ndarray,
        user_attributes: np.ndarray,
        event_capacities: np.ndarray,
        user_capacities: np.ndarray,
        conflicts: ConflictGraph | None = None,
        t: float = DEFAULT_T,
        metric: str = "euclidean",
    ) -> "Instance":
        """Build an instance from attribute vectors (the paper's setting).

        Args:
            event_attributes: ``(|V|, d)`` array in ``[0, T]^d``.
            user_attributes: ``(|U|, d)`` array in ``[0, T]^d``.
            t: The attribute bound ``T`` of Definitions 1-2.
            metric: Similarity metric name (``euclidean`` = Eq. 1).
        """
        return cls(
            event_capacities,
            user_capacities,
            conflicts,
            event_attributes=event_attributes,
            user_attributes=user_attributes,
            t=t,
            metric=metric,
        )

    @classmethod
    def from_matrix(
        cls,
        sims: np.ndarray,
        event_capacities: np.ndarray,
        user_capacities: np.ndarray,
        conflicts: ConflictGraph | None = None,
    ) -> "Instance":
        """Build an instance from an explicit interestingness matrix."""
        return cls(event_capacities, user_capacities, conflicts, sims=sims)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def has_matrix(self) -> bool:
        """True once the similarity matrix has been materialised."""
        return self._sims is not None

    @property
    def sims(self) -> np.ndarray:
        """The full ``(|V|, |U|)`` similarity matrix (materialised lazily).

        On attribute-backed instances this allocates ``|V| * |U|`` floats;
        scalability-scale callers should prefer :meth:`sim` /
        :meth:`sim_row` / :meth:`sim_col`, which stay O(|V| + |U|).
        """
        if self._sims is None:
            self._sims = similarity_matrix(
                self.event_attributes, self.user_attributes, self.t, self.metric
            )
        return self._sims

    def sim(self, event: int, user: int) -> float:
        """Interestingness value of one (event, user) pair."""
        if self._sims is not None:
            return float(self._sims[event, user])
        row = similarity_matrix(
            self.event_attributes[event : event + 1],
            self.user_attributes[user : user + 1],
            self.t,
            self.metric,
        )
        return float(row[0, 0])

    def sims_of(self, events: np.ndarray, users: np.ndarray) -> np.ndarray:
        """Similarities of the pairs ``(events[i], users[i])``, each as :meth:`sim`.

        Without a matrix, a tileable metric computes one
        :func:`~repro.core.similarity.similarity_tiles` row per distinct
        event over that event's users (bit-equal to :meth:`sim`, since
        each entry depends on its pair alone); ``dot`` goes pair by pair.
        """
        if self._sims is not None:
            return self._sims[events, users]
        if self.metric not in TILEABLE_METRICS:
            return np.array(
                [self.sim(e, u) for e, u in zip(events.tolist(), users.tolist())]
            )
        events, users = np.asarray(events), np.asarray(users)
        out = np.empty(len(events))
        for event in np.unique(events).tolist():
            at = np.flatnonzero(events == event)
            out[at] = similarity_tiles(
                self.event_attributes, self.user_attributes, self.t,
                slice(event, event + 1), users[at], self.metric,
            )[0]
        return out

    def sim_row(self, event: int) -> np.ndarray:
        """Similarities of one event against all users, shape ``(|U|,)``."""
        if self._sims is not None:
            return self._sims[event]
        return similarity_matrix(
            self.event_attributes[event : event + 1],
            self.user_attributes,
            self.t,
            self.metric,
        )[0]

    def sim_col(self, user: int) -> np.ndarray:
        """Similarities of one user against all events, shape ``(|V|,)``."""
        if self._sims is not None:
            return self._sims[:, user]
        return similarity_matrix(
            self.event_attributes,
            self.user_attributes[user : user + 1],
            self.t,
            self.metric,
        )[:, 0]

    @property
    def event_capacities(self) -> np.ndarray:
        return self._event_capacities

    @property
    def user_capacities(self) -> np.ndarray:
        return self._user_capacities

    def event(self, index: int) -> Event:
        """Materialise one event as a dataclass (public API convenience)."""
        attrs = (
            tuple(self.event_attributes[index])
            if self.event_attributes is not None
            else None
        )
        name = self._event_names[index] if self._event_names else None
        return Event(index, int(self._event_capacities[index]), attrs, name)

    def user(self, index: int) -> User:
        """Materialise one user as a dataclass."""
        attrs = (
            tuple(self.user_attributes[index])
            if self.user_attributes is not None
            else None
        )
        name = self._user_names[index] if self._user_names else None
        return User(index, int(self._user_capacities[index]), attrs, name)

    def events(self) -> list[Event]:
        return [self.event(i) for i in range(self.n_events)]

    def users(self) -> list[User]:
        return [self.user(i) for i in range(self.n_users)]

    @property
    def max_user_capacity(self) -> int:
        """``max c_u`` -- the alpha of both approximation ratios."""
        if self._n_users == 0:
            return 0
        return int(self._user_capacities.max())

    @property
    def max_event_capacity(self) -> int:
        if self._n_events == 0:
            return 0
        return int(self._event_capacities.max())

    def delta_max(self) -> int:
        """``Delta_max = min(sum c_v, sum c_u)`` of Algorithm 1's sweep."""
        return int(min(self._event_capacities.sum(), self._user_capacities.sum()))

    def __repr__(self) -> str:
        return (
            f"Instance(|V|={self.n_events}, |U|={self.n_users}, "
            f"|CF|={len(self.conflicts)}, "
            f"max c_v={self.max_event_capacity}, max c_u={self.max_user_capacity})"
        )


def seat_order(events: np.ndarray, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seats sorted ascending by ``(event, user)``: the order every
    MaxSum and pair list is taken in."""
    width = int(users.max(initial=0)) + 1
    return np.divmod(np.sort(events * width + users), width)


class Arrangement:
    """A mutable event-participant matching ``M``.

    The seats are two parallel arrays, ``(event, user)``, in the order
    they were added (:meth:`remove` closes its gap), which :meth:`seats`
    hands to array code; a bulk :meth:`extend` appends a whole block.
    The solvers that build ``M`` pair by pair read and write the per-side
    remaining capacities (lists) once per pair, and need a user's events
    in O(1): the first such query derives a per-user event-set index
    from the seats, which :meth:`add` and :meth:`remove` keep current. An
    arrangement built only by :meth:`extend` never builds it.

    Mutators enforce nothing by themselves -- feasibility checking lives
    in :mod:`repro.core.validation` and in the algorithms' own guard
    conditions -- but :meth:`can_add` implements the exact guard the
    paper's pseudo-code repeats (capacity left on both sides, no conflict
    with the user's matched events).
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._events = np.zeros(16, dtype=np.intp)
        self._users = np.zeros(16, dtype=np.intp)
        self._size = 0
        self._event_remaining: list[int] = instance.event_capacities.tolist()
        self._user_remaining: list[int] = instance.user_capacities.tolist()
        self._held: list[set[int]] | None = None

    def _index(self) -> list[set[int]]:
        """Each user's held events, derived from the seats on first use."""
        if self._held is None:
            self._held = [set() for _ in range(self.instance.n_users)]
            for event, user in zip(*(side.tolist() for side in self.seats())):
                self._held[user].add(event)
        return self._held

    def _reserve(self, size: int) -> None:
        if size > len(self._events):
            grown = max(2 * len(self._events), size)
            self._events = np.resize(self._events, grown)
            self._users = np.resize(self._users, grown)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        event, user = pair
        return event in self._index()[user]

    def seats(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(events, users)`` seat arrays, in insertion order.

        Read-only views, valid until the next mutation.
        """
        events, users = self._events[: self._size], self._users[: self._size]
        events.flags.writeable = users.flags.writeable = False
        return events, users

    def events_of(self, user: int) -> frozenset[int]:
        """Events currently assigned to ``user``."""
        return frozenset(self._index()[user])

    def users_of(self, event: int) -> frozenset[int]:
        """Users currently assigned to ``event``."""
        events, users = self.seats()
        return frozenset(users[events == event].tolist())

    def event_remaining(self, event: int) -> int:
        """Remaining capacity of ``event``."""
        return self._event_remaining[event]

    def user_remaining(self, user: int) -> int:
        """Remaining capacity of ``user``."""
        return self._user_remaining[user]

    def pairs(self) -> list[tuple[int, int]]:
        """All matched ``(event, user)`` pairs, sorted for determinism."""
        events, users = seat_order(*self.seats())
        return list(zip(events.tolist(), users.tolist()))

    def can_add(self, event: int, user: int) -> bool:
        """The paper's feasibility guard for adding ``{v, u}``.

        True iff both sides have capacity left, the pair is unmatched, and
        ``event`` does not conflict with any event already matched to
        ``user``. (The ``sim > 0`` requirement is checked by callers since
        baselines and tests sometimes probe zero-sim pairs explicitly.)
        """
        if self._event_remaining[event] <= 0 or self._user_remaining[user] <= 0:
            return False
        held = self._index()[user]
        if event in held:
            return False
        return not self.instance.conflicts.conflicts_with_any(event, held)

    def add(self, event: int, user: int) -> None:
        """Match ``{event, user}``; assumes the caller checked feasibility."""
        size = self._size
        if size == len(self._events):
            self._reserve(size + 1)
        self._events[size] = event
        self._users[size] = user
        self._size = size + 1
        self._event_remaining[event] -= 1
        self._user_remaining[user] -= 1
        if self._held is not None:
            self._held[user].add(event)

    def extend(self, events: np.ndarray, users: np.ndarray) -> None:
        """Match every ``{events[i], users[i]}``, in order (a bulk :meth:`add`)."""
        events = np.asarray(events, dtype=np.intp)
        users = np.asarray(users, dtype=np.intp)
        start, stop = self._size, self._size + len(events)
        self._reserve(stop)
        self._events[start:stop] = events
        self._users[start:stop] = users
        self._size = stop
        self._held = None  # re-derived from the seats when next needed
        instance, (events, users) = self.instance, self.seats()
        self._event_remaining = (
            instance.event_capacities - np.bincount(events, minlength=instance.n_events)
        ).tolist()
        self._user_remaining = (
            instance.user_capacities - np.bincount(users, minlength=instance.n_users)
        ).tolist()

    def remove(self, event: int, user: int) -> None:
        """Unmatch ``{event, user}``.

        Raises:
            KeyError: If the pair is not currently matched.
        """
        self._index()[user].remove(event)
        last = self._size - 1
        if self._events.item(last) != event or self._users.item(last) != user:
            # Not the newest seat: close the gap, keeping the order.
            events, users = self._events, self._users
            at = int(np.flatnonzero((events[:last] == event) & (users[:last] == user))[0])
            events[at:last] = events[at + 1 : last + 1]
            users[at:last] = users[at + 1 : last + 1]
        self._size = last
        self._event_remaining[event] += 1
        self._user_remaining[user] += 1

    def max_sum(self) -> float:
        """The objective ``MaxSum(M)`` (Definition 5), summed left to
        right in :func:`seat_order`, as the service store sums it."""
        return float(sum(self.instance.sims_of(*seat_order(*self.seats())).tolist()))

    def copy(self) -> "Arrangement":
        """Deep copy sharing the (immutable) instance."""
        clone = Arrangement(self.instance)
        clone.extend(*self.seats())
        return clone

    def __repr__(self) -> str:
        return f"Arrangement(|M|={self._size}, MaxSum={self.max_sum():.4f})"
