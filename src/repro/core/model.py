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
from repro.core.similarity import similarity_matrix
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


class Arrangement:
    """A mutable event-participant matching ``M``.

    Tracks both directions plus remaining capacities. Mutators enforce
    nothing by themselves -- feasibility checking lives in
    :mod:`repro.core.validation` and in the algorithms' own guard
    conditions -- but :meth:`can_add` implements the exact guard the
    paper's pseudo-code repeats (capacity left on both sides, no conflict
    with the user's matched events).
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._events_of_user: list[set[int]] = [set() for _ in range(instance.n_users)]
        self._users_of_event: list[set[int]] = [
            set() for _ in range(instance.n_events)
        ]
        self._event_remaining = instance.event_capacities.copy()
        self._user_remaining = instance.user_capacities.copy()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        event, user = pair
        return user in self._users_of_event[event]

    def events_of(self, user: int) -> frozenset[int]:
        """Events currently assigned to ``user``."""
        return frozenset(self._events_of_user[user])

    def users_of(self, event: int) -> frozenset[int]:
        """Users currently assigned to ``event``."""
        return frozenset(self._users_of_event[event])

    def event_remaining(self, event: int) -> int:
        """Remaining capacity of ``event``."""
        return int(self._event_remaining[event])

    def user_remaining(self, user: int) -> int:
        """Remaining capacity of ``user``."""
        return int(self._user_remaining[user])

    def pairs(self) -> list[tuple[int, int]]:
        """All matched ``(event, user)`` pairs, sorted for determinism."""
        return sorted(
            (event, user)
            for event, users in enumerate(self._users_of_event)
            for user in users
        )

    def can_add(self, event: int, user: int) -> bool:
        """The paper's feasibility guard for adding ``{v, u}``.

        True iff both sides have capacity left, the pair is unmatched, and
        ``event`` does not conflict with any event already matched to
        ``user``. (The ``sim > 0`` requirement is checked by callers since
        baselines and tests sometimes probe zero-sim pairs explicitly.)
        """
        if self._event_remaining[event] <= 0 or self._user_remaining[user] <= 0:
            return False
        if user in self._users_of_event[event]:
            return False
        return not self.instance.conflicts.conflicts_with_any(
            event, self._events_of_user[user]
        )

    def add(self, event: int, user: int) -> None:
        """Match ``{event, user}``; assumes the caller checked feasibility."""
        self._users_of_event[event].add(user)
        self._events_of_user[user].add(event)
        self._event_remaining[event] -= 1
        self._user_remaining[user] -= 1
        self._size += 1

    def remove(self, event: int, user: int) -> None:
        """Unmatch ``{event, user}``.

        Raises:
            KeyError: If the pair is not currently matched.
        """
        self._users_of_event[event].remove(user)
        self._events_of_user[user].remove(event)
        self._event_remaining[event] += 1
        self._user_remaining[user] += 1
        self._size -= 1

    def max_sum(self) -> float:
        """The objective ``MaxSum(M)`` (Definition 5)."""
        instance = self.instance
        if instance.has_matrix:
            sims = instance.sims
            return float(
                sum(
                    sims[event, user]
                    for event, users in enumerate(self._users_of_event)
                    for user in users
                )
            )
        return float(
            sum(
                instance.sim(event, user)
                for event, users in enumerate(self._users_of_event)
                for user in users
            )
        )

    def copy(self) -> "Arrangement":
        """Deep copy sharing the (immutable) instance."""
        clone = Arrangement(self.instance)
        for event, users in enumerate(self._users_of_event):
            for user in users:
                clone.add(event, user)
        return clone

    def __repr__(self) -> str:
        return f"Arrangement(|M|={self._size}, MaxSum={self.max_sum():.4f})"
