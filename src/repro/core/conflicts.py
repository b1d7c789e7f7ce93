"""Conflict graphs over events (Definition 3).

Two events conflict when no user can attend both -- overlapping time
slots, or venues too far apart to travel between. A
:class:`ConflictGraph` stores the symmetric pair set ``CF`` plus an
adjacency structure for O(1) "does v conflict with any of these events"
checks, which every algorithm in the paper performs in its inner loop.

Constructors cover the paper's experimental setting (a random fraction of
all event pairs) and the two real-world mechanisms its introduction
motivates (overlapping intervals; travel-time infeasibility).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError


class DisjointSet:
    """Union-find over integer keys with path compression and union by size.

    The substrate for conflict-component tracking: events are keys, a
    conflict edge is a union, and a component is everything sharing a
    root. Roots are canonicalised to the *smallest* member key so that
    component identity is stable under insertion order -- two traversals
    of the same edge set always name a component by the same id.
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}

    def __contains__(self, key: int) -> bool:
        return key in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def add(self, key: int) -> None:
        """Register ``key`` as a singleton component (idempotent)."""
        if key not in self._parent:
            self._parent[key] = key
            self._size[key] = 1

    def find(self, key: int) -> int:
        """The component id (smallest member) of ``key``'s component."""
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns True when the union actually merged two distinct
        components (the signal component-merge detection keys on).
        """
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # Keep the smaller key as the surviving root so component ids
        # are insertion-order independent; size-weighting is secondary.
        if ra > rb:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        return True

    def component_sizes(self) -> dict[int, int]:
        """Map of component id -> member count."""
        return {self.find(root): size for root, size in self._size.items()}

    def members(self) -> dict[int, list[int]]:
        """Map of component id -> sorted member keys."""
        grouped: dict[int, list[int]] = {}
        for key in self._parent:
            grouped.setdefault(self.find(key), []).append(key)
        for component in grouped.values():
            component.sort()
        return grouped


class ConflictGraph:
    """Symmetric conflict relation over ``n_events`` events."""

    def __init__(self, n_events: int, pairs: Iterable[tuple[int, int]] = ()) -> None:
        if n_events < 0:
            raise InvalidInstanceError(f"n_events must be >= 0, got {n_events}")
        self._n_events = n_events
        self._neighbors: list[set[int]] = [set() for _ in range(n_events)]
        self._pairs: set[tuple[int, int]] = set()
        self._keys: np.ndarray | None = None
        for i, j in pairs:
            self.add_pair(i, j)

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The conflict set CF as canonical ``(min, max)`` pairs."""
        return frozenset(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def add_pair(self, i: int, j: int) -> None:
        """Register events ``i`` and ``j`` as conflicting."""
        self._check_event(i)
        self._check_event(j)
        if i == j:
            raise InvalidInstanceError(f"event {i} cannot conflict with itself")
        self._pairs.add((min(i, j), max(i, j)))
        self._neighbors[i].add(j)
        self._neighbors[j].add(i)
        self._keys = None

    def pair_keys(self) -> np.ndarray:
        """CF as sorted ``a * n_events + b`` keys of its ``a < b`` pairs.

        Built on first use and kept until the next :meth:`add_pair`, so
        every array consumer of one graph shares a single pass over CF.
        """
        if self._keys is None:
            keys = np.fromiter(
                (a * self._n_events + b for a, b in self._pairs),
                dtype=np.int64,
                count=len(self._pairs),
            )
            keys.sort()
            self._keys = keys
        return self._keys

    def are_conflicting(self, i: int, j: int) -> bool:
        """True if events ``i`` and ``j`` are a conflicting pair."""
        self._check_event(i)
        self._check_event(j)
        return j in self._neighbors[i]

    def conflicts_with(self, event: int) -> frozenset[int]:
        """All events conflicting with ``event``."""
        self._check_event(event)
        return frozenset(self._neighbors[event])

    def conflicts_with_any(self, event: int, others: Iterable[int]) -> bool:
        """True if ``event`` conflicts with any event in ``others``.

        This is the hot-path check of Algorithms 1, 2 and 4 ("v does not
        conflict with u's matched events").
        """
        neighbors = self._neighbors[event]
        return any(other in neighbors for other in others)

    def independence_upper_bound(self) -> int:
        """An upper bound on the maximum independent set of events.

        Any feasible per-user event set is an independent set in the
        conflict graph, so this bounds how many events one user can ever
        attend. Computed as the size of a greedy clique partition: each
        clique contributes at most one vertex to any independent set.
        Exact on cliques and empty graphs, O(|V| * degree) in general.
        """
        unassigned = set(range(self._n_events))
        cliques = 0
        while unassigned:
            seed = min(unassigned)  # deterministic
            clique = {seed}
            # Grow a maximal clique among unassigned conflict-neighbours.
            candidates = self._neighbors[seed] & unassigned
            for vertex in sorted(candidates):
                if all(vertex in self._neighbors[member] for member in clique):
                    clique.add(vertex)
            unassigned -= clique
            cliques += 1
        return cliques

    def greedy_coloring(self) -> list[int]:
        """Assign each event a slot so conflicting events differ.

        Greedy Welsh-Powell colouring (highest conflict degree first,
        smallest available colour). Useful for turning a conflict graph
        back into a feasible timetable: events sharing a colour are
        mutually non-conflicting and can run in parallel. The number of
        colours used is an upper bound on the chromatic number and the
        assignment is deterministic.
        """
        order = sorted(
            range(self._n_events),
            key=lambda v: (-len(self._neighbors[v]), v),
        )
        colors = [-1] * self._n_events
        for vertex in order:
            taken = {colors[w] for w in self._neighbors[vertex] if colors[w] >= 0}
            color = 0
            while color in taken:
                color += 1
            colors[vertex] = color
        return colors

    def density(self) -> float:
        """|CF| divided by the number of event pairs (the paper's x-axis)."""
        if self._n_events < 2:
            return 0.0
        return len(self._pairs) / (self._n_events * (self._n_events - 1) / 2)

    def _check_event(self, event: int) -> None:
        if not 0 <= event < self._n_events:
            raise InvalidInstanceError(
                f"event {event} out of range [0, {self._n_events})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n_events: int) -> "ConflictGraph":
        """No conflicts (CF = empty set); GEACC becomes polynomial."""
        return cls(n_events)

    @classmethod
    def complete(cls, n_events: int) -> "ConflictGraph":
        """Every pair conflicts; each user attends at most one event."""
        pairs = [
            (i, j) for i in range(n_events) for j in range(i + 1, n_events)
        ]
        return cls(n_events, pairs)

    @classmethod
    def random(
        cls, n_events: int, ratio: float, rng: np.random.Generator
    ) -> "ConflictGraph":
        """Sample ``ratio`` of all event pairs uniformly (Table II/III).

        Args:
            ratio: |CF| / (|V| (|V|-1) / 2), in [0, 1].
            rng: Numpy random generator (callers own the seed).
        """
        if not 0.0 <= ratio <= 1.0:
            raise InvalidInstanceError(f"conflict ratio must be in [0,1], got {ratio}")
        all_pairs = [
            (i, j) for i in range(n_events) for j in range(i + 1, n_events)
        ]
        count = round(ratio * len(all_pairs))
        if count == 0:
            return cls(n_events)
        chosen = rng.choice(len(all_pairs), size=count, replace=False)
        return cls(n_events, (all_pairs[k] for k in chosen))

    @classmethod
    def from_intervals(
        cls, intervals: Sequence[tuple[float, float]]
    ) -> "ConflictGraph":
        """Conflicts from overlapping time intervals.

        Args:
            intervals: One ``(start, end)`` per event, end > start. Two
                events conflict iff their intervals overlap (shared
                endpoints do not count as overlap: back-to-back events are
                attendable).
        """
        n = len(intervals)
        for start, end in intervals:
            if end <= start:
                raise InvalidInstanceError(
                    f"interval ({start}, {end}) must have end > start"
                )
        graph = cls(n)
        order = sorted(range(n), key=lambda k: intervals[k][0])
        for a in range(n):
            i = order[a]
            for b in range(a + 1, n):
                j = order[b]
                if intervals[j][0] >= intervals[i][1]:
                    break  # sorted by start; no later event can overlap i
                graph.add_pair(i, j)
        return graph

    @classmethod
    def from_schedule(
        cls,
        intervals: Sequence[tuple[float, float]],
        locations: Sequence[tuple[float, float]],
        travel_speed: float,
    ) -> "ConflictGraph":
        """Conflicts from overlap *or* infeasible travel time.

        Two non-overlapping events also conflict when the gap between them
        is shorter than the straight-line travel time between their venues
        (the paper's basketball-court example).
        """
        if travel_speed <= 0:
            raise InvalidInstanceError("travel_speed must be positive")
        if len(intervals) != len(locations):
            raise InvalidInstanceError("intervals and locations must align")
        graph = cls.from_intervals(intervals)
        n = len(intervals)
        for i in range(n):
            for j in range(i + 1, n):
                if graph.are_conflicting(i, j):
                    continue
                first, second = (i, j) if intervals[i][0] <= intervals[j][0] else (j, i)
                gap = intervals[second][0] - intervals[first][1]
                dx = locations[i][0] - locations[j][0]
                dy = locations[i][1] - locations[j][1]
                travel_time = (dx * dx + dy * dy) ** 0.5 / travel_speed
                if travel_time > gap:
                    graph.add_pair(i, j)
        return graph
