"""Neighbour streams for Greedy-GEACC's matrix-free runs.

Greedy-GEACC's frontier heap consumes, per event and per user, the
counterpart side in non-increasing similarity order ("find its next
feasible unvisited NN"): a k-NN oracle with per-query cost sigma(S) in
the paper, which names iDistance / VA-file as candidate indexes.
:class:`IndexNeighborOrders` serves it from a :mod:`repro.index`
structure on the raw attribute vectors, mapping ascending distances to
descending similarities via the monotone Eq. (1). It never materialises
the |V| x |U| matrix, which is what makes the Fig. 5 scalability runs
possible. :func:`neighbor_orders_for` decides whether an instance
streams through an index or is scanned as a matrix
(:mod:`repro.core.algorithms.greedy`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from repro.core.model import Instance
from repro.index import make_index

# Above this many cells, prefer index streams over materialising the matrix.
_MATRIX_CELL_LIMIT = 20_000_000

#: Items of a user stream's order turned into Python objects at a time.
#: A live stream holds its current slice as objects, so it is kept small;
#: 16 costs no time against 64 on the offline-solve batch.
_SLICE = 16


class NeighborOrders(ABC):
    """Produces per-node descending-similarity neighbour streams."""

    @abstractmethod
    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        """Yield ``(user, sim)`` for one event, sim non-increasing."""

    @abstractmethod
    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        """Yield ``(event, sim)`` for one user, sim non-increasing."""


class IndexNeighborOrders(NeighborOrders):
    """Index-backed provider over attribute vectors (matrix-free).

    The *user* side of an instance is typically two to three orders of
    magnitude larger than the event side, so the two stream directions
    get different machinery: event streams (over the big user set) come
    from a lazy :mod:`repro.index` structure, while user streams (over
    the small event set) simply materialise one similarity column with a
    vectorised pass: its argmax first, then one stable argsort, i.e.
    ``np.argsort(-column, kind="stable")`` order, ties to the lowest
    event. The column and the order stay numpy arrays (O(|V|) numpy
    memory per live stream, not O(|V|) Python objects) and are turned
    into ``(event, sim)`` items a slice of :data:`_SLICE` at a time, by
    C-level iterators. Both remain matrix-free.

    Args:
        instance: Must be attribute-backed with the Euclidean metric --
            the distance-to-similarity conversion relies on Eq. (1)'s
            monotonicity.
        index_kind: A :mod:`repro.index` kind name (for event streams).
    """

    def __init__(self, instance: Instance, index_kind: str = "chunked") -> None:
        if instance.event_attributes is None or instance.user_attributes is None:
            raise ValueError("IndexNeighborOrders requires attribute-backed instances")
        if instance.metric != "euclidean":
            raise ValueError(
                "index-backed neighbour streams require the Euclidean metric, "
                f"instance uses {instance.metric!r}"
            )
        self._instance = instance
        d = instance.event_attributes.shape[1]
        self._max_dist = float(np.sqrt(d) * instance.t)
        self._user_index = make_index(index_kind, instance.user_attributes)
        self._event_attrs = instance.event_attributes

    def _to_sim(self, dist: float) -> float:
        return max(0.0, min(1.0, 1.0 - dist / self._max_dist))

    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        for user, dist in self._user_index.stream(self._event_attrs[event]):
            yield user, self._to_sim(dist)

    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        # Algorithm 2's initialisation touches *every* user's stream for
        # its first NN, so the first item must be cheap: one vectorised
        # column + argmax. A second demand pays one stable argsort, whose
        # first item is that argmax (ties go to the lowest index in
        # both); the order stays an array, converted a slice at a time.
        instance = self._instance

        def slices() -> Iterator[Iterable[tuple[int, float]]]:
            sims = instance.sim_col(user)
            if sims.shape[0] == 0:
                return
            best = int(np.argmax(sims))
            yield ((best, float(sims[best])),)
            rest = np.argsort(-sims, kind="stable")[1:]
            while rest.shape[0]:
                chunk, rest = rest[:_SLICE], rest[_SLICE:]
                yield zip(chunk.tolist(), sims[chunk].tolist())

        return chain.from_iterable(slices())


def neighbor_orders_for(
    instance: Instance, index_kind: str | None = None
) -> NeighborOrders | None:
    """Index streams for ``instance``, or None to scan its similarity matrix.

    Args:
        index_kind: Force index streams of this :mod:`repro.index` kind;
            None streams only when the matrix would be huge and the
            instance is attribute-backed, Euclidean and not yet
            materialised.
    """
    if index_kind is not None:
        return IndexNeighborOrders(instance, index_kind)
    cells = instance.n_events * instance.n_users
    attribute_backed = (
        instance.event_attributes is not None
        and instance.user_attributes is not None
        and instance.metric == "euclidean"
    )
    if attribute_backed and not instance.has_matrix and cells > _MATRIX_CELL_LIMIT:
        return IndexNeighborOrders(instance, "chunked")
    return None
