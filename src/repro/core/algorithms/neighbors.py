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
from collections.abc import Iterator

import numpy as np

from repro.core.model import Instance
from repro.core.similarity import top_k_descending
from repro.index import make_index

# Above this many cells, prefer index streams over materialising the matrix.
_MATRIX_CELL_LIMIT = 20_000_000

#: Chunk growth for :func:`_chunked_descending`: first pull is a single
#: argpartition (Algorithm 2's initialisation peeks every cursor once),
#: later pulls grow geometrically so a deeply-consumed stream converges
#: to one stable argsort's worth of work.
_FIRST_CHUNK = 1
_CHUNK_GROWTH = 8
_CHUNK_FLOOR = 64


def _chunked_descending(values: np.ndarray) -> Iterator[tuple[int, float]]:
    """Yield ``(index, value)`` by non-increasing value, index tie-break.

    The order is exactly ``np.argsort(-values, kind="stable")`` --
    :func:`top_k_descending` guarantees every prefix matches it, ties
    included -- but it is computed in geometrically growing chunks, so a
    consumer that stops after a few items pays O(n) argpartitions instead
    of a full O(n log n) sort, and each chunk is one vectorised top-k over
    the whole row rather than per-element Python work.
    """
    n = int(values.shape[0])
    served = 0
    k = _FIRST_CHUNK
    while served < n:
        k = min(n, k)
        order = top_k_descending(values, k)
        chunk = order[served:]
        # One C-level conversion per chunk; yielding stays scalar only at
        # the generator boundary, never in the scoring.
        yield from zip(chunk.tolist(), values[chunk].tolist())
        served = k
        k = max(_CHUNK_FLOOR, served * _CHUNK_GROWTH)


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
    vectorised pass plus argsort -- O(|V|) memory per live stream and far
    less per-item overhead than a generator chain. Both remain
    matrix-free.

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
        # column + argmax. Deeper consumption hands off to the chunked
        # top-k stream (argmax and its first chunk break ties
        # identically: lowest index first).
        instance = self._instance

        def generate() -> Iterator[tuple[int, float]]:
            sims = instance.sim_col(user)
            if sims.shape[0] == 0:
                return
            best = int(np.argmax(sims))
            yield best, float(sims[best])
            rest = _chunked_descending(sims)
            next(rest)  # the argmax item, already served
            yield from rest

        return generate()


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
