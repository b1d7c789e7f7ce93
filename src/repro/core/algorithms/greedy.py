"""Greedy-GEACC (Algorithm 2): the paper's scalable approximation.

Algorithm 2 repeatedly takes the globally most similar candidate pair
and adds it to the matching when feasible; conflicts are avoided from
the start (unlike MinCostFlow-GEACC, which repairs them afterwards).
Guarantee: ``MaxSum(M) >= MaxSum(M_OPT) / (1 + max c_u)`` (Theorem 3).

Capacities only decrease and matched-event sets only grow, so a pair
infeasible now is infeasible forever, and Greedy is exactly one scan of
all positive pairs in ``(-sim, event, user)`` order that accepts each
feasible pair. Two implementations:

* :func:`_scan`, whenever the similarity matrix is in memory: the
  flattened matrix in tie-exact top-k blocks, filtered with array masks
  before each block, so only the block's pairs are walked in Python.
* The frontier heap :meth:`GreedyGEACC._run`, for matrix-free index
  streams (``index_kind=...``, the Fig. 5 scalability regime): a heap
  ``H`` of at most one frontier pair per unfinished node. After every
  pop, the popped pair's event and user each advance to their *next
  feasible unvisited nearest neighbour* and push that pair into H unless
  it is already there. Infeasible pairs are skipped for good; pairs
  sitting in H must *not* be -- the paper keeps the node's frontier on
  them until they are popped (Example 3) -- so each cursor distinguishes
  "advance past" from "hold". Saturation is the commonest reason to
  advance past, and it is permanent, so a cursor steps past counterparts
  with no capacity left by itself, without a refill call per pair.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from repro.core.algorithms.base import Solver, register_solver
from repro.core.algorithms.neighbors import NeighborOrders, neighbor_orders_for
from repro.core.model import Arrangement, Instance
from repro.core.similarity import top_k_descending
from repro.exceptions import BudgetExceededError
from repro.index.pairheap import CandidatePairHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.budget import Budget

#: Pairs in the matrix scan's first block, and in each budget slice of a
#: block; each later block is twice the last. Small blocks re-filter
#: often, large ones pay fewer top-k passes.
_FIRST_BLOCK = 256


def _scan(instance: Instance, budget: "Budget | None" = None) -> Arrangement:
    """Greedy as one scan of the similarity matrix in ``(-sim, event, user)`` order.

    ``dead[v, u]`` marks a pair that can never be accepted (similarity
    not positive, event or user saturated, or the user holds an event
    conflicting with ``v``); it only grows. The *live* pairs are the flat
    indices neither dead nor scanned, ascending, so
    :func:`~repro.core.similarity.top_k_descending` over them breaks ties
    by ``(event, user)``. Each block takes the next pairs of the order
    and accepts each one an earlier acceptance has not killed, reading
    only locals (remaining capacities; each user's accepted events and
    each event's conflicts as bit sets); ``dead`` catches up before the
    next block. The scan ends when no live pair is left: at the end of
    the block in which every event or every user became full, at the
    latest. One :meth:`~repro.core.model.Arrangement.extend` fills the
    arrangement, so its seats are the accepted pairs in scan order.

    Budget: a node is one block pair. Each slice of at most
    :data:`_FIRST_BLOCK` block pairs is one checkpoint, taken before the
    walk and weighing the pairs walked. A node limit inside a slice
    shortens the walk and raises on the next node, so a cut returns a
    prefix, in scan order, of the unbudgeted acceptances.
    """
    n_events, n_users = instance.n_events, instance.n_users
    conflicts = np.zeros((n_events, n_events), dtype=bool)
    a, b = np.divmod(instance.conflicts.pair_keys(), n_events)
    conflicts[a, b] = conflicts[b, a] = True
    packed = np.packbits(conflicts, axis=1, bitorder="little")
    clash = [int.from_bytes(row.tobytes(), "little") for row in packed]
    dead = instance.sims <= 0
    dead[instance.event_capacities <= 0] = True
    dead[:, instance.user_capacities <= 0] = True
    event_left = instance.event_capacities.tolist()
    user_left = instance.user_capacities.tolist()
    held = [0] * n_users
    accepted_events: list[int] = []
    accepted_users: list[int] = []
    flat, live, size = instance.sims.ravel(), np.flatnonzero(~dead), _FIRST_BLOCK
    try:
        while len(live):
            top = top_k_descending(flat[live], size)
            events, users = np.divmod(live[top], n_users)
            live, size = np.delete(live, top), size * 2
            block = zip(events.tolist(), users.tolist())
            first = len(accepted_events)
            while walk := list(islice(block, _FIRST_BLOCK)):
                cut = False
                if budget is not None:
                    left = budget.remaining_nodes()
                    cut = left is not None and left < len(walk)
                    walk = walk[:left] if cut else walk
                    budget.checkpoint(weight=len(walk))
                for v, u in walk:
                    if event_left[v] and user_left[u] and not clash[v] & held[u]:
                        accepted_events.append(v)
                        accepted_users.append(u)
                        event_left[v] -= 1
                        user_left[u] -= 1
                        held[u] |= 1 << v
                if cut:
                    budget.checkpoint()  # the node past the limit
            if len(live):
                # Every event conflicting with one a user was just given
                # dies for that user; then every full event and user.
                given, clashing = np.nonzero(conflicts[accepted_events[first:]])
                dead[clashing, np.array(accepted_users[first:], dtype=np.intp)[given]] = True
                dead[np.array(event_left) == 0] = True
                dead[:, np.array(user_left) == 0] = True
                live = live[~dead.ravel()[live]]
    except BudgetExceededError:
        pass
    arrangement = Arrangement(instance)
    arrangement.extend(accepted_events, accepted_users)
    return arrangement


class _Cursor:
    """Frontier over one node's descending-similarity neighbour stream.

    Candidates are pulled from the stream in geometrically growing
    chunks (1, 4, 16, then 64 at a time) instead of one ``next()`` per
    peek: a node whose neighbourhood is dense with visited/infeasible
    pairs skips through them on a plain list walk instead of resuming a
    generator per pair. The first pull is deliberately a single item --
    :meth:`IndexNeighborOrders.user_stream` serves its first neighbour
    from one argmax and only pays the argsort when a second is demanded,
    and Algorithm 2's initialisation peeks *every* user's cursor once.

    ``left`` is the counterpart side's remaining capacities, which the
    caller keeps current. A new candidate whose counterpart has none
    left is stepped past inside :meth:`peek`: saturation is permanent,
    so the caller would skip it for good anyway. The held candidate is
    returned as it is, for the caller to re-check.
    """

    __slots__ = ("_stream", "_left", "_buffer", "_pos", "_chunk", "current", "done")

    #: Largest single pull; bounds per-cursor buffer memory.
    CHUNK_CAP = 64

    def __init__(self, stream: Iterator[tuple[int, float]], left: list[int]) -> None:
        self._stream = stream
        self._left = left
        self._buffer: list[tuple[int, float]] = []
        self._pos = 0
        self._chunk = 1
        self.current: tuple[int, float] | None = None
        self.done = False

    def peek(self) -> tuple[int, float] | None:
        """Current candidate, pulling chunks from the stream as needed."""
        if self.done:
            return None
        if self.current is None:
            buffer, pos, left = self._buffer, self._pos, self._left
            while True:
                end = len(buffer)
                while pos < end and left[buffer[pos][0]] <= 0:
                    pos += 1
                if pos < end:
                    break
                buffer = self._buffer = list(islice(self._stream, self._chunk))
                pos = 0
                self._chunk = min(self._chunk * 4, self.CHUNK_CAP)
                if not buffer:
                    self.finish()  # releases the exhausted stream's state
                    return None
            self.current = buffer[pos]
            self._pos = pos + 1
        return self.current

    def skip(self) -> None:
        """Advance permanently past the current candidate."""
        self.current = None

    def finish(self) -> None:
        """Mark the stream exhausted and release its resources."""
        self.current = None
        self.done = True
        self._stream = iter(())
        self._buffer = []
        self._pos = 0


@register_solver("greedy")
class GreedyGEACC(Solver):
    """Algorithm 2 of the paper.

    Args:
        index_kind: Stream neighbours from this :mod:`repro.index` kind
            through the frontier heap; None scans the similarity matrix
            unless it is unmaterialised and too large, in which case the
            heap streams from a chunked index (see
            :func:`~repro.core.algorithms.neighbors.neighbor_orders_for`).
    """

    def __init__(self, index_kind: str | None = None) -> None:
        self._index_kind = index_kind

    def solve(self, instance: Instance, budget: "Budget | None" = None) -> Arrangement:
        orders = neighbor_orders_for(instance, self._index_kind)
        if orders is None:
            return _scan(instance, budget)
        return self._run(instance, orders, budget)

    def _run(
        self,
        instance: Instance,
        orders: NeighborOrders,
        budget: "Budget | None" = None,
    ) -> Arrangement:
        arrangement = Arrangement(instance)
        heap = CandidatePairHeap()
        visited: set[tuple[int, int]] = set()
        # Remaining capacities, kept in step with the arrangement's, for
        # the cursors to step past saturated counterparts.
        event_left = instance.event_capacities.tolist()
        user_left = instance.user_capacities.tolist()
        event_cursors = [
            _Cursor(orders.event_stream(v), user_left) for v in range(instance.n_events)
        ]
        user_cursors = [
            _Cursor(orders.user_stream(u), event_left) for u in range(instance.n_users)
        ]

        # Any whole arrangement state is feasible, so on exhaustion
        # "return what we have" is correct everywhere.
        try:
            # Initialisation (Algorithm 2, lines 1-9): each side's first NN.
            for v in range(instance.n_events):
                if instance.event_capacities[v] > 0:
                    self._refill_event(v, arrangement, heap, visited, event_cursors)
            for u in range(instance.n_users):
                if instance.user_capacities[u] > 0:
                    self._refill_user(u, arrangement, heap, visited, user_cursors)

            # Iteration (lines 11-23). Saturated nodes' cursors are closed
            # eagerly so their stream state (index scans, sorted columns) is
            # released -- at scalability sizes that is most of the footprint.
            # One checkpoint per pop; every intermediate arrangement is
            # feasible, so on exhaustion the current matching is the answer.
            while heap:
                if budget is not None:
                    budget.checkpoint()
                v, u, sim = heap.pop()
                visited.add((v, u))
                if sim > 0 and arrangement.can_add(v, u):
                    arrangement.add(v, u)
                    event_left[v] -= 1
                    user_left[u] -= 1
                if event_left[v] > 0:
                    self._refill_event(v, arrangement, heap, visited, event_cursors)
                else:
                    event_cursors[v].finish()
                if user_left[u] > 0:
                    self._refill_user(u, arrangement, heap, visited, user_cursors)
                else:
                    user_cursors[u].finish()
        except BudgetExceededError:
            return arrangement
        return arrangement

    def _refill_event(
        self,
        v: int,
        arrangement: Arrangement,
        heap: CandidatePairHeap,
        visited: set[tuple[int, int]],
        cursors: list[_Cursor],
    ) -> None:
        """Push {v, v's next feasible unvisited NN} into H if not present."""
        cursor = cursors[v]
        if cursor.done:
            return  # v is a finished node; don't touch heap or conflicts
        conflicts = arrangement.instance.conflicts
        while True:
            candidate = cursor.peek()
            if candidate is None:
                return  # v is a finished node
            u, sim = candidate
            if sim <= 0:
                cursor.finish()
                return
            if (v, u) in visited:
                cursor.skip()
                continue
            if arrangement.user_remaining(u) <= 0 or conflicts.conflicts_with_any(
                v, arrangement.events_of(u)
            ):
                # Infeasible now implies infeasible forever; skip for good.
                cursor.skip()
                continue
            # A pair ever pushed and no longer in H was popped, and every
            # popped pair is in `visited` -- so reaching here, push() only
            # dedups against pairs still sitting in H, which is exactly
            # the old contains() pre-check in one heap probe. Whether
            # pushed or already present, the frontier stays here until
            # the pair is popped.
            heap.push(v, u, sim)
            return

    def _refill_user(
        self,
        u: int,
        arrangement: Arrangement,
        heap: CandidatePairHeap,
        visited: set[tuple[int, int]],
        cursors: list[_Cursor],
    ) -> None:
        """Push {u's next feasible unvisited NN, u} into H if not present."""
        cursor = cursors[u]
        if cursor.done:
            return
        conflicts = arrangement.instance.conflicts
        matched: frozenset[int] | None = None
        while True:
            candidate = cursor.peek()
            if candidate is None:
                return
            v, sim = candidate
            if sim <= 0:
                cursor.finish()
                return
            if (v, u) in visited:
                cursor.skip()
                continue
            if matched is None:
                # Deferred past the peek: an exhausted stream never pays
                # for u's matched-event snapshot. The arrangement is
                # frozen for the duration of the call, so once is enough.
                matched = arrangement.events_of(u)
            if arrangement.event_remaining(v) <= 0 or conflicts.conflicts_with_any(
                v, matched
            ):
                cursor.skip()
                continue
            heap.push(v, u, sim)
            return
