"""Recovering an augmenting path from shortest-path labels.

The dense bipartite SSP kernel (:mod:`repro.flow.dense_bipartite`)
stores labels, not parent pointers: a node's parent is
a neighbour whose arc is *tight*, i.e. reproduces the node's label by
exact equality, lowest index first. Following the first tight parent
from the sink reaches the source in almost every search. On ties
(quantised costs make zero-reduced-cost cycles) that first-parent walk
can instead cycle forever, e.g. ``u8 <- v1 <- u3 <- v3 <- u8`` with
every label 0; where rounding has left reduced costs a few ulps below
zero it can find no tight path at all.

:func:`tight_path` walks depth first and enters no node twice. A walk
that takes the first candidate at every step and never revisits is the
plain first-parent walk, so every path that walk found is found
unchanged. Only a walk that would have cycled or stalled backtracks to
the next candidate. An event fed by a source-fed user ends the path
unless it is already on it, whichever branch entered it before. Where
no node is tight, :func:`preference_order` offers the nearest one, so
a path can leave the tight arcs under float noise; when no candidate
path reaches the source at all the walk raises
:class:`~repro.exceptions.FlowError`.

:mod:`repro.flow.reference` walks by the same rule with its own scalar
code, so the kernel-equivalence suite checks this walk against it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import FlowError


def preference_order(
    nodes: Sequence[int], values: Sequence[float], target: float
) -> Iterator[int]:
    """Candidate parents in walk order.

    The nodes whose value equals ``target`` (the tight ones), in the
    order given; if none is tight, the nearest one with a finite value
    (the first of equals), as a guard against float noise. ``inf`` marks
    a node that is no candidate. Lazy: a walk that takes the first
    candidate pays for one scan.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.shape[0]:
        return
    hits = values == target  # geacc-lint: disable=R2 reason=labels are recovered by exact equality against their producing expression
    first = int(hits.argmax())
    if not hits[first]:
        nearest = int(values.argmin())
        if values[nearest] < np.inf:
            yield int(nodes[nearest])
        return
    yield int(nodes[first])
    for index in (np.flatnonzero(hits[first + 1 :]) + first + 1).tolist():
        yield int(nodes[index])


def tight_path(
    sink_user: int,
    events_feeding: Callable[[int], Iterable[int]],
    users_feeding: Callable[[int], Iterable[int]],
    source_fed: Callable[[int], bool],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The augmenting path from ``sink_user`` back to the source.

    Args:
        sink_user: The user feeding the sink.
        events_feeding: Candidate events feeding a user, in walk order.
        users_feeding: Candidate matched users feeding an event through
            its residual arc, in walk order.
        source_fed: True for a user whose label is a direct source path
            (any event feeding it ends the path).

    Returns:
        ``(adds, drops)``: the ``(v, u)`` arcs to saturate, sink side
        first, and the matched arcs the path runs backwards over.

    Raises:
        FlowError: When no tight path reaches the source.
    """
    # path alternates users and events: u0, v0, u1, v1, ...; branches[i]
    # iterates the remaining candidates for path[i + 1]. An interior node
    # is entered at most once; whether an event ends the path depends on
    # the user it is entered from, so an end event is only checked
    # against the path itself.
    path = [sink_user]
    branches = [iter(events_feeding(sink_user))]
    seen = {(0, sink_user)}
    while branches:
        kind = len(path) % 2  # kind of the next node: 1 event, 0 user
        ends = kind == 1 and source_fed(path[-1])
        for node in branches[-1]:
            if ends:
                if node not in path[1::2]:
                    return _arcs(path + [node])
            elif (kind, node) not in seen:
                break
        else:
            branches.pop()
            path.pop()
            continue
        seen.add((kind, node))
        path.append(node)
        branches.append(iter(users_feeding(node) if kind else events_feeding(node)))
    raise FlowError("no tight augmenting path reaches the source")


def _arcs(path: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    users, events = path[0::2], path[1::2]
    return list(zip(events, users)), list(zip(events, users[1:]))
