"""The label-based path walk: first-parent order, backtracking, and ends.

Each toy graph runs through the kernel's :func:`tight_path` and through
the scalar reference's own walk, which follow the same rule.
"""

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow.reference import ReferenceBipartiteMinCostFlow
from repro.flow.tight_path import preference_order, tight_path


def test_preference_order_is_the_tight_nodes_else_the_nearest():
    inf = float("inf")
    values = [0.5, 0.2, inf, 0.2, 0.3, 0.2, 0.1]
    assert list(preference_order(range(7), values, 0.2)) == [1, 3, 5]
    assert list(preference_order([7, 8, 9], [0.4, 0.3, 0.3], 0.2)) == [8]
    assert list(preference_order([4, 9], [inf, inf], 0.0)) == []


def kernel_walk(events, users, source_fed):
    return tight_path(
        0,
        lambda u: events.get(u, []),
        lambda v: users.get(v, []),
        lambda u: u in source_fed,
    )


def reference_walk(events, users, source_fed):
    reference = ReferenceBipartiteMinCostFlow(np.zeros((1, 1)), [1], [1])
    reference._parent_events_of = lambda u, search: events.get(u, [])
    reference._parent_users_of = lambda v, search: users.get(v, [])
    parent_u = defaultdict(lambda: -3, {u: -1 for u in source_fed})  # sweep / source fed
    path = reference._augmenting_path(SimpleNamespace(parent_t=0, parent_u=parent_u))
    users_on, events_on = path[0::2], path[1::2]
    return list(zip(events_on, users_on)), list(zip(events_on, users_on[1:]))


@pytest.fixture(params=[kernel_walk, reference_walk], ids=["kernel", "reference"])
def walk(request):
    return lambda events, users, source_fed=(): request.param(events, users, source_fed)


def test_first_candidates_are_followed_when_they_reach_the_source(walk):
    adds, drops = walk({0: [1, 2], 3: [0]}, {1: [3]}, source_fed={3})
    assert adds == [(1, 0), (0, 3)]
    assert drops == [(1, 3)]


def test_a_cycle_skips_to_the_next_candidate(walk):
    # u0 <- v1 <- u3 <- v3 <- u0 is a cycle; v3's second user is source fed.
    adds, drops = walk({0: [1], 3: [3], 5: [2]}, {1: [3], 3: [0, 5]}, source_fed={5})
    assert adds == [(1, 0), (3, 3), (2, 5)]
    assert drops == [(1, 3), (3, 5)]


def test_a_dead_end_backtracks_to_the_next_candidate(walk):
    # u0 <- v1 <- u3 has nowhere to go; u0 <- v2 <- u4 reaches the source.
    adds, drops = walk({0: [1, 2], 3: [], 4: [5]}, {1: [3], 2: [4]}, source_fed={4})
    assert adds == [(2, 0), (5, 4)]
    assert drops == [(2, 4)]


def test_no_route_to_the_source_raises(walk):
    with pytest.raises(FlowError, match="no tight augmenting path"):
        walk({0: [1]}, {1: [0]})


def test_an_event_left_on_an_abandoned_branch_still_ends_the_path(walk):
    # v1 is entered first as an interior node (u0 <- v1 <- u3, a dead
    # end); u0 <- v2 <- u4 <- v1 <- s is still a path, because u4 is
    # source fed and v1 is not on it.
    adds, drops = walk({0: [1, 2], 3: [], 4: [1]}, {1: [3], 2: [4]}, source_fed={4})
    assert adds == [(2, 0), (1, 4)]
    assert drops == [(2, 4)]


def test_an_event_already_on_the_path_does_not_end_it(walk):
    # u0 <- v1 <- u3, and u3 (source fed) offers v1 first: v1 is on the
    # path, so the walk ends at u3's next event.
    adds, drops = walk({0: [1], 3: [1, 2]}, {1: [3]}, source_fed={3})
    assert adds == [(1, 0), (2, 3)]
    assert drops == [(1, 3)]
