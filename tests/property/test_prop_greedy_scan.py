"""Greedy's matrix scan: the naive reference on harder shapes, and budgets.

``tests/property/test_prop_greedy_reference.py`` pins Greedy-GEACC pair
for pair to the quadratic spec (sort every positive pair by ``(-sim,
event, user)``, accept each feasible one). This file extends that
property to the shapes the block-filtered scan treats specially --
zero-capacity events and users (dead from the start), dense conflicts
(most pairs killed by a conflict), all-tied matrices (pure tie-break
order across block boundaries) and engine-style sub-instances built
with ``validate=False`` from a slice of a larger matrix -- at sizes that
span several scan blocks.

It also pins the budget contract: under ``Budget(node_limit=k)`` the
arrangement is exactly a prefix, in scan order, of the unbudgeted run's
accepted pairs, and that prefix never shrinks as ``k`` grows. The scan
charges the budget per slice of block pairs, so limits are also drawn
inside slices and at their borders.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import GreedyGEACC
from repro.core.algorithms.greedy import _FIRST_BLOCK
from repro.core.conflicts import ConflictGraph
from repro.core.model import Instance
from repro.robustness.budget import Budget
from tests.property.test_prop_greedy_reference import naive_global_greedy

SIM_SHAPES = ("continuous", "quarters", "tied")


@st.composite
def scan_instances(draw, max_events: int = 14, max_users: int = 40):
    """Matrix instances up to ~560 cells (several blocks of the scan)."""
    n_events = draw(st.integers(1, max_events))
    n_users = draw(st.integers(1, max_users))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = draw(st.sampled_from(SIM_SHAPES))
    if shape == "continuous":
        sims = rng.random((n_events, n_users))
        sims[rng.random((n_events, n_users)) < 0.1] = 0.0
    elif shape == "quarters":
        sims = rng.integers(0, 5, (n_events, n_users)) * 0.25
    else:
        sims = np.full((n_events, n_users), draw(st.sampled_from([0.0, 0.5, 1.0])))
    zero_rate = draw(st.sampled_from([0.0, 0.3]))
    event_capacities = rng.integers(1, 4, n_events)
    user_capacities = rng.integers(1, 4, n_users)
    event_capacities[rng.random(n_events) < zero_rate] = 0
    user_capacities[rng.random(n_users) < zero_rate] = 0
    ratio = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    conflicts = ConflictGraph.random(n_events, ratio, rng)
    return Instance.from_matrix(sims, event_capacities, user_capacities, conflicts)


def engine_style(instance: Instance, events: np.ndarray, users: np.ndarray) -> Instance:
    """The sub-instance the online engine solves: an ascending slice of
    events and users, relabelled conflicts, values not re-validated."""
    local = {int(event): i for i, event in enumerate(events)}
    pairs = [
        (local[a], local[b])
        for a, b in instance.conflicts.pairs
        if a in local and b in local
    ]
    return Instance(
        instance.event_capacities[events],
        instance.user_capacities[users],
        ConflictGraph(len(events), pairs),
        sims=instance.sims[np.ix_(events, users)],
        validate=False,
    )


def scan_order(instance: Instance, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``pairs`` in the order the scan meets them: ``(-sim, event, user)``."""
    sims = instance.sims
    return sorted(pairs, key=lambda pair: (-sims[pair], pair[0], pair[1]))


@settings(max_examples=60, deadline=None)
@given(instance=scan_instances())
def test_scan_equals_reference(instance):
    assert GreedyGEACC().solve(instance).pairs() == naive_global_greedy(instance).pairs()


@settings(max_examples=30, deadline=None)
@given(instance=scan_instances(), data=st.data())
def test_scan_equals_reference_on_engine_sub_instances(instance, data):
    events = np.flatnonzero(
        data.draw(st.lists(st.booleans(), min_size=instance.n_events,
                           max_size=instance.n_events), label="events")
    )
    users = np.flatnonzero(
        data.draw(st.lists(st.booleans(), min_size=instance.n_users,
                           max_size=instance.n_users), label="users")
    )
    sub = engine_style(instance, events, users)
    assert GreedyGEACC().solve(sub).pairs() == naive_global_greedy(sub).pairs()


@settings(max_examples=30, deadline=None)
@given(instance=scan_instances())
def test_node_limit_cuts_a_growing_prefix_of_the_scan(instance):
    unbudgeted = Budget()
    full = GreedyGEACC().solve(instance, budget=unbudgeted)
    order = scan_order(instance, full.pairs())
    nodes = unbudgeted.nodes
    previous = 0
    for limit in sorted({0, 1, nodes // 3, nodes // 2, nodes - 1, nodes, nodes + 1}):
        if limit < 0:
            continue
        cut = GreedyGEACC().solve(instance, budget=Budget(node_limit=limit))
        accepted = scan_order(instance, cut.pairs())
        assert accepted == order[: len(accepted)]
        assert len(accepted) >= previous
        if limit == nodes - 1:
            # A node is one pair examined, so one node short loses at
            # most the last pair.
            assert len(accepted) >= len(order) - 1
        previous = len(accepted)
    assert previous == len(order)  # a limit of `nodes` cuts nothing


@settings(max_examples=30, deadline=None)
@given(instance=scan_instances(max_events=20, max_users=60), data=st.data())
def test_node_limit_inside_a_slice_cuts_at_that_node(instance, data):
    # The scan charges the budget once per slice of up to _FIRST_BLOCK
    # block pairs; a limit inside a slice must still cut at its node:
    # the walk stops there (nodes = limit + 1 when it raises), the cut
    # is a prefix of the scan's acceptances, and one more node adds at
    # most one pair -- also across the slice's borders.
    unbudgeted = Budget()
    order = scan_order(instance, GreedyGEACC().solve(instance, budget=unbudgeted).pairs())
    nodes = unbudgeted.nodes
    slice_start = _FIRST_BLOCK * data.draw(st.integers(0, nodes // _FIRST_BLOCK))
    inside = slice_start + data.draw(st.integers(1, _FIRST_BLOCK - 1), label="offset")
    limits = {slice_start - 1, slice_start, inside, inside + 1}
    limits |= {slice_start + _FIRST_BLOCK - 1, slice_start + _FIRST_BLOCK}
    previous: tuple[int, list] | None = None
    for limit in sorted(n for n in limits if 0 <= n <= nodes):
        budget = Budget(node_limit=limit)
        accepted = scan_order(instance, GreedyGEACC().solve(instance, budget=budget).pairs())
        assert accepted == order[: len(accepted)]
        assert budget.nodes == (limit + 1 if limit < nodes else nodes)
        if previous is not None and previous[0] == limit - 1:
            assert len(accepted) - len(previous[1]) in (0, 1)
        previous = (limit, accepted)


def test_every_node_limit_on_a_tied_instance_is_a_prefix():
    # All-equal similarities across several blocks: the order is the
    # flat index order, so the prefix is checked at every single limit.
    instance = Instance.from_matrix(
        np.full((12, 40), 0.5),
        np.full(12, 3),
        np.full(40, 2),
        ConflictGraph.random(12, 0.5, np.random.default_rng(4)),
    )
    unbudgeted = Budget()
    order = scan_order(instance, GreedyGEACC().solve(instance, budget=unbudgeted).pairs())
    previous = 0
    for limit in range(unbudgeted.nodes + 2):
        cut = GreedyGEACC().solve(instance, budget=Budget(node_limit=limit))
        accepted = scan_order(instance, cut.pairs())
        assert accepted == order[: len(accepted)]
        assert len(accepted) - previous in (0, 1)  # one node, one pair at most
        previous = len(accepted)
    assert previous == len(order)
