"""Tests for the dense tripartite SSP solver.

The critical property: it computes exactly the same minimum-cost flows as
the generic heap-based SSPA on the same GEACC-shaped network.
"""

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow
from repro.flow.network import FlowNetwork
from repro.flow.reference import ReferenceBipartiteMinCostFlow
from repro.flow.sspa import SuccessiveShortestPaths


def generic_reference(costs, cv, cu, amount=None):
    """Solve the same network with the generic SSPA."""
    n_events, n_users = costs.shape
    network = FlowNetwork()
    source = network.add_node()
    events = network.add_nodes(n_events)
    users = network.add_nodes(n_users)
    sink = network.add_node()
    for v in range(n_events):
        network.add_arc(source, events[v], int(cv[v]))
        for u in range(n_users):
            network.add_arc(events[v], users[u], 1, float(costs[v, u]))
    for u in range(n_users):
        network.add_arc(users[u], sink, int(cu[u]))
    solver = SuccessiveShortestPaths(network, source, sink)
    return solver.run(amount=amount)


@pytest.mark.parametrize("seed", range(6))
def test_matches_generic_sspa_at_max_flow(seed):
    rng = np.random.default_rng(seed)
    costs = rng.random((4, 6))
    cv = rng.integers(1, 4, size=4)
    cu = rng.integers(1, 3, size=6)
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    dense.run()
    generic_flow, generic_cost = generic_reference(costs, cv, cu)
    assert dense.total_flow == generic_flow
    assert dense.total_cost == pytest.approx(generic_cost, abs=1e-9)


@pytest.mark.parametrize("amount", [1, 3, 5])
def test_matches_generic_at_fixed_amount(amount):
    rng = np.random.default_rng(77)
    costs = rng.random((3, 5))
    cv = np.array([2, 2, 2])
    cu = np.array([1, 2, 1, 2, 1])
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    dense.run(amount=amount)
    _, generic_cost = generic_reference(costs, cv, cu, amount=amount)
    assert dense.total_flow == amount
    assert dense.total_cost == pytest.approx(generic_cost, abs=1e-9)


def test_augment_costs_non_decreasing():
    rng = np.random.default_rng(5)
    costs = rng.random((4, 8))
    dense = DenseBipartiteMinCostFlow(
        costs, rng.integers(1, 4, 4), rng.integers(1, 3, 8)
    )
    previous = -1.0
    while True:
        cost = dense.augment()
        if cost is None:
            break
        assert cost >= previous - 1e-9
        previous = cost


def test_stop_cost():
    costs = np.array([[0.2, 0.9], [0.95, 0.99]])
    dense = DenseBipartiteMinCostFlow(costs, np.ones(2, int), np.ones(2, int))
    routed = dense.run(stop_cost=0.9)
    assert routed == 1  # only the 0.2 path is cheaper than 0.9
    assert dense.total_cost == pytest.approx(0.2)


def test_flow_respects_capacities():
    rng = np.random.default_rng(6)
    costs = rng.random((5, 7))
    cv = rng.integers(1, 4, 5)
    cu = rng.integers(1, 3, 7)
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    dense.run()
    assert np.all(dense.flow.sum(axis=1) <= cv)
    assert np.all(dense.flow.sum(axis=0) <= cu)
    assert dense.total_flow == dense.flow.sum()
    assert dense.total_flow == min(cv.sum(), cu.sum())


def test_exhausted_flag():
    dense = DenseBipartiteMinCostFlow(
        np.array([[0.5]]), np.array([1]), np.array([1])
    )
    assert dense.augment() is not None
    assert dense.augment() is None
    assert dense.exhausted


def test_input_validation():
    with pytest.raises(FlowError):
        DenseBipartiteMinCostFlow(np.zeros(3), np.ones(3), np.ones(1))
    with pytest.raises(FlowError):
        DenseBipartiteMinCostFlow(-np.ones((2, 2)), np.ones(2), np.ones(2))
    with pytest.raises(FlowError):
        DenseBipartiteMinCostFlow(np.ones((2, 2)), np.ones(3), np.ones(2))


@pytest.mark.parametrize(
    "flow_class", [DenseBipartiteMinCostFlow, ReferenceBipartiteMinCostFlow]
)
def test_nan_cost_is_rejected(flow_class):
    # NaN compares False against 0, so a "< 0" check let it through and
    # the solver routed 2 units through an event of capacity 1.
    with pytest.raises(FlowError, match="NaN"):
        flow_class(np.array([[np.nan, 0.5]]), np.array([1]), np.array([1, 1]))


def test_inf_cost_means_no_arc():
    costs = np.array([[np.inf, 0.5], [0.2, np.inf]])
    dense = DenseBipartiteMinCostFlow(costs, np.array([2, 2]), np.array([2, 2]))
    assert dense.run() == 2
    assert np.array_equal(dense.flow, [[False, True], [True, False]])
    assert dense.total_cost == pytest.approx(0.7)


#: Costs (in quarters) on which following the first tight parent from the
#: sink cycled forever (u8 <- v1 <- u3 <- v3 <- u8, every label 0) at the
#: 10th augmentation, growing the path list without bound.
_CYCLING_QUARTERS = [
    [3, 3, 4, 1, 2, 4, 4, 0, 0, 4, 4, 3, 2, 1],
    [3, 4, 2, 1, 4, 1, 4, 1, 1, 0, 2, 1, 1, 4],
    [4, 1, 0, 2, 4, 1, 4, 1, 3, 4, 3, 4, 4, 1],
    [4, 4, 2, 1, 2, 0, 2, 2, 1, 4, 4, 3, 3, 4],
    [0, 0, 3, 4, 3, 0, 0, 4, 0, 0, 0, 2, 4, 1],
    [2, 3, 1, 4, 4, 2, 0, 2, 4, 3, 4, 1, 1, 0],
    [4, 4, 2, 3, 2, 0, 1, 2, 4, 4, 2, 4, 4, 0],
]

#: Costs (in tenths) on which rounding left reduced costs a few ulps below
#: zero, so that no path of exactly tight arcs reached the source and a
#: label-based path walk raised FlowError (draw 2591 of the fuzz recipe
#: below, seed 1).
_DRIFTING_TENTHS = [
    [4, 3, 6, 5, 9, 8, 2, 9],
    [5, 10, 0, 0, 9, 9, 9, 3],
    [6, 4, 2, 8, 5, 3, 2, 3],
    [5, 8, 1, 3, 2, 9, 6, 6],
    [0, 9, 5, 4, 5, 6, 7, 6],
    [5, 2, 1, 10, 4, 4, 5, 2],
    [9, 0, 6, 1, 0, 0, 4, 2],
    [6, 6, 5, 6, 2, 6, 0, 8],
    [1, 6, 3, 4, 1, 9, 10, 2],
]

#: Costs (in tenths) on which the kernel's decided-label cut needs its
#: guard (draw 241 of the fuzz recipe below, seed 2): cutting the sweeps
#: once every newly lowered event label is at least the best sink value
#: so far, without also requiring its sink value to lie strictly above
#: it, routes a different flow with different potentials.
_UNGUARDED_CUT_TENTHS = [
    [8, 7, 3, 0, 9, 7, 9, 9, 2, 7, 10, 5, 9, 5, 8],
    [9, 0, 4, 4, 5, 4, 8, 2, 8, 9, 2, 1, 9, 10, 7],
    [4, 1, 5, 2, 1, 3, 6, 10, 1, 7, 8, 7, 5, 3, 0],
    [9, 7, 0, 3, 1, 7, 8, 8, 9, 6, 4, 2, 6, 2, 10],
    [4, 8, 1, 6, 4, 9, 9, 2, 10, 1, 4, 6, 6, 4, 2],
    [6, 9, 9, 3, 4, 6, 5, 2, 4, 1, 1, 5, 9, 0, 2],
    [1, 7, 7, 4, 9, 4, 7, 7, 9, 10, 9, 2, 6, 5, 1],
    [7, 3, 8, 7, 10, 0, 9, 6, 9, 8, 4, 6, 1, 5, 5],
    [1, 8, 6, 8, 10, 6, 9, 8, 7, 5, 1, 1, 5, 2, 6],
    [1, 9, 6, 5, 8, 10, 4, 3, 5, 4, 3, 0, 5, 6, 6],
    [6, 4, 0, 4, 5, 9, 2, 1, 4, 4, 8, 2, 7, 9, 2],
    [3, 10, 2, 4, 7, 5, 6, 5, 3, 4, 4, 9, 10, 9, 0],
    [0, 2, 10, 2, 2, 3, 6, 2, 7, 4, 9, 7, 2, 1, 6],
]


@pytest.mark.parametrize(
    "costs, cv, cu, units",
    [
        (
            np.array(_CYCLING_QUARTERS) * 0.25,
            np.array([0, 3, 3, 1, 0, 3, 3]),
            np.array([3, 1, 0, 1, 0, 0, 0, 1, 3, 2, 2, 2, 1, 2]),
            13,
        ),
        (
            np.array(_DRIFTING_TENTHS) / 10,
            np.array([1, 0, 3, 3, 0, 2, 1, 0, 3]),
            np.array([2, 3, 1, 3, 3, 1, 0, 0]),
            13,
        ),
        (
            np.array(_UNGUARDED_CUT_TENTHS) / 10,
            np.array([1, 1, 3, 2, 2, 1, 3, 3, 3, 3, 2, 2, 3]),
            np.array([2, 3, 2, 2, 3, 1, 2, 1, 2, 1, 1, 1, 3, 1, 3]),
            28,
        ),
    ],
    ids=["zero-cost-cycle", "rounding-drift", "unguarded-cut"],
)
def test_tie_case_routes_like_the_generic_sspa(costs, cv, cu, units):
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
    assert dense.run() == reference.run() == units
    assert_same_state(dense, reference)
    _, generic_cost = generic_reference(costs, cv, cu)
    assert dense.total_cost == pytest.approx(generic_cost, abs=1e-9)
    assert np.all(dense.flow.sum(axis=1) <= cv)
    assert np.all(dense.flow.sum(axis=0) <= cu)


def assert_same_state(dense, reference, context=""):
    """Kernel and reference agree bit for bit on flow, cost and potentials."""
    assert np.array_equal(dense.flow, reference.flow), context
    assert dense.total_cost == reference.total_cost, context
    assert np.array_equal(dense._pot_v, np.asarray(reference._pot_v)), context
    assert np.array_equal(dense._pot_u, np.asarray(reference._pot_u)), context
    assert dense._pot_t == reference._pot_t, context


def tie_heavy_draws(seed, grids, min_capacity, n):
    """The first ``n`` draws of a tie-heavy fuzz recipe: 1-14 events x 1-21
    users, costs rounded to a grid step drawn from ``grids``, capacities
    ``min_capacity``-3."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_events, n_users = rng.integers(1, 15), rng.integers(1, 22)
        grid = rng.choice(grids)
        costs = np.round(rng.random((n_events, n_users)) * grid) / grid
        cv = rng.integers(min_capacity, 4, n_events)
        cu = rng.integers(min_capacity, 4, n_users)
        yield costs, cv, cu


@pytest.mark.parametrize(
    "seed, grids, min_capacity", [(1, (10, 4), 0), (2, (10,), 1)], ids=["seed1", "seed2"]
)
def test_tie_heavy_draws_augment_alike_in_kernel_and_reference(seed, grids, min_capacity):
    # Label-based path walks raised FlowError on draw 910 of seed 1 and
    # draw 973 of seed 2. The kernel's sweep cuts change only labels the
    # potential update clamps, so the potentials are compared too.
    for draw, (costs, cv, cu) in enumerate(tie_heavy_draws(seed, grids, min_capacity, 1000)):
        dense = DenseBipartiteMinCostFlow(costs, cv, cu)
        reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
        while True:
            got = dense.augment()
            assert got == reference.augment(), f"draw {draw}"
            assert_same_state(dense, reference, f"draw {draw}")
            if got is None:
                break
