"""Vectorised kernels vs scalar references: bit-identical, ties included.

The block kernels (similarity tiles, the dense min-cost-flow kernel,
chunked top-k candidate generation) all promise *exact* equality with
their scalar specifications -- not allclose, equality. IEEE arithmetic
makes that a real invariant: each kernel is written to fold in the same
association as its scalar counterpart, and these properties are the
contract's teeth. Cost/similarity grids are deliberately quantised so
ties occur constantly; tie handling is where vectorisation usually
diverges first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.neighbors import IndexNeighborOrders
from repro.core.similarity import (
    similarity_matrix,
    similarity_tiles,
    top_k_descending,
)
from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow
from repro.flow.reference import ReferenceBipartiteMinCostFlow
from repro.service.store import ArrangementStore, StoreConfig
from tests.core.algorithms.test_neighbors import grid_instance

_METRICS = st.sampled_from(["euclidean", "cosine"])


@st.composite
def attribute_sets(draw, max_events: int = 8, max_users: int = 10):
    seed = draw(st.integers(0, 2**16))
    n_events = draw(st.integers(1, max_events))
    n_users = draw(st.integers(1, max_users))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    return rng.random((n_events, d)), rng.random((n_users, d))


@settings(max_examples=40, deadline=None)
@given(attribute_sets(), _METRICS, st.data())
def test_tiles_equal_full_matrix_blocks(attrs, metric, data):
    event_attrs, user_attrs = attrs
    nv, nu = event_attrs.shape[0], user_attrs.shape[0]
    full = similarity_matrix(event_attrs, user_attrs, 3.0, metric)
    lo_v = data.draw(st.integers(0, nv - 1), label="lo_v")
    hi_v = data.draw(st.integers(lo_v + 1, nv), label="hi_v")
    lo_u = data.draw(st.integers(0, nu - 1), label="lo_u")
    hi_u = data.draw(st.integers(lo_u + 1, nu), label="hi_u")
    tile = similarity_tiles(
        event_attrs, user_attrs, 3.0,
        slice(lo_v, hi_v), slice(lo_u, hi_u), metric,
    )
    assert np.array_equal(tile, full[lo_v:hi_v, lo_u:hi_u])


@settings(max_examples=40, deadline=None)
@given(attribute_sets(), _METRICS, st.data())
def test_store_similarity_buffer_growth_is_bit_identical(attrs, metric, data):
    # Fill the store's buffer over a prefix of both entity sets, add the
    # rest, fill again: the grown buffer (old block kept + new rows and
    # columns) must equal a from-scratch full matrix exactly.
    event_attrs, user_attrs = attrs
    store = ArrangementStore(StoreConfig(dimension=event_attrs.shape[1], t=3.0, metric=metric))
    seq = 0

    def add(cmd: str, row: np.ndarray) -> None:
        nonlocal seq
        seq += 1
        store.apply({"seq": seq, "cmd": cmd, "capacity": 1, "attributes": row.tolist()})

    cut_v = data.draw(st.integers(1, event_attrs.shape[0]), label="cut_v")
    cut_u = data.draw(st.integers(1, user_attrs.shape[0]), label="cut_u")
    for row in event_attrs[:cut_v]:
        add("post_event", row)
    for row in user_attrs[:cut_u]:
        add("register_user", row)
    store.similarities()
    for row in user_attrs[cut_u:]:
        add("register_user", row)
    for row in event_attrs[cut_v:]:
        add("post_event", row)
    grown = store.similarities()
    full = similarity_matrix(event_attrs, user_attrs, 3.0, metric)
    assert np.array_equal(grown, full)
    assert not grown.flags.writeable
    assert np.array_equal(store.sim_row(0), full[0])
    # Every other reader of the store sees the same numbers: one pair,
    # the batch snapshot, and MaxSum over a few seats.
    event = data.draw(st.integers(0, event_attrs.shape[0] - 1), label="event")
    user = data.draw(st.integers(0, user_attrs.shape[0] - 1), label="user")
    assert store.sim(event, user) == full[event, user]
    assert np.array_equal(store.snapshot_instance().sims, full)
    # Event i seats users[i]: every capacity is 1 and nothing conflicts.
    users = data.draw(
        st.lists(
            st.integers(0, user_attrs.shape[0] - 1),
            unique=True,
            max_size=min(4, *full.shape),
        ),
        label="users",
    )
    seq += 1
    store.apply({"seq": seq, "cmd": "commit_batch", "assign": list(enumerate(users))})
    assert store.max_sum() == sum(full[range(len(users)), users].tolist())


@st.composite
def tied_values(draw, max_size: int = 30):
    # A coarse grid: most draws collide, so every selection boundary is
    # a tie-break decision.
    grid = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=max_size)
    )
    return np.array(grid, dtype=np.float64) * 0.25


@settings(max_examples=60, deadline=None)
@given(tied_values(), st.data())
def test_top_k_prefix_matches_stable_argsort(values, data):
    expected = np.argsort(-values, kind="stable")
    k = data.draw(st.integers(0, values.shape[0] + 2), label="k")
    got = top_k_descending(values, k)
    assert np.array_equal(got, expected[: max(0, min(k, values.shape[0]))])


@settings(max_examples=60, deadline=None)
@given(tied_values(max_size=150))
def test_user_stream_is_exactly_stable_argsort_order(values):
    instance = grid_instance(values)  # similarities 1 - values: same grid
    sims = instance.sim_col(0)
    stream = list(IndexNeighborOrders(instance).user_stream(0))
    expected = [
        (int(i), float(sims[i]))
        for i in np.argsort(-sims, kind="stable")
    ]
    assert stream == expected


@st.composite
def flow_workloads(draw, max_events: int = 5, max_users: int = 7, min_events: int = 1):
    seed = draw(st.integers(0, 2**16))
    n_events = draw(st.integers(min_events, max_events))
    n_users = draw(st.integers(1, max_users))
    rng = np.random.default_rng(seed)
    costs = rng.random((n_events, n_users))
    # Quantise about half the grid to one decimal: cost ties, equal
    # reduced costs, and boundary-equal path costs all become routine.
    quantise = rng.random((n_events, n_users)) < 0.5
    costs[quantise] = np.round(costs[quantise], 1)
    cv = rng.integers(0, 4, n_events)
    cu = rng.integers(0, 3, n_users)
    return costs, cv, cu


@settings(max_examples=30, deadline=None)
@given(flow_workloads(), st.sampled_from(["max", "stop", "unit"]))
def test_dense_kernel_matches_scalar_reference_bitwise(workload, mode):
    """Flows, costs, and potentials agree exactly in every driving mode.

    ``max`` runs to exhaustion, ``stop`` stops at the marginal-cost
    threshold Algorithm 1 uses (1 - eps), ``unit`` augments one unit at
    a time comparing every per-unit path cost -- the exact shapes
    :class:`~repro.core.algorithms.mincostflow.MinCostFlowGEACC` drives
    the kernel through.
    """
    costs, cv, cu = workload
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
    if mode == "max":
        dense.run()
        reference.run()
    elif mode == "stop":
        dense.run(stop_cost=1.0 - 1e-12)
        reference.run(stop_cost=1.0 - 1e-12)
    else:
        while True:
            got = dense.augment()
            want = reference.augment()
            assert got == want  # None == None ends both together
            if got is None:
                break
    assert dense.total_flow == reference.total_flow
    assert dense.total_cost == reference.total_cost
    assert np.array_equal(dense.flow, reference.flow)
    assert np.array_equal(np.asarray(dense._pot_v), np.asarray(reference._pot_v))
    assert np.array_equal(np.asarray(dense._pot_u), np.asarray(reference._pot_u))
    assert dense._pot_t == reference._pot_t
    assert dense.exhausted == reference.exhausted


def assert_kept_state(dense: DenseBipartiteMinCostFlow) -> None:
    """Every piece of residual state the kernel keeps equals a fresh recomputation."""
    open_v = dense.event_used < dense.event_capacities
    assert np.array_equal(dense._open_v, open_v)
    assert np.array_equal(dense._costs_open, np.where(dense.flow, np.inf, dense.costs))
    masked = np.where(dense.flow | ~open_v[:, None], np.inf, dense.costs)
    assert np.array_equal(dense._colmin, masked.min(axis=0, initial=np.inf))
    mv, mu = dense._matched_arcs()
    want_v, want_u = np.nonzero(dense.flow)
    assert np.array_equal(mv, want_v) and np.array_equal(mu, want_u)
    assert np.array_equal(dense._closed_u, dense.user_used >= dense.user_capacities)


def drive_checking_kept_state(costs, cv, cu, mode: str) -> DenseBipartiteMinCostFlow:
    """Drive the kernel one unit at a time in ``mode``, checking after each
    unit the kept state and the path it committed: it adds only open arcs,
    drops only matched ones, and its true cost is the cost it returned."""
    dense = DenseBipartiteMinCostFlow(costs, cv, cu)
    assert_kept_state(dense)
    committed = []
    read_path = dense._path

    def recording_path(search):
        committed.append((read_path(search), search.path_cost))
        return committed[-1][0]

    dense._path = recording_path
    while True:
        before = dense.flow.copy()
        if mode == "max":
            routed = dense.run(amount=1)
        elif mode == "stop":
            routed = dense.run(amount=1, stop_cost=1.0 - 1e-12)
        else:
            routed = int(dense.augment() is not None)
        assert_kept_state(dense)
        assert len(committed) == routed
        for (adds, drops), path_cost in committed:
            assert all(not before[v, u] and np.isfinite(costs[v, u]) for v, u in adds)
            assert all(before[v, u] for v, u in drops)
            true_cost = sum(costs[v, u] for v, u in adds) - sum(costs[v, u] for v, u in drops)
            assert true_cost == pytest.approx(path_cost, abs=1e-9)
        committed.clear()
        if not routed:
            return dense


@pytest.mark.parametrize(
    "workloads",
    [flow_workloads(), flow_workloads(max_events=14, max_users=20, min_events=10)],
    ids=["small", "10-14-events"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["max", "stop", "unit"]))
def test_dense_kernel_kept_state_matches_recomputation(workloads, data, mode):
    """After every augmentation the kept residual state is exact, and the
    10-14-event workloads (multi-row sweeps, events closing mid-run) still
    match the scalar reference bit for bit."""
    costs, cv, cu = data.draw(workloads, label="workload")
    dense = drive_checking_kept_state(costs, cv, cu, mode)
    reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
    if mode == "stop":
        reference.run(stop_cost=1.0 - 1e-12)
    else:
        reference.run()
    assert dense.total_cost == reference.total_cost
    assert np.array_equal(dense.flow, reference.flow)
    assert np.array_equal(dense._pot_v, np.asarray(reference._pot_v))
    assert np.array_equal(dense._pot_u, np.asarray(reference._pot_u))
    assert dense._pot_t == reference._pot_t


@pytest.mark.parametrize("mode", ["max", "stop", "unit"])
@pytest.mark.parametrize(
    "costs, cv, cu",
    [
        (np.zeros((0, 4)), np.zeros(0, int), np.ones(4, int)),  # no events
        (np.zeros((3, 0)), np.ones(3, int), np.zeros(0, int)),  # no users
        (np.full((3, 4), 0.5), np.zeros(3, int), np.zeros(4, int)),  # no capacity
        (np.full((3, 4), 0.5), np.zeros(3, int), np.ones(4, int)),  # closed events
        (
            np.array([[np.inf, 0.2, 0.7], [0.1, np.inf, np.inf], [0.3, 0.3, np.inf]]),
            np.array([2, 2, 1]),
            np.array([1, 2, 1]),
        ),  # +inf arcs are never routed
    ],
    ids=["0xn", "nx0", "zero-capacities", "closed-events", "inf-arcs"],
)
def test_dense_kernel_kept_state_edge_shapes(costs, cv, cu, mode):
    dense = drive_checking_kept_state(costs, cv, cu, mode)
    assert dense.exhausted or mode == "stop"
    assert not np.any(dense.flow & np.isinf(costs))
    reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
    reference.run()
    assert np.array_equal(dense.flow, reference.flow)
    assert dense.total_cost == reference.total_cost
