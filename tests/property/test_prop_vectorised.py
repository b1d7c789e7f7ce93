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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.neighbors import _chunked_descending
from repro.core.similarity import (
    similarity_matrix,
    similarity_tiles,
    top_k_descending,
)
from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow
from repro.flow.reference import ReferenceBipartiteMinCostFlow
from repro.service.store import ArrangementStore, StoreConfig

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
@given(tied_values())
def test_chunked_stream_is_exactly_stable_argsort_order(values):
    stream = list(_chunked_descending(values))
    expected = [
        (int(i), float(values[i]))
        for i in np.argsort(-values, kind="stable")
    ]
    assert stream == expected


@st.composite
def flow_workloads(draw, max_events: int = 5, max_users: int = 7):
    seed = draw(st.integers(0, 2**16))
    n_events = draw(st.integers(1, max_events))
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
