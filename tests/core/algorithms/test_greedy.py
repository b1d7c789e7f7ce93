"""Tests for Greedy-GEACC (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.algorithms import GreedyGEACC, PruneGEACC
from repro.core.algorithms.neighbors import IndexNeighborOrders
from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from tests.conftest import random_matrix_instance


def test_feasible_on_small_instance(small_instance):
    arrangement = GreedyGEACC().solve(small_instance)
    validate_arrangement(arrangement)
    assert arrangement.max_sum() > 0


def test_deterministic(small_instance):
    a = GreedyGEACC().solve(small_instance)
    b = GreedyGEACC().solve(small_instance)
    assert a.pairs() == b.pairs()


def test_maximality_lemma5(small_instance):
    """Lemma 5: no unmatched positive-sim pair can still be added."""
    arrangement = GreedyGEACC().solve(small_instance)
    sims = small_instance.sims
    for v in range(small_instance.n_events):
        for u in range(small_instance.n_users):
            if (v, u) in arrangement or sims[v, u] <= 0:
                continue
            assert not arrangement.can_add(v, u), (
                f"pair ({v}, {u}) with sim {sims[v, u]} is still addable"
            )


def test_approximation_ratio_vs_exact():
    rng = np.random.default_rng(11)
    for _ in range(8):
        instance = random_matrix_instance(rng, 4, 7, max_cv=3, max_cu=3)
        greedy = GreedyGEACC().solve(instance).max_sum()
        optimum = PruneGEACC().solve(instance).max_sum()
        alpha = instance.max_user_capacity
        assert greedy >= optimum / (1 + alpha) - 1e-9


def test_no_conflicts_one_capacity_is_greedy_matching():
    """With c = 1 everywhere and no conflicts, GEACC is bipartite matching;
    greedy picks pairs in global similarity order."""
    sims = np.array([[0.9, 0.8], [0.85, 0.1]])
    instance = Instance.from_matrix(
        sims, np.array([1, 1]), np.array([1, 1])
    )
    arrangement = GreedyGEACC().solve(instance)
    # Greedy takes (0,0)=0.9 first, then (1,1)=0.1 (0.85 and 0.8 blocked).
    assert arrangement.pairs() == [(0, 0), (1, 1)]


def test_complete_conflicts_limits_users_to_one_event():
    rng = np.random.default_rng(3)
    sims = rng.random((4, 6))
    instance = Instance.from_matrix(
        sims,
        np.full(4, 3),
        np.full(6, 4),
        ConflictGraph.complete(4),
    )
    arrangement = GreedyGEACC().solve(instance)
    validate_arrangement(arrangement)
    for u in range(6):
        assert len(arrangement.events_of(u)) <= 1


def test_zero_similarity_pairs_never_matched():
    sims = np.array([[0.0, 0.0], [0.5, 0.0]])
    instance = Instance.from_matrix(sims, np.array([2, 2]), np.array([2, 2]))
    arrangement = GreedyGEACC().solve(instance)
    assert arrangement.pairs() == [(1, 0)]


def test_zero_capacity_nodes_ignored():
    sims = np.array([[0.9, 0.8], [0.7, 0.6]])
    instance = Instance.from_matrix(sims, np.array([0, 2]), np.array([1, 0]))
    arrangement = GreedyGEACC().solve(instance)
    validate_arrangement(arrangement)
    assert arrangement.pairs() == [(1, 0)]


def test_empty_instance():
    instance = Instance.from_matrix(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    arrangement = GreedyGEACC().solve(instance)
    assert len(arrangement) == 0


def test_index_backends_agree_with_matrix(medium_instance):
    reference = GreedyGEACC().solve(medium_instance).max_sum()
    for kind in ("linear", "chunked", "kdtree", "idistance"):
        config_instance = Instance.from_attributes(
            medium_instance.event_attributes,
            medium_instance.user_attributes,
            medium_instance.event_capacities,
            medium_instance.user_capacities,
            medium_instance.conflicts,
            t=medium_instance.t,
        )
        result = GreedyGEACC(index_kind=kind).solve(config_instance)
        validate_arrangement(result)
        assert result.max_sum() == pytest.approx(reference)


def test_index_orders_require_attributes(toy):
    with pytest.raises(ValueError, match="attribute-backed"):
        IndexNeighborOrders(toy)


def test_solve_with_explicit_orders(small_instance):
    """Accepting feasible pairs along the stable argsort of the flattened
    matrix is exactly what solve() returns."""
    sims = small_instance.sims
    arrangement = Arrangement(small_instance)
    for cell in np.argsort(-sims.ravel(), kind="stable"):
        v, u = divmod(int(cell), small_instance.n_users)
        if sims[v, u] > 0 and arrangement.can_add(v, u):
            arrangement.add(v, u)
    reference = GreedyGEACC().solve(small_instance)
    assert arrangement.pairs() == reference.pairs()


def test_respects_user_capacity_exactly():
    """A user with capacity 2 in a sea of great events gets exactly 2."""
    sims = np.full((5, 1), 0.9)
    instance = Instance.from_matrix(sims, np.ones(5, dtype=int), np.array([2]))
    arrangement = GreedyGEACC().solve(instance)
    assert len(arrangement.events_of(0)) == 2


# ----------------------------------------------------------------------
# _Cursor chunked stream pulls
# ----------------------------------------------------------------------


class _CountingStream:
    """A neighbour stream that counts how many items were pulled."""

    def __init__(self, items):
        self._items = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


def _cursor_on(items):
    from repro.core.algorithms.greedy import _Cursor

    stream = _CountingStream(items)
    no_counterpart_full = [1] * (1 + max(i for i, _ in items))
    return _Cursor(stream, no_counterpart_full), stream


def test_cursor_preserves_stream_order_across_chunks():
    items = [(i, 100.0 - i) for i in range(200)]
    cursor, _ = _cursor_on(items)
    seen = []
    while (candidate := cursor.peek()) is not None:
        seen.append(candidate)
        cursor.skip()
    assert seen == items
    assert cursor.done


def test_cursor_first_pull_is_a_single_item():
    # IndexNeighborOrders serves its first neighbour from one cheap
    # argmax and only argsorts when a second item is demanded; a first
    # pull larger than 1 would force that argsort for every node at
    # initialisation time.
    cursor, stream = _cursor_on([(i, 50.0 - i) for i in range(50)])
    assert cursor.peek() == (0, 50.0)
    assert stream.pulled == 1


def test_cursor_chunks_grow_geometrically_and_cap():
    from repro.core.algorithms.greedy import _Cursor

    items = [(i, 1000.0 - i) for i in range(1000)]
    cursor, stream = _cursor_on(items)
    pulls = []
    consumed = 0
    previous = 0
    while cursor.peek() is not None and consumed < 400:
        cursor.skip()
        consumed += 1
        if stream.pulled != previous:
            pulls.append(stream.pulled - previous)
            previous = stream.pulled
    assert pulls[:4] == [1, 4, 16, 64]
    assert all(size == _Cursor.CHUNK_CAP for size in pulls[4:])


def test_cursor_peek_holds_and_finish_releases():
    cursor, stream = _cursor_on([(7, 3.0), (8, 2.0)])
    assert cursor.peek() == (7, 3.0)
    assert cursor.peek() == (7, 3.0)  # holding, not advancing
    assert stream.pulled == 1
    cursor.finish()
    assert cursor.done
    assert cursor.peek() is None
    assert stream.pulled == 1  # a finished cursor never touches the stream


def test_cursor_steps_past_full_counterparts_but_not_a_held_candidate():
    from repro.core.algorithms.greedy import _Cursor

    left = [1, 0, 1, 0, 0, 1]
    cursor = _Cursor(iter([(i, 6.0 - i) for i in range(6)]), left)
    assert cursor.peek() == (0, 6.0)
    left[0] = 0  # the held candidate's counterpart fills: still held
    assert cursor.peek() == (0, 6.0)
    cursor.skip()
    assert cursor.peek() == (2, 4.0)  # 1 is full
    cursor.skip()
    assert cursor.peek() == (5, 1.0)  # 3 and 4 are full
    cursor.skip()
    assert cursor.peek() is None
    assert cursor.done


def tie_free_instance(seed: int) -> Instance:
    """Uniform attributes (similarities all distinct), conflicts, and
    event capacities small enough that events fill early."""
    rng = np.random.default_rng(seed)
    n_events, n_users = int(rng.integers(2, 12)), int(rng.integers(5, 60))
    return Instance.from_attributes(
        rng.uniform(0, 10, (n_events, 3)),
        rng.uniform(0, 10, (n_users, 3)),
        rng.integers(1, 4, n_events),
        rng.integers(1, 4, n_users),
        ConflictGraph.random(n_events, 0.3, rng),
        t=10.0,
    )


@pytest.mark.parametrize("kind", ["linear", "chunked", "kdtree"])
def test_heap_path_accepts_the_scans_pairs(kind):
    from repro.core.algorithms.greedy import _scan

    for seed in range(60):
        instance = tie_free_instance(seed)
        want = _scan(instance).pairs()
        got = GreedyGEACC(index_kind=kind).solve(instance).pairs()
        assert got == want, f"seed {seed}"
