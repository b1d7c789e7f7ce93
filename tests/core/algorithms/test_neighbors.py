"""Tests for the descending orders and the index-backed neighbour streams."""

import numpy as np
import pytest

from repro.core.algorithms.neighbors import IndexNeighborOrders, neighbor_orders_for
from repro.robustness.budget import Budget
from repro.core.model import Instance


@pytest.fixture
def attribute_instance():
    rng = np.random.default_rng(8)
    return Instance.from_attributes(
        rng.uniform(0, 10, (6, 3)),
        rng.uniform(0, 10, (9, 3)),
        np.full(6, 2),
        np.full(9, 2),
        t=10.0,
    )


def _is_non_increasing(values):
    return all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestMatrixOrders:
    """Streams checked against one row or column of the similarity matrix."""

    def test_event_stream_order_and_coverage(self, attribute_instance):
        orders = IndexNeighborOrders(attribute_instance, "chunked")
        stream = list(orders.event_stream(2))
        assert len(stream) == attribute_instance.n_users
        assert {u for u, _ in stream} == set(range(attribute_instance.n_users))
        assert _is_non_increasing([s for _, s in stream])

    def test_user_stream_order(self, attribute_instance):
        column = attribute_instance.sims[:, 4]
        stream = list(IndexNeighborOrders(attribute_instance).user_stream(4))
        assert [v for v, _ in stream] == np.argsort(-column, kind="stable").tolist()

    def test_sims_match_instance(self, attribute_instance):
        for v, sim in IndexNeighborOrders(attribute_instance).user_stream(0):
            assert sim == attribute_instance.sims[v, 0]


class TestIndexOrders:
    @pytest.mark.parametrize("kind", ["linear", "chunked", "kdtree", "idistance"])
    def test_agrees_with_matrix(self, attribute_instance, kind):
        index = IndexNeighborOrders(attribute_instance, kind)
        for v in range(attribute_instance.n_events):
            row = attribute_instance.sims[v]
            matrix_sims = sorted(row.tolist())
            index_sims = sorted(round(s, 9) for _, s in index.event_stream(v))
            np.testing.assert_allclose(index_sims, matrix_sims, atol=1e-9)

    def test_user_stream_descending(self, attribute_instance):
        orders = IndexNeighborOrders(attribute_instance, "kdtree")
        stream = list(orders.user_stream(3))
        assert _is_non_increasing([s for _, s in stream])

    def test_requires_euclidean_metric(self):
        rng = np.random.default_rng(9)
        instance = Instance.from_attributes(
            rng.uniform(0, 1, (2, 2)),
            rng.uniform(0, 1, (3, 2)),
            np.ones(2),
            np.ones(3),
            t=1.0,
            metric="cosine",
        )
        with pytest.raises(ValueError, match="Euclidean"):
            IndexNeighborOrders(instance)


class TestAutoSelection:
    def test_small_instance_uses_matrix(self, attribute_instance):
        # None: Greedy scans the similarity matrix instead of streaming.
        assert neighbor_orders_for(attribute_instance) is None

    def test_forced_kind(self, attribute_instance):
        orders = neighbor_orders_for(attribute_instance, index_kind="kdtree")
        assert isinstance(orders, IndexNeighborOrders)

    def test_huge_lazy_instance_uses_index(self, monkeypatch):
        import repro.core.algorithms.neighbors as neighbors_module

        monkeypatch.setattr(neighbors_module, "_MATRIX_CELL_LIMIT", 10)
        rng = np.random.default_rng(10)
        instance = Instance.from_attributes(
            rng.uniform(0, 1, (4, 2)),
            rng.uniform(0, 1, (5, 2)),
            np.ones(4),
            np.ones(5),
            t=1.0,
        )
        orders = neighbor_orders_for(instance)
        assert isinstance(orders, IndexNeighborOrders)
        assert not instance.has_matrix


def grid_instance(values: np.ndarray) -> Instance:
    """One user at the origin and one event per value, at that distance:
    the user's similarities are ``1 - values``, ties and all."""
    n = values.shape[0]
    return Instance.from_attributes(
        values[:, None], np.zeros((1, 1)), np.ones(n), np.ones(1), t=1.0
    )


class TestChunkedStreams:
    """A user stream: its argmax, then one stable argsort served in slices."""

    def test_stream_is_exactly_stable_argsort_order(self):
        rng = np.random.default_rng(3)
        values = np.round(rng.random(200), 1)  # one-decimal grid: ties galore
        instance = grid_instance(values)
        sims = instance.sim_col(0)
        stream = list(IndexNeighborOrders(instance).user_stream(0))
        expected = [
            (int(i), float(sims[i]))
            for i in np.argsort(-sims, kind="stable")
        ]
        assert stream == expected

    def test_greedy_returns_partial_arrangement_on_exhaustion(
        self, attribute_instance
    ):
        from repro.core.algorithms import GreedyGEACC

        arrangement = GreedyGEACC().solve(
            attribute_instance, budget=Budget(deadline=0.0)
        )
        # Anytime semantics: exhaustion mid-generation yields the pairs
        # matched so far (possibly none), never an exception.
        assert arrangement.pairs() == []
