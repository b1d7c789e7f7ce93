"""Tests for the classical bipartite-matching substrate.

Cross-checked against networkx and against the GEACC solvers on the
conflict-free unit-capacity special case (the paper's Section I claim
that GEACC then reduces to weighted bipartite matching).
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.algorithms import ILPGEACC, MinCostFlowGEACC
from repro.core.model import Instance
from repro.matching import max_weight_matching, maximum_matching


class TestMaxWeightMatching:
    def test_hand_example(self):
        weights = np.array([[3.0, 1.0], [2.0, 4.0]])
        pairs, total = max_weight_matching(weights)
        assert pairs == [(0, 0), (1, 1)]
        assert total == pytest.approx(7.0)

    def test_prefers_leaving_unmatched_over_negative(self):
        weights = np.array([[-1.0, 2.0], [3.0, -5.0]])
        pairs, total = max_weight_matching(weights)
        assert pairs == [(0, 1), (1, 0)]
        assert total == pytest.approx(5.0)

    def test_all_nonpositive_yields_empty(self):
        pairs, total = max_weight_matching(np.array([[-1.0, 0.0]]))
        assert pairs == []
        assert total == 0.0

    def test_rectangular_matrices(self):
        weights = np.array([[5.0, 1.0, 2.0]])
        pairs, total = max_weight_matching(weights)
        assert pairs == [(0, 0)]
        assert total == pytest.approx(5.0)

    def test_empty(self):
        assert max_weight_matching(np.zeros((0, 3))) == ([], 0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.zeros(3))

    def test_is_a_matching(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            weights = rng.uniform(-1, 1, (6, 8))
            pairs, _ = max_weight_matching(weights)
            lefts = [i for i, _ in pairs]
            rights = [j for _, j in pairs]
            assert len(lefts) == len(set(lefts))
            assert len(rights) == len(set(rights))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        weights = np.round(rng.uniform(0, 1, (5, 7)), 3)
        _, total = max_weight_matching(weights)
        graph = nx.Graph()
        for i in range(5):
            for j in range(7):
                if weights[i, j] > 0:
                    graph.add_edge(("l", i), ("r", j), weight=weights[i, j])
        nx_pairs = nx.max_weight_matching(graph)
        nx_total = sum(graph[a][b]["weight"] for a, b in nx_pairs)
        assert total == pytest.approx(nx_total, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_geacc_special_case(self, seed):
        """Conflict-free, unit-capacity GEACC == max-weight matching."""
        rng = np.random.default_rng(seed + 50)
        sims = rng.uniform(0, 1, (5, 6))
        instance = Instance.from_matrix(
            sims, np.ones(5, dtype=int), np.ones(6, dtype=int)
        )
        _, matching_total = max_weight_matching(sims)
        mcf = MinCostFlowGEACC().solve(instance).max_sum()
        ilp = ILPGEACC().solve(instance).max_sum()
        assert mcf == pytest.approx(matching_total, abs=1e-9)
        assert ilp == pytest.approx(matching_total, abs=1e-6)


class TestHopcroftKarp:
    def test_perfect_matching(self):
        edges = [(0, 1), (1, 0), (2, 2)]
        assert maximum_matching(3, 3, edges) == [(0, 1), (1, 0), (2, 2)]

    def test_requires_augmenting_path(self):
        # Greedy left-to-right would match (0,0) and block vertex 1.
        edges = [(0, 0), (0, 1), (1, 0)]
        matching = maximum_matching(2, 2, edges)
        assert len(matching) == 2

    def test_empty_graph(self):
        assert maximum_matching(3, 3, []) == []

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            maximum_matching(2, 2, [(0, 5)])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_cardinality(self, seed):
        rng = np.random.default_rng(seed + 200)
        n_left, n_right = 8, 9
        edges = [
            (int(i), int(j))
            for i in range(n_left)
            for j in range(n_right)
            if rng.random() < 0.3
        ]
        ours = len(maximum_matching(n_left, n_right, edges))
        graph = nx.Graph()
        graph.add_nodes_from(("l", i) for i in range(n_left))
        graph.add_edges_from((("l", i), ("r", j)) for i, j in edges)
        expected = len(
            nx.bipartite.maximum_matching(
                graph, top_nodes=[("l", i) for i in range(n_left)]
            )
        ) // 2
        assert ours == expected

    def test_duplicate_edges_harmless(self):
        matching = maximum_matching(1, 1, [(0, 0), (0, 0)])
        assert matching == [(0, 0)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nan_or_inf_weight_is_rejected(bad):
    # Before NaN was rejected this matched left vertex 0 twice.
    with pytest.raises(ValueError, match=r"NaN or \+inf"):
        max_weight_matching(np.array([[0.3, 0.5], [0.2, bad]]))


def test_minus_inf_weight_never_matches():
    pairs, total = max_weight_matching(np.array([[-np.inf, 0.5], [0.4, 0.1]]))
    assert pairs == [(0, 1), (1, 0)]
    assert total == pytest.approx(0.9)
