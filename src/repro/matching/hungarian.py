"""Maximum-weight bipartite matching via shortest augmenting paths.

Solves ``max sum w[i, j] x[i, j]`` over matchings of a (possibly
rectangular) weight matrix, where vertices may stay unmatched -- the
classical problem the paper cites as the conflict-free, unit-capacity
special case of GEACC.

Implementation: the assignment network with unit capacities and costs
``max_w - w`` is handed to the dense successive-shortest-paths solver
(:class:`repro.flow.dense_bipartite.DenseBipartiteMinCostFlow`, the same
engine behind MinCostFlow-GEACC). Successive augmenting-path costs are
non-decreasing, so the maximum-*weight* (not necessarily
maximum-cardinality) matching is reached exactly when the next path would
cost ``>= max_w``, i.e. add non-positive weight. This is the Hungarian
algorithm in its successive-shortest-path (Jonker-Volgenant) form.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow

_EPS = 1e-12


def max_weight_matching(weights: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Maximum-weight matching of a bipartite graph.

    Args:
        weights: ``(n_left, n_right)`` weight matrix. Pairs with weight
            <= 0 are never part of the reported matching (they can never
            increase the total); ``-inf`` marks a pair that can never
            match. NaN and ``+inf`` weights are rejected.

    Returns:
        ``(pairs, total)`` -- matched ``(left, right)`` pairs sorted by
        left index, and the sum of their weights.

    Raises:
        ValueError: On a non-2-D matrix or a NaN or ``+inf`` weight.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if np.isnan(weights).any() or np.isposinf(weights).any():
        raise ValueError("weights must not contain NaN or +inf")
    n_left, n_right = weights.shape
    if n_left == 0 or n_right == 0:
        return [], 0.0
    peak = float(weights.max())
    if peak <= 0:
        return [], 0.0

    solver = DenseBipartiteMinCostFlow(
        peak - weights,
        np.ones(n_left, dtype=np.int64),
        np.ones(n_right, dtype=np.int64),
    )
    # Each unit of flow adds weight (peak - path_cost); stop when the
    # marginal weight would be <= 0.
    solver.run(stop_cost=peak - _EPS)
    lefts, rights = np.nonzero(solver.flow & (weights > 0))
    pairs = sorted(zip(lefts.tolist(), rights.tolist()))
    total = float(sum(weights[i, j] for i, j in pairs))
    return pairs, total
