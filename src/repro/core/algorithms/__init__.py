"""GEACC solvers.

* :class:`~repro.core.algorithms.greedy.GreedyGEACC` -- Algorithm 2,
  ``1/(1 + max c_u)``-approximation, the paper's recommended method.
* :class:`~repro.core.algorithms.mincostflow.MinCostFlowGEACC` --
  Algorithm 1, ``1/max c_u``-approximation via a min-cost-flow sweep.
* :class:`~repro.core.algorithms.prune.PruneGEACC` -- Algorithms 3-4,
  exact branch-and-bound with the Lemma 6 pruning rule.
* :class:`~repro.core.algorithms.prune.ExhaustiveGEACC` -- the same
  search with pruning disabled (the Fig. 6 baseline).
* :class:`~repro.core.algorithms.random_baselines.RandomV` /
  :class:`~repro.core.algorithms.random_baselines.RandomU` -- the
  Section V random baselines.
* :class:`~repro.core.algorithms.local_search.LocalSearchGEACC` -- an
  extension: swap-based post-improvement over any base solver.

Use :func:`get_solver` / :data:`SOLVERS` to address solvers by name (the
experiment harness and CLI do).
"""

from repro.core.algorithms.base import SOLVERS, Solver, get_solver, register_solver
from repro.core.algorithms.greedy import GreedyGEACC
from repro.core.algorithms.mincostflow import MinCostFlowGEACC
from repro.core.algorithms.prune import ExhaustiveGEACC, PruneGEACC, SearchStats
from repro.core.algorithms.random_baselines import RandomU, RandomV
from repro.core.algorithms.local_search import LocalSearchGEACC
from repro.core.algorithms.incremental import OnlineGreedyGEACC, fill_user
from repro.core.algorithms.ilp import ILPGEACC
from repro.core.algorithms.fair_greedy import FairGreedyGEACC

__all__ = [
    "SOLVERS",
    "Solver",
    "get_solver",
    "register_solver",
    "GreedyGEACC",
    "MinCostFlowGEACC",
    "PruneGEACC",
    "ExhaustiveGEACC",
    "SearchStats",
    "RandomV",
    "RandomU",
    "LocalSearchGEACC",
    "OnlineGreedyGEACC",
    "fill_user",
    "ILPGEACC",
    "FairGreedyGEACC",
]
