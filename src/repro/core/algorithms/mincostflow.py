"""MinCostFlow-GEACC (Algorithm 1).

Step 1 ignores conflicts: the relaxed GEACC instance (CF = empty) is a
minimum-cost-flow problem on the network of Fig. 1a -- source -> events
(capacity ``c_v``), complete bipartite events x users (capacity 1, cost
``1 - sim``), users -> sink (capacity ``c_u``). Sweeping the flow amount
Delta and keeping the matching with the largest MaxSum yields the optimal
conflict-free matching ``M_0`` (Lemma 1).

Step 2 repairs conflicts per user: among the events assigned to a user,
greedily keep the most similar event that does not conflict with the ones
already kept (a greedy maximum-weight independent set).

Guarantee: ``MaxSum(M) >= MaxSum(M_OPT) / max c_u`` (Theorem 2).

Because successive-shortest-path augmentations have non-decreasing unit
cost, ``MaxSum(M_0^Delta) = Delta - cost(Delta)`` is concave in Delta and
the sweep's argmax is the first Delta where the marginal path cost reaches
1. The default engine exploits this and stops there; ``full_sweep=True``
runs the literal Delta_min..Delta_max sweep of Algorithm 1 (the ablation
benchmark compares the two).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.algorithms.base import Solver, register_solver
from repro.core.model import Arrangement, Instance
from repro.exceptions import BudgetExceededError
from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.budget import Budget

_COST_EPS = 1e-12


@register_solver("mincostflow")
class MinCostFlowGEACC(Solver):
    """Algorithm 1 of the paper.

    The relaxation runs on :class:`~repro.flow.dense_bipartite.
    DenseBipartiteMinCostFlow`, a vectorised SSP specialised to the
    tripartite network (the tests cross-check it against the heap-based
    :mod:`repro.flow.sspa` solver on an explicit ``FlowNetwork``).

    Args:
        full_sweep: Run the literal Delta sweep to ``Delta_max`` instead
            of stopping at the concavity argmax. Same result, more work.
    """

    def __init__(self, full_sweep: bool = False) -> None:
        self._full_sweep = full_sweep

    def solve(self, instance: Instance, budget: "Budget | None" = None) -> Arrangement:
        relaxed_pairs = self.solve_relaxation(instance, budget)
        return self._resolve_conflicts(instance, relaxed_pairs)

    # ------------------------------------------------------------------
    # Step 1: optimal matching for the conflict-free relaxation
    # ------------------------------------------------------------------

    def solve_relaxation(
        self, instance: Instance, budget: "Budget | None" = None
    ) -> list[tuple[int, int]]:
        """Return ``M_0``: the optimal conflict-free matching's pairs.

        Only pairs with ``sim > 0`` are reported (flow routed through
        zero-similarity arcs pads Delta without contributing to MaxSum).

        Anytime: one budget checkpoint per Delta-sweep augmentation. On
        exhaustion the flow routed so far is returned -- a prefix of the
        sweep, i.e. the optimal conflict-free matching at a smaller
        Delta -- and step 2 repairs it into a feasible arrangement.
        """
        sims = instance.sims
        solver = DenseBipartiteMinCostFlow(
            1.0 - sims, instance.event_capacities, instance.user_capacities
        )
        try:
            # One unit per iteration (the per-Delta sweep of Algorithm 1)
            # so the budget is consulted between augmentations.
            while True:
                if budget is not None:
                    budget.checkpoint()
                if solver.run(amount=1, stop_cost=1.0 - _COST_EPS) == 0:
                    break
            if self._full_sweep:
                # Literal Algorithm 1: keep sweeping to Delta_max. Marginal
                # costs are non-decreasing, so every further unit has cost
                # >= 1 and cannot improve MaxSum; we verify that by tracking
                # the best prefix, which provably is where we already stopped.
                best_delta = solver.total_flow
                best_maxsum = best_delta - solver.total_cost
                while True:
                    if budget is not None:
                        budget.checkpoint()
                    cost = solver.augment()
                    if cost is None:
                        break
                    maxsum = solver.total_flow - solver.total_cost
                    if maxsum > best_maxsum + _COST_EPS:
                        best_maxsum = maxsum
                        best_delta = solver.total_flow
                if best_delta != solver.total_flow:
                    # Re-route exactly best_delta units on a fresh network.
                    solver = DenseBipartiteMinCostFlow(
                        1.0 - sims, instance.event_capacities, instance.user_capacities
                    )
                    solver.run(amount=best_delta)
        except BudgetExceededError:
            # The flow matrix after any whole augmentation is a valid
            # integral flow; fall through and report it.
            pass
        events, users = np.nonzero(solver.flow & (sims > 0))
        return list(zip(events.tolist(), users.tolist()))

    # ------------------------------------------------------------------
    # Step 2: per-user greedy conflict resolution (lines 8-14)
    # ------------------------------------------------------------------

    def _resolve_conflicts(
        self, instance: Instance, relaxed_pairs: list[tuple[int, int]]
    ) -> Arrangement:
        by_user: dict[int, list[int]] = {}
        for event, user in relaxed_pairs:
            by_user.setdefault(user, []).append(event)
        arrangement = Arrangement(instance)
        conflicts = instance.conflicts
        for user, events in by_user.items():
            # Non-increasing similarity, index tie-break for determinism.
            events.sort(key=lambda v: (-instance.sim(v, user), v))
            kept: list[int] = []
            for event in events:
                if not conflicts.conflicts_with_any(event, kept):
                    kept.append(event)
                    arrangement.add(event, user)
        return arrangement
