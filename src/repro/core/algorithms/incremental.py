"""Online (incremental) arrangement -- a dynamic-EBSN extension.

The paper arranges a static snapshot; real EBSNs see users arrive over
time and want an assignment *at registration time*. This extension
processes users in arrival order: each arriving user immediately receives
their best feasible events (greedy by similarity, respecting remaining
event capacities and conflicts), and assignments are never revoked.

This is the natural online counterpart of Greedy-GEACC and gives a
measurable "price of online-ness": the ablation benchmark
(``benchmarks/test_ablation_online.py``) compares it against the offline
algorithms on identical instances.

:func:`fill_user` is the one arrival step: :class:`OnlineGreedyGEACC`
streams every user through it, and the dynamic-EBSN simulator
(:func:`repro.simulation.simulate`) calls it on each arrival with the
events open at that moment.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.algorithms.base import Solver, register_solver
from repro.core.model import Arrangement, Instance
from repro.exceptions import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.budget import Budget


def fill_user(
    arrangement: Arrangement, user: int, usable: np.ndarray | None = None
) -> list[int]:
    """Give ``user`` their most similar feasible events; returns them.

    Events are tried best first (ties by index) until the user's capacity
    is exhausted or no event with positive similarity remains; each is
    taken if :meth:`~repro.core.model.Arrangement.can_add` allows it.

    Args:
        usable: Optional boolean mask over events; events outside it
            (not yet posted, already frozen) are skipped.
    """
    sims = arrangement.instance.sim_col(user)
    assigned: list[int] = []
    for event in np.argsort(-sims, kind="stable"):
        event = int(event)
        if sims[event] <= 0 or arrangement.user_remaining(user) <= 0:
            break
        if (usable is None or usable[event]) and arrangement.can_add(event, user):
            arrangement.add(event, user)
            assigned.append(event)
    return assigned


@register_solver("online-greedy")
class OnlineGreedyGEACC(Solver):
    """Batch wrapper: stream all users through :func:`fill_user`.

    Args:
        arrival_order: Permutation of user indices (default: index
            order). Pass a shuffled order to study arrival-order
            sensitivity.
    """

    def __init__(self, arrival_order: Sequence[int] | None = None) -> None:
        if arrival_order is not None and len(set(arrival_order)) != len(arrival_order):
            raise ValueError("arrival_order lists a user who already arrived")
        self._arrival_order = arrival_order

    def solve(self, instance: Instance, budget: "Budget | None" = None) -> Arrangement:
        order = (
            self._arrival_order
            if self._arrival_order is not None
            else range(instance.n_users)
        )
        arrangement = Arrangement(instance)
        # One checkpoint per arrival; assignments are never revoked, so
        # on exhaustion the arrangement over the arrived prefix is the
        # (feasible) anytime answer.
        try:
            for user in order:
                if budget is not None:
                    budget.checkpoint()
                fill_user(arrangement, int(user))
        except BudgetExceededError:
            pass
        return arrangement
