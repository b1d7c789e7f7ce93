"""Discrete-event simulator for the EBSN arrangement lifecycle.

:func:`simulate` walks :meth:`Timeline.moments
<repro.simulation.workload.Timeline.moments>` over a GEACC instance.
Three kinds of moments exist:

* **event posted** -- the event becomes *open* (assignable) and is
  offered to already-arrived users, most interested first;
* **user arrives** -- the user receives their best feasible open events
  (:func:`~repro.core.algorithms.incremental.fill_user`);
* **event starts** -- the event *freezes*: its attendee list at that
  instant is final and contributes to the achieved MaxSum.

Seats are only ever given between open events and arrived users, and
seats at frozen events are never revoked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import Solver, get_solver
from repro.core.algorithms.incremental import fill_user
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from repro.simulation.workload import ARRIVE, POST, Timeline


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run."""

    achieved_max_sum: float
    arrangement: Arrangement
    n_assignments: int
    events_frozen: int
    timeline_horizon: float
    policy_name: str
    #: Re-arrangements of the open sub-problem (one per freeze under
    #: ``rebatch``, else 0).
    rebatches: int = 0

    def summary(self) -> str:
        return (
            f"policy={self.policy_name}: MaxSum={self.achieved_max_sum:.3f}, "
            f"{self.n_assignments} assignments, "
            f"{self.events_frozen} events frozen by t={self.timeline_horizon:.1f}"
        )


def simulate(
    instance: Instance, timeline: Timeline, rebatch: Solver | str | None = None
) -> SimulationResult:
    """Replay ``timeline`` over ``instance`` and score the outcome.

    Without ``rebatch`` this is first-come-first-served (policy
    ``greedy-arrival``): seats are given at arrivals and posts and never
    moved. With ``rebatch`` (a solver or registry name; policy
    ``rebatch``), just before each event freezes -- the last moment a
    better arrangement still matters for it -- every seat at an open
    event is torn down and the open sub-problem is re-solved from
    scratch, honouring frozen seats (see :func:`_open_subproblem`).

    The final arrangement is validated against the full instance before
    scoring.
    """
    timeline.validate_against(instance)
    solver = get_solver(rebatch) if isinstance(rebatch, str) else rebatch
    arrangement = Arrangement(instance)
    open_events = np.zeros(instance.n_events, dtype=bool)
    frozen = np.zeros(instance.n_events, dtype=bool)
    arrived = np.zeros(instance.n_users, dtype=bool)
    rebatches = 0
    for _, kind, entity in timeline.moments():
        if kind == POST:
            open_events[entity] = True
            # Offer the new event to already-arrived users, most
            # interested first (ties by index), while seats allow.
            sims = instance.sim_row(entity)
            users = np.flatnonzero(arrived)
            for user in users[np.argsort(-sims[users], kind="stable")]:
                user = int(user)
                if arrangement.event_remaining(entity) <= 0:
                    break
                if sims[user] > 0 and arrangement.can_add(entity, user):
                    arrangement.add(entity, user)
        elif kind == ARRIVE:
            arrived[entity] = True
            fill_user(arrangement, entity, usable=open_events)
        else:
            if solver is not None:
                # Keep only the frozen seats, then re-solve the open part.
                events, users = arrangement.seats()
                kept = ~open_events[events]
                arrangement = Arrangement(instance)
                arrangement.extend(events[kept], users[kept])
                sub_instance = _open_subproblem(
                    arrangement, open_events, frozen, arrived
                )
                arrangement.extend(*solver.solve(sub_instance).seats())
                rebatches += 1
            open_events[entity] = False
            frozen[entity] = True

    validate_arrangement(arrangement)
    return SimulationResult(
        achieved_max_sum=arrangement.max_sum(),
        arrangement=arrangement,
        n_assignments=len(arrangement),
        events_frozen=int(frozen.sum()),
        timeline_horizon=timeline.horizon,
        policy_name="greedy-arrival" if solver is None else "rebatch",
        rebatches=rebatches,
    )


def _open_subproblem(
    arrangement: Arrangement,
    open_events: np.ndarray,
    frozen: np.ndarray,
    arrived: np.ndarray,
) -> Instance:
    """The instance a rebatch solves, given only frozen seats are held.

    Same events, users and conflicts as the full instance. A pair keeps
    its similarity only if its event is open, its user has arrived, and
    none of the user's frozen seats conflicts with the event; every
    other pair is 0. Events that are not open get capacity 0, and users
    keep the capacity their frozen seats leave.
    """
    instance = arrangement.instance
    conflicts = instance.conflicts
    blocked = np.zeros((instance.n_events, instance.n_users), dtype=bool)
    held = np.zeros(instance.n_users, dtype=np.int64)
    for event in np.flatnonzero(frozen):
        users = sorted(arrangement.users_of(event))
        held[users] += 1
        blocked[np.ix_(sorted(conflicts.conflicts_with(event)), users)] = True
    sims = np.zeros((instance.n_events, instance.n_users))
    for event in np.flatnonzero(open_events):
        row = instance.sim_row(event)
        usable = arrived & ~blocked[event] & (row > 0)
        sims[event, usable] = row[usable]
    return Instance(
        np.where(open_events, instance.event_capacities, 0),
        instance.user_capacities - held,
        conflicts,
        sims=sims,
    )
