"""Feasibility validation for arrangements (Definition 5's constraints).

Every algorithm's output, in every test and benchmark, passes through
:func:`validate_arrangement`. The checks are exactly the constraints of
the GEACC definition:

1. ``sim(l_v, l_u) > 0`` for every matched pair;
2. no event exceeds its capacity ``c_v``;
3. no user exceeds their capacity ``c_u``;
4. no user is matched to two conflicting events.

All of them run, as array code over the seat arrays, on every call. A
seat held twice is rejected first; otherwise the error names the first
violation met visiting events in ascending order (capacity, then each
seat's similarity by user), then users (capacity, then each pair of
their events).
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Arrangement, Instance, seat_order
from repro.exceptions import InfeasibleArrangementError


def validate_arrangement(arrangement: Arrangement, instance: Instance | None = None) -> None:
    """Raise :class:`InfeasibleArrangementError` on the first violation.

    Args:
        arrangement: The matching to check.
        instance: Optionally override the instance to validate against
            (defaults to ``arrangement.instance``).
    """
    instance = instance or arrangement.instance
    events, users = seat_order(*arrangement.seats())
    if not len(events):
        return
    twice = np.flatnonzero((events[1:] == events[:-1]) & (users[1:] == users[:-1]))
    if len(twice):
        at = twice[0]
        raise InfeasibleArrangementError(
            f"pair ({events[at]}, {users[at]}) is matched twice"
        )

    # Events: the first over capacity, against the first non-positive seat.
    attendees = np.bincount(events, minlength=instance.n_events)
    over = np.flatnonzero(attendees > instance.event_capacities)
    sims = instance.sims_of(events, users)
    bad = np.flatnonzero(sims <= 0)
    if len(over) and (not len(bad) or over[0] <= events[bad[0]]):
        event = over[0]
        raise InfeasibleArrangementError(
            f"event {event} has {attendees[event]} attendees, capacity "
            f"{instance.event_capacities[event]}"
        )
    if len(bad):
        at = bad[0]
        raise InfeasibleArrangementError(
            f"pair ({events[at]}, {users[at]}) matched with sim {float(sims[at])} <= 0"
        )

    # Users: the first over capacity, against the first conflicting pair
    # of events one user holds. Sorted by (user, event), a user's k-th
    # and (k+d)-th events sit d apart, the smaller first.
    users, events = seat_order(users, events)
    held = np.bincount(users, minlength=instance.n_users)
    over = np.flatnonzero(held > instance.user_capacities)
    clashes: list[tuple[int, int, int]] = []
    for d in range(1, int(held.max())):
        same = np.flatnonzero(users[d:] == users[:-d])
        keys = events[same] * instance.n_events + events[same + d]
        known = instance.conflicts.pair_keys()
        # A probe past the last key lands on the -1 sentinel: no match.
        hit = same[np.append(known, -1)[np.searchsorted(known, keys)] == keys]
        clashes += zip(users[hit].tolist(), events[hit].tolist(), events[hit + d].tolist())
    first = min(clashes, default=None)
    if len(over) and (first is None or over[0] <= first[0]):
        user = over[0]
        raise InfeasibleArrangementError(
            f"user {user} has {held[user]} events, capacity "
            f"{instance.user_capacities[user]}"
        )
    if first is not None:
        user, a, b = first
        raise InfeasibleArrangementError(
            f"user {user} matched to conflicting events {a} and {b}"
        )


def is_feasible(arrangement: Arrangement, instance: Instance | None = None) -> bool:
    """Boolean wrapper around :func:`validate_arrangement`."""
    try:
        validate_arrangement(arrangement, instance)
    except InfeasibleArrangementError:
        return False
    return True
