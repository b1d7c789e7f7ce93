"""The array validator against the set-based validator it replaced.

:func:`set_based_validate` is the validator as it was written over an
arrangement of per-event and per-user sets: events in ascending order
(capacity, then each seat's similarity), then users in ascending order
(capacity, then every pair of the user's events). It is kept here as
the oracle. On every arrangement without a repeated seat the array
validator must raise the same exception with the same message, or
neither must raise. A set cannot hold a seat twice, so the oracle never
sees one; the array validator rejects the smallest repeated seat first.

Users are kept below 8, so a frozenset of user ids iterates in
ascending order and the oracle's "first" seat is well defined.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from repro.exceptions import InfeasibleArrangementError

SIMS = (-0.5, 0.0, 0.25, 0.5, 1.0)


def set_based_validate(arrangement: Arrangement, instance: Instance | None = None) -> None:
    """The per-event, per-user validator the array code replaced."""
    instance = instance or arrangement.instance
    for event in range(instance.n_events):
        users = arrangement.users_of(event)
        if len(users) > instance.event_capacities[event]:
            raise InfeasibleArrangementError(
                f"event {event} has {len(users)} attendees, capacity "
                f"{instance.event_capacities[event]}"
            )
        for user in users:
            sim = instance.sim(event, user)
            if sim <= 0:
                raise InfeasibleArrangementError(
                    f"pair ({event}, {user}) matched with sim {sim} <= 0"
                )
    for user in range(instance.n_users):
        events = sorted(arrangement.events_of(user))
        if len(events) > instance.user_capacities[user]:
            raise InfeasibleArrangementError(
                f"user {user} has {len(events)} events, capacity "
                f"{instance.user_capacities[user]}"
            )
        for a in range(len(events)):
            for b in range(a + 1, len(events)):
                if instance.conflicts.are_conflicting(events[a], events[b]):
                    raise InfeasibleArrangementError(
                        f"user {user} matched to conflicting events "
                        f"{events[a]} and {events[b]}"
                    )


def outcome(check, arrangement: Arrangement) -> str | None:
    """The message ``check`` raises, or None when it passes."""
    try:
        check(arrangement)
    except InfeasibleArrangementError as exc:
        return str(exc)
    return None


@st.composite
def seated(draw):
    """An instance (non-positive sims allowed) and seats on it.

    Each drawn seat is either guarded (added only when positive and
    :meth:`Arrangement.can_add` allows it) or forced in unchecked, so
    the draws cover feasible arrangements and every kind of violation.
    """
    n_events = draw(st.integers(1, 5))
    n_users = draw(st.integers(1, 7))
    sims = np.array(
        draw(st.lists(st.sampled_from(SIMS), min_size=n_events * n_users,
                      max_size=n_events * n_users))
    ).reshape(n_events, n_users)
    capacities = st.integers(0, 3)
    pairs = [(a, b) for a in range(n_events) for b in range(a + 1, n_events)]
    instance = Instance(
        np.array(draw(st.lists(capacities, min_size=n_events, max_size=n_events))),
        np.array(draw(st.lists(capacities, min_size=n_users, max_size=n_users))),
        ConflictGraph(n_events, draw(st.lists(st.sampled_from(pairs), unique=True))
                      if pairs else []),
        sims=sims,
        validate=False,
    )
    seats = draw(st.lists(
        st.tuples(st.integers(0, n_events - 1), st.integers(0, n_users - 1),
                  st.booleans()),
        max_size=14,
    ))
    arrangement = Arrangement(instance)
    for event, user, guarded in seats:
        if not guarded or (sims[event, user] > 0 and arrangement.can_add(event, user)):
            arrangement.add(event, user)
    return arrangement


@settings(max_examples=400, deadline=None)
@given(arrangement=seated())
def test_array_validator_matches_the_set_based_oracle(arrangement):
    events, users = arrangement.seats()
    seats = list(zip(events.tolist(), users.tolist()))
    repeated = sorted({seat for seat in seats if seats.count(seat) > 1})
    if repeated:
        event, user = repeated[0]
        expected = f"pair ({event}, {user}) is matched twice"
    else:
        expected = outcome(set_based_validate, arrangement)
    assert outcome(validate_arrangement, arrangement) == expected


@pytest.fixture
def instance() -> Instance:
    sims = np.array([[0.9, 0.0, 0.5, 0.4], [0.4, 0.6, 0.7, 0.2], [0.3, 0.3, 0.3, 0.3]])
    return Instance.from_matrix(
        sims, np.array([1, 2, 3]), np.array([2, 1, 1, 3]),
        ConflictGraph(3, [(0, 1), (1, 2)]),
    )


@pytest.mark.parametrize(
    ("seats", "message"),
    [
        ([(0, 0), (1, 1)], None),
        ([(0, 0), (0, 2)], "event 0 has 2 attendees, capacity 1"),
        ([(0, 1)], "pair (0, 1) matched with sim 0.0 <= 0"),
        ([(1, 1), (2, 1)], "user 1 has 2 events, capacity 1"),
        ([(1, 3), (2, 3)], "user 3 matched to conflicting events 1 and 2"),
        ([(0, 3), (2, 3), (1, 3)], "user 3 matched to conflicting events 0 and 1"),
        ([(1, 0), (1, 0)], "pair (1, 0) is matched twice"),
        # A repeated seat is reported before any other violation ...
        ([(2, 3), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3)], "pair (2, 3) is matched twice"),
        # ... and every event check runs before any user check.
        ([(1, 3), (2, 3), (0, 1)], "pair (0, 1) matched with sim 0.0 <= 0"),
    ],
)
def test_each_violation_gets_the_oracle_message(instance, seats, message):
    arrangement = Arrangement(instance)
    for event, user in seats:
        arrangement.add(event, user)
    assert outcome(validate_arrangement, arrangement) == message
    if "twice" not in (message or ""):
        assert outcome(set_based_validate, arrangement) == message
