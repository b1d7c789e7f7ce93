"""Array keep-better equals the set-based specification.

``repro.service.engine._keep_better`` decides, per unit of user-linked
conflict clusters, whether the solved seats replace the standing ones.
It works on arrays; :func:`keep_better_sets` below is the set-and-
union-find formulation it replaced, kept here as the oracle. Both must
return the same :class:`~repro.service.store.Delta` and reject the same
clusters -- including users whose seats span several clusters (which
merge them into one unit) and units whose candidate sum is lower.

Similarities are quantised to quarters, so equal sums (which accept the
candidate) and exact losses are both routine.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflicts import DisjointSet
from repro.service.engine import _keep_better
from repro.service.store import Delta


def keep_better_sets(sims, clusters, standing, candidate):
    """The set-based keep-better: one union per seat, sums per unit root."""
    current = set(zip(standing[0].tolist(), standing[1].tolist()))
    solved = set(zip(candidate[0].tolist(), candidate[1].tolist()))
    if current == solved:
        return Delta(), []
    units = DisjointSet()
    anchor_of_user: dict[int, int] = {}
    for event, user in current | solved:
        name = int(clusters[event])
        units.union(name, int(clusters[anchor_of_user.setdefault(user, event)]))
    current_of: dict[int, set[tuple[int, int]]] = {}
    solved_of: dict[int, set[tuple[int, int]]] = {}
    for pair in current:
        current_of.setdefault(units.find(int(clusters[pair[0]])), set()).add(pair)
    for pair in solved:
        solved_of.setdefault(units.find(int(clusters[pair[0]])), set()).add(pair)
    assigns: list[tuple[int, int]] = []
    unassigns: list[tuple[int, int]] = []
    rejected: list[int] = []
    for root in sorted(set(current_of) | set(solved_of)):
        kept = current_of.get(root, set())
        chosen = solved_of.get(root, set())
        if kept == chosen:
            continue
        kept_sum = math.fsum(sims[e, u] for e, u in kept)
        solved_sum = math.fsum(sims[e, u] for e, u in chosen)
        if solved_sum < kept_sum:
            rejected.append(root)
            continue
        assigns.extend(chosen - kept)
        unassigns.extend(kept - chosen)
    if rejected:
        members = units.members()
        rejected = [name for root in rejected for name in members[root]]
    return (
        Delta(assigns=tuple(sorted(assigns)), unassigns=tuple(sorted(unassigns))),
        rejected,
    )


def _seats(draw, n_events: int, n_users: int, label: str):
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n_events - 1), st.integers(0, n_users - 1)),
            unique=True,
            max_size=n_events * n_users,
        ),
        label=label,
    )
    events = np.array([e for e, _ in cells], dtype=np.intp)
    users = np.array([u for _, u in cells], dtype=np.intp)
    return events, users


@st.composite
def keep_better_cases(draw):
    n_events = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, 6))
    # Clusters named by their smallest member, as the engine names them.
    labels = draw(st.lists(st.integers(0, 3), min_size=n_events, max_size=n_events))
    first = {}
    clusters = np.array(
        [first.setdefault(label, event) for event, label in enumerate(labels)],
        dtype=np.intp,
    )
    seed = draw(st.integers(0, 2**16))
    sims = np.random.default_rng(seed).integers(0, 5, (n_events, n_users)) * 0.25
    standing = _seats(draw, n_events, n_users, "standing")
    if draw(st.booleans(), label="candidate edits standing"):
        # Mostly the standing seats, some dropped and some added: the
        # shape a re-solve usually has, with unchanged units mixed in.
        keep = draw(
            st.lists(st.booleans(), min_size=len(standing[0]), max_size=len(standing[0]))
        )
        extra = _seats(draw, n_events, n_users, "extra")
        keys = set(
            zip(standing[0][np.array(keep, dtype=bool)].tolist(),
                standing[1][np.array(keep, dtype=bool)].tolist())
        ) | set(zip(extra[0].tolist(), extra[1].tolist()))
        candidate = (
            np.array([e for e, _ in sorted(keys)], dtype=np.intp),
            np.array([u for _, u in sorted(keys)], dtype=np.intp),
        )
    else:
        candidate = _seats(draw, n_events, n_users, "candidate")
    return sims, clusters, standing, candidate


@settings(max_examples=300, deadline=None)
@given(keep_better_cases())
def test_array_keep_better_matches_set_oracle(case):
    sims, clusters, standing, candidate = case
    delta, rejected = _keep_better(sims, clusters, standing, candidate)
    expected_delta, expected_rejected = keep_better_sets(*case)
    assert delta == expected_delta
    assert sorted(rejected) == sorted(expected_rejected)


def test_user_spanning_clusters_makes_one_unit_the_candidate_loses():
    # Events 0 and 1 are separate clusters, linked by user 0's seats. The
    # candidate wins in cluster 1 but loses more in cluster 0, so the
    # linked unit keeps all its standing seats; cluster 2 is independent
    # and its improvement is applied.
    sims = np.array([[0.9, 0.0], [0.1, 0.0], [0.0, 0.5], [0.0, 0.75]])
    clusters = np.array([0, 1, 2, 2], dtype=np.intp)
    standing = (np.array([0, 1, 2]), np.array([0, 0, 1]))
    candidate = (np.array([1, 3]), np.array([0, 1]))
    for rule in (_keep_better, keep_better_sets):
        delta, rejected = rule(sims, clusters, standing, candidate)
        assert delta == Delta(assigns=((3, 1),), unassigns=((2, 1),))
        assert sorted(rejected) == [0, 1]
