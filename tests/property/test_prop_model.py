"""Property-based tests of the Arrangement bookkeeping invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Arrangement, Instance
from repro.core.validation import is_feasible
from tests.property.strategies import tiny_instances


@settings(max_examples=40, deadline=None)
@given(tiny_instances(), st.lists(st.integers(0, 10_000), max_size=40))
def test_random_add_remove_keeps_books_consistent(instance, moves):
    """Apply a random feasible add/remove trace; bookkeeping must agree
    with a naive recomputation at every step."""
    arrangement = Arrangement(instance)
    shadow: set[tuple[int, int]] = set()
    for move in moves:
        v = move % instance.n_events
        u = (move // instance.n_events) % instance.n_users
        if (v, u) in shadow:
            arrangement.remove(v, u)
            shadow.discard((v, u))
        elif arrangement.can_add(v, u) and instance.sim(v, u) > 0:
            arrangement.add(v, u)
            shadow.add((v, u))
        # Invariants after every step:
        assert set(arrangement.pairs()) == shadow
        assert len(arrangement) == len(shadow)
        for event in range(instance.n_events):
            used = sum(1 for (e, _) in shadow if e == event)
            assert arrangement.event_remaining(event) == (
                instance.event_capacities[event] - used
            )
        for user in range(instance.n_users):
            used = sum(1 for (_, w) in shadow if w == user)
            assert arrangement.user_remaining(user) == (
                instance.user_capacities[user] - used
            )
    expected_sum = sum(instance.sim(v, u) for v, u in shadow)
    assert abs(arrangement.max_sum() - expected_sum) < 1e-9
    assert is_feasible(arrangement)


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_copy_preserves_and_isolates(instance):
    arrangement = Arrangement(instance)
    for v in range(instance.n_events):
        for u in range(instance.n_users):
            if instance.sim(v, u) > 0 and arrangement.can_add(v, u):
                arrangement.add(v, u)
                break
    clone = arrangement.copy()
    assert clone.pairs() == arrangement.pairs()
    assert abs(clone.max_sum() - arrangement.max_sum()) < 1e-12
    for v, u in list(clone.pairs()):
        clone.remove(v, u)
    assert len(clone) == 0
    assert len(arrangement) == len(arrangement.pairs())


@settings(max_examples=30, deadline=None)
@given(tiny_instances())
def test_can_add_iff_add_stays_feasible(instance):
    """can_add must exactly predict feasibility of the mutated state."""
    arrangement = Arrangement(instance)
    # Fill greedily by index order to create a non-trivial state.
    for v in range(instance.n_events):
        for u in range(instance.n_users):
            if instance.sim(v, u) > 0 and arrangement.can_add(v, u):
                arrangement.add(v, u)
    for v in range(instance.n_events):
        for u in range(instance.n_users):
            if instance.sim(v, u) <= 0 or (v, u) in arrangement:
                continue
            predicted = arrangement.can_add(v, u)
            arrangement.add(v, u)
            actually_feasible = is_feasible(arrangement)
            arrangement.remove(v, u)
            assert predicted == actually_feasible


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 4),
    st.sampled_from(["euclidean", "cosine", "dot"]),
    st.integers(0, 30),
)
def test_lazy_sims_of_is_bitwise_sim(seed, n_events, n_users, d, metric, n_pairs):
    """Without a matrix, ``sims_of`` equals ``[sim(e, u) ...]`` bit for bit
    on every metric, pairs in any order and repeated."""
    rng = np.random.default_rng(seed)
    events_attrs = rng.uniform(0, 10, (n_events, d))
    events_attrs[rng.random(n_events) < 0.2] = 0.0  # zero vectors (cosine)
    instance = Instance(
        np.ones(n_events, dtype=np.int64),
        np.ones(n_users, dtype=np.int64),
        event_attributes=events_attrs,
        user_attributes=rng.uniform(0, 10, (n_users, d)),
        t=10.0,
        metric=metric,
    )
    events = rng.integers(0, n_events, n_pairs)
    users = rng.integers(0, n_users, n_pairs)
    got = instance.sims_of(events, users)
    assert instance._sims is None  # still matrix-free
    expected = np.array([instance.sim(e, u) for e, u in zip(events.tolist(), users.tolist())])
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
