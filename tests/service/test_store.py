"""ArrangementStore: commands, deltas, invariants, canonical state."""

import numpy as np
import pytest

from repro.exceptions import JournalError, ServiceError
from repro.service.store import ArrangementStore, Delta, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


def fresh_store() -> ArrangementStore:
    return ArrangementStore(CONFIG)


def apply_next(store: ArrangementStore, cmd: str, **args) -> None:
    store.apply({"seq": store.seq + 1, "cmd": cmd, **args})


def commit_next(store: ArrangementStore, delta: Delta) -> None:
    """Apply ``delta`` the way the engine does: as a commit_batch record."""
    apply_next(store, "commit_batch", **delta.to_json(), users=[])


def populated_store() -> ArrangementStore:
    store = fresh_store()
    apply_next(store, "post_event", capacity=2, attributes=[1.0, 1.0])
    apply_next(store, "post_event", capacity=1, attributes=[9.0, 9.0], conflicts=[0])
    apply_next(store, "register_user", capacity=2, attributes=[1.5, 1.5])
    apply_next(store, "register_user", capacity=1, attributes=[8.5, 8.5])
    return store


def test_entities_accumulate_with_stable_ids() -> None:
    store = populated_store()
    assert store.n_events == 2
    assert store.n_users == 2
    assert store.seq == 4
    assert store.event_capacity(0) == 2
    assert store.user_capacity(1) == 1
    assert store.conflicts_between(0, 1) and store.conflicts_between(1, 0)
    assert store.open_events() == [0, 1]


def test_apply_rejects_out_of_order_seq() -> None:
    store = populated_store()
    with pytest.raises(JournalError, match="does not follow"):
        store.apply({"seq": store.seq + 2, "cmd": "request_assignment", "user": 0})
    with pytest.raises(JournalError, match="does not follow"):
        store.apply({"seq": store.seq, "cmd": "request_assignment", "user": 0})


def test_apply_rejects_unknown_command() -> None:
    store = populated_store()
    with pytest.raises(JournalError, match="unknown journal command"):
        store.apply({"seq": store.seq + 1, "cmd": "drop_table"})


def test_request_assignment_only_counts() -> None:
    store = populated_store()
    before = store.canonical_state()
    apply_next(store, "request_assignment", user=0)
    after = store.canonical_state()
    assert after["requests_seen"] == before["requests_seen"] + 1
    before["requests_seen"] = after["requests_seen"]
    before["seq"] = after["seq"]
    assert before == after  # nothing else moved


@pytest.mark.parametrize(
    "cmd,args,match",
    [
        ("post_event", {"capacity": -1, "attributes": [1.0, 1.0]}, "non-negative"),
        ("post_event", {"capacity": 1, "attributes": [1.0]}, "length-2"),
        ("post_event", {"capacity": 1, "attributes": [1.0, 99.0]}, "outside"),
        (
            "post_event",
            {"capacity": 1, "attributes": [1.0, float("nan")]},
            "finite",
        ),
        (
            "post_event",
            {"capacity": 1, "attributes": [1.0, 1.0], "conflicts": [7]},
            "unknown event",
        ),
        ("register_user", {"capacity": "2", "attributes": [1.0, 1.0]}, "capacity"),
        ("request_assignment", {"user": 99}, "unknown user"),
        ("request_assignment", {"user": "0"}, "unknown user"),
        ("freeze_event", {"event": 99}, "unknown event"),
        ("definitely_not_a_command", {}, "unknown command"),
    ],
)
def test_validate_command_rejects_bad_input(cmd: str, args: dict, match: str) -> None:
    store = populated_store()
    with pytest.raises(ServiceError, match=match):
        store.validate_command(cmd, args)


def test_lifecycle_transitions_are_guarded() -> None:
    store = populated_store()
    apply_next(store, "cancel_event", event=1)
    with pytest.raises(ServiceError, match="cancelled"):
        store.validate_command("freeze_event", {"event": 1})
    with pytest.raises(ServiceError, match="already cancelled"):
        store.validate_command("cancel_event", {"event": 1})
    apply_next(store, "freeze_event", event=0)
    with pytest.raises(ServiceError, match="frozen"):
        store.validate_command("cancel_event", {"event": 0})


def test_delta_apply_revert_roundtrip() -> None:
    store = populated_store()
    before = store.arrangement_digest()
    assigns = ((0, 0), (1, 1))
    commit_next(store, Delta(assigns=assigns))
    assert store.events_of(0) == {0}
    assert store.event_remaining(0) == 1
    assert store.user_remaining(1) == 0
    assert store.n_assignments == 2
    assert store.batches_committed == 1
    # The inverse batch (the same pairs unassigned) restores every seat
    # and capacity; only the journal counters moved on.
    commit_next(store, Delta(unassigns=assigns))
    assert store.n_assignments == 0
    assert store.batches_committed == 2
    assert store.arrangement_digest() == before
    store.check_invariants()


def test_infeasible_delta_rolls_back_cleanly() -> None:
    store = populated_store()
    commit_next(store, Delta(assigns=((0, 0),)))
    before = store.digest()
    # Second assign conflicts with user 0's standing event 0: the first
    # (feasible) assign of the batch must be rolled back too, and the
    # record must not count as applied.
    with pytest.raises(JournalError, match=r"delta assign \(1, 0\) is infeasible"):
        commit_next(store, Delta(assigns=((1, 1), (1, 0))))
    assert store.digest() == before
    store.check_invariants()


def test_half_applied_unassigns_roll_back_cleanly() -> None:
    store = populated_store()
    commit_next(store, Delta(assigns=((0, 0), (1, 1))))
    before = store.digest()
    # Both unassigns and the first assign land; the second assign, onto
    # event 1 (capacity 1, just re-seated by user 1), fails.
    with pytest.raises(JournalError, match="infeasible"):
        commit_next(
            store,
            Delta(unassigns=((0, 0), (1, 1)), assigns=((1, 1), (1, 0))),
        )
    assert store.digest() == before
    assert sorted(store.pairs()) == [(0, 0), (1, 1)]
    store.check_invariants()


def test_delta_unassign_of_unmatched_pair_is_rejected() -> None:
    store = populated_store()
    before = store.digest()
    with pytest.raises(JournalError, match=r"unassigns unmatched pair \(0, 0\)"):
        commit_next(store, Delta(unassigns=((0, 0),)))
    assert store.digest() == before


@pytest.mark.parametrize(
    "delta,match",
    [
        (Delta(unassigns=((0, 9),)), r"unknown pair \(0, 9\)"),
        (Delta(assigns=((7, 0),)), r"unknown pair \(7, 0\)"),
        (Delta(assigns=((0, 0), (0, 0))), r"delta assign \(0, 0\) is infeasible"),
    ],
)
def test_delta_that_does_not_fit_is_rejected(delta: Delta, match: str) -> None:
    store = populated_store()
    before = store.digest()
    with pytest.raises(JournalError, match=match):
        commit_next(store, delta)
    assert store.digest() == before


def test_delta_edits_of_non_open_events_are_rejected() -> None:
    store = populated_store()
    commit_next(store, Delta(assigns=((0, 0),)))
    apply_next(store, "freeze_event", event=0)
    with pytest.raises(JournalError, match="non-open event 0"):
        commit_next(store, Delta(unassigns=((0, 0),)))
    with pytest.raises(JournalError, match=r"delta assign \(0, 1\) is infeasible"):
        commit_next(store, Delta(assigns=((0, 1),)))


def test_cancel_releases_every_seat() -> None:
    store = populated_store()
    commit_next(store, Delta(assigns=((0, 0),)))
    apply_next(store, "cancel_event", event=0)
    assert store.is_cancelled(0)
    assert store.events_of(0) == frozenset()
    assert store.user_remaining(0) == 2
    assert store.n_assignments == 0
    store.check_invariants()


def test_can_assign_enforces_every_guard() -> None:
    store = populated_store()
    assert store.can_assign(0, 0)
    assert not store.can_assign(5, 0)  # unknown event
    commit_next(store, Delta(assigns=((0, 0),)))
    assert not store.can_assign(0, 0)  # already matched
    assert not store.can_assign(1, 0)  # conflicts with standing event 0
    apply_next(store, "freeze_event", event=1)
    assert not store.can_assign(1, 1)  # frozen


def test_sim_matches_eq1_formula() -> None:
    store = populated_store()
    # Eq. (1): 1 - ||lv - lu|| / sqrt(d * T^2), d=2, T=10.
    expected = 1.0 - np.hypot(0.5, 0.5) / np.sqrt(2 * 10.0**2)
    assert store.sim(0, 0) == pytest.approx(expected)
    row = store.sim_row(0)
    assert row[0] == pytest.approx(expected)


def test_snapshot_zeroes_cancelled_capacity() -> None:
    store = populated_store()
    apply_next(store, "cancel_event", event=1)
    instance = store.snapshot_instance()
    assert instance.n_events == 2  # slot kept, id space stable
    assert instance.event_capacities[1] == 0
    assert instance.conflicts.pairs == frozenset({(0, 1)})


def test_invariant_checker_catches_counter_drift() -> None:
    store = populated_store()
    commit_next(store, Delta(assigns=((0, 0),)))
    store.check_invariants()
    store._event_remaining[0] += 1
    with pytest.raises(ServiceError, match="drift"):
        store.check_invariants()


def test_same_records_mean_equal_stores() -> None:
    a, b = populated_store(), populated_store()
    assert a == b
    assert a.digest() == b.digest()
    apply_next(a, "request_assignment", user=0)
    assert a != b
    assert a.digest() != b.digest()


def test_stores_are_unhashable() -> None:
    with pytest.raises(TypeError):
        hash(populated_store())


def test_config_round_trip_and_validation() -> None:
    assert StoreConfig.from_json(CONFIG.to_json()) == CONFIG
    with pytest.raises(JournalError, match="malformed"):
        StoreConfig.from_json({"dimension": "wide"})
    with pytest.raises(ServiceError, match="dimension"):
        StoreConfig(dimension=0)
    with pytest.raises(ServiceError, match="bound t"):
        StoreConfig(dimension=2, t=0.0)
    for metric in ("dot", "bogus"):
        with pytest.raises(ServiceError, match=f"metric '{metric}'"):
            StoreConfig(dimension=2, metric=metric)
    # A header naming ``dot`` (as older service journals may) is refused
    # as a journal fault, and the message names the metric.
    with pytest.raises(JournalError, match="metric 'dot'"):
        StoreConfig.from_json({"dimension": 2, "t": 10.0, "metric": "dot"})


def test_delta_json_round_trip() -> None:
    delta = Delta(assigns=((0, 1), (2, 3)), unassigns=((4, 5),))
    assert Delta.from_json(delta.to_json()) == delta
    assert not Delta()
    with pytest.raises(JournalError, match="malformed delta"):
        Delta.from_json({"assign": [["x", "y"]]})


def test_max_sum_is_one_summation_order() -> None:
    # A few seats per event among thousands of user ids, applied in
    # shuffled order: a set of those ids iterates far from ascending. The
    # store and its batch snapshot must still sum the same seats in the
    # same (ascending) order, bit for bit.
    rng = np.random.default_rng(1)
    store = fresh_store()
    for _ in range(6):
        apply_next(store, "post_event", capacity=3000, attributes=rng.uniform(0, 10, 2).tolist())
    for _ in range(3000):
        apply_next(store, "register_user", capacity=6, attributes=rng.uniform(0, 10, 2).tolist())
    seats = [(e, u) for e in range(6) for u in range(3000) if rng.random() < 0.02]
    rng.shuffle(seats)
    commit_next(store, Delta(assigns=tuple((int(e), int(u)) for e, u in seats)))
    sims = store.similarities()
    expected = 0.0
    for event, user in store.pairs():
        expected += float(sims[event, user])
    assert store.max_sum() == expected
    assert store.snapshot_arrangement().max_sum() == expected
