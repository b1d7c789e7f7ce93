"""MicroBatchEngine: batching, admission control, quality guarantees."""

import dataclasses
import threading
from pathlib import Path

import pytest

from repro.core.similarity import similarity_matrix
from repro.exceptions import ServiceError, ServiceOverloadedError
from repro.robustness.harness import solve_with_ladder
from repro.service import engine as engine_module
from repro.service import store as store_module
from repro.service.engine import MicroBatchEngine, PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.journal import replay
from repro.service.store import Delta, StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)


def sync_service(tmp_path: Path, **kwargs) -> ArrangementService:
    return ArrangementService.create(
        tmp_path / "j.jsonl", CONFIG, threaded=False, **kwargs
    )


def assignments_of(service: ArrangementService, user: int) -> tuple[int, ...]:
    """The user's standing events, ascending."""
    return tuple(sorted(service.store.events_of(user)))


def test_blocking_request_is_assigned(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        event = service.post_event(2, [1.0, 1.0])
        user = service.register_user(1, [1.5, 1.5])
        assert service.request_assignment(user) == (event,)
        assert assignments_of(service, user) == (event,)
        assert service.engine.batches_solved == 1


def test_burst_coalesces_into_one_batch_and_one_commit(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        service.post_event(4, [5.0, 5.0])
        requests = []
        for k in range(4):
            user = service.register_user(1, [4.0 + 0.5 * k, 5.0])
            request = service.request_assignment(user, wait=False)
            assert isinstance(request, PendingRequest)
            requests.append(request)
        seq_before = service.store.seq
        assert service.run_pending_batch() == 4
        assert service.engine.batches_solved == 1
        # One commit_batch record covers the whole burst.
        assert service.store.seq == seq_before + 1
        assert service.store.batches_committed == 1
        for request in requests:
            assert request.wait(1.0) == (0,)
            assert request.latency_s is not None and request.latency_s >= 0


def test_admission_control_rejects_before_journaling(tmp_path: Path) -> None:
    with sync_service(tmp_path, max_pending=1) as service:
        service.post_event(1, [1.0, 1.0])
        user = service.register_user(1, [1.0, 1.0])
        service.request_assignment(user, wait=False)
        seq_before = service.store.seq
        with pytest.raises(ServiceOverloadedError, match="queue full"):
            service.request_assignment(user, wait=False)
        assert service.store.seq == seq_before  # rejected pre-journal
        service.run_pending_batch()


def test_unassignable_request_commits_nothing(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        service.post_event(1, [0.0, 0.0])
        # Maximum distance in [0,10]^2 => sim exactly 0 => no pair.
        user = service.register_user(1, [10.0, 10.0])
        assert service.request_assignment(user) == ()
        assert service.store.batches_committed == 0
        assert service.engine.batches_solved == 1


def test_rebatching_may_reshuffle_open_seats_only(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        scarce = service.post_event(1, [5.0, 5.0])
        far = service.register_user(1, [8.0, 8.0])
        assert service.request_assignment(far) == (scarce,)
        # A better-matched user shows up: the engine may move the seat.
        near = service.register_user(1, [5.5, 5.5])
        assert service.request_assignment(near) == (scarce,)
        assert assignments_of(service, far) == ()
        service.check_invariants()


def test_frozen_events_are_untouchable(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        frozen = service.post_event(1, [5.0, 5.0])
        keeper = service.register_user(1, [8.0, 8.0])
        assert service.request_assignment(keeper) == (frozen,)
        service.freeze_event(frozen)
        # The perfectly-matched latecomer cannot displace the frozen seat.
        near = service.register_user(1, [5.0, 5.0])
        assert service.request_assignment(near) == ()
        assert assignments_of(service, keeper) == (frozen,)


def test_frozen_commitments_block_conflicting_open_events(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        first = service.post_event(1, [5.0, 5.0])
        user = service.register_user(2, [5.0, 5.0])
        assert service.request_assignment(user) == (first,)
        service.freeze_event(first)
        # An open event conflicting with the user's frozen commitment
        # must never be handed to them, however good the similarity.
        rival = service.post_event(1, [5.0, 5.0], conflicts=[first])
        assert service.request_assignment(user) == (first,)
        assert assignments_of(service, user) == (first,)
        service.check_invariants()


def test_quality_never_regresses_across_batches(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        service.post_event(2, [3.0, 3.0])
        service.post_event(2, [7.0, 7.0])
        best_so_far = 0.0
        for k in range(6):
            user = service.register_user(1, [2.0 + k, 8.0 - k])
            service.request_assignment(user)
            now = service.store.max_sum()
            assert now >= best_so_far - 1e-12
            best_so_far = now
        service.check_invariants()


def test_every_commit_is_replayable(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        service.post_event(2, [2.0, 2.0])
        service.post_event(1, [8.0, 8.0])
        for k in range(5):
            user = service.register_user(1, [1.0 + 2 * k, 9.0 - 2 * k])
            service.request_assignment(user)
        service.cancel_event(1)
        live = service.store.digest()
    recovered, _ = replay(tmp_path / "j.jsonl")
    assert recovered.digest() == live


def test_threaded_engine_serves_and_drains_on_close(tmp_path: Path) -> None:
    service = ArrangementService.create(
        tmp_path / "j.jsonl", CONFIG, threaded=True, batch_ms=1.0
    )
    with service:
        event = service.post_event(2, [1.0, 1.0])
        user = service.register_user(1, [1.0, 1.0])
        assert service.request_assignment(user, timeout=30.0) == (event,)
        straggler = service.register_user(1, [1.2, 1.2])
        request = service.request_assignment(straggler, wait=False)
    # close() stops the engine after one final batch: no lost requests.
    assert request.done
    with pytest.raises(ServiceError, match="closed"):
        service.post_event(1, [1.0, 1.0])


def test_threaded_engine_survives_a_failed_batch(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    failures = [RuntimeError("ladder blew up")]

    def fail_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return solve_with_ladder(*args, **kwargs)

    monkeypatch.setattr(engine_module, "solve_with_ladder", fail_once)
    service = ArrangementService.create(
        tmp_path / "j.jsonl", CONFIG, threaded=True, batch_ms=1.0
    )
    with service:
        event = service.post_event(2, [1.0, 1.0])
        first = service.register_user(1, [1.0, 1.0])
        with pytest.raises(RuntimeError, match="ladder blew up"):
            service.request_assignment(first, timeout=30.0)
        second = service.register_user(1, [1.2, 1.2])
        assert service.request_assignment(second, timeout=10.0) == (event,)


@pytest.mark.parametrize("command", ["post_event", "register_user"])
def test_concurrent_creations_get_distinct_ids(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, command: str
) -> None:
    # Thread A parks right after its command is journaled and applied;
    # this thread's command (B) lands in that gap. Each gets its own id.
    accepted, release = threading.Event(), threading.Event()
    ids: dict[str, int] = {}
    with sync_service(tmp_path) as service:
        accept = service._accept

        def parking_accept(cmd: str, args: dict) -> tuple[int, int]:
            result = accept(cmd, args)
            if not accepted.is_set():
                accepted.set()
                assert release.wait(timeout=30)
            return result

        monkeypatch.setattr(service, "_accept", parking_accept)

        def create(name: str) -> None:
            ids[name] = getattr(service, command)(capacity=1, attributes=[1.0, 1.0])

        first = threading.Thread(target=create, args=("A",))
        first.start()
        assert accepted.wait(timeout=30)
        create("B")
        release.set()
        first.join(timeout=30)
        assert not first.is_alive()
    assert ids == {"A": 0, "B": 1}


def test_engine_parameter_validation(tmp_path: Path) -> None:
    with sync_service(tmp_path) as service:
        with pytest.raises(ServiceError, match="batch_ms"):
            MicroBatchEngine(service, batch_ms=-1.0)
        with pytest.raises(ServiceError, match="solve_timeout"):
            MicroBatchEngine(service, solve_timeout=0.0)
        with pytest.raises(ServiceError, match="max_pending"):
            MicroBatchEngine(service, max_pending=0)


def test_store_journal_seq_mismatch_is_refused(tmp_path: Path) -> None:
    from repro.service.journal import Journal
    from repro.service.store import ArrangementStore

    journal = Journal.create(tmp_path / "j.jsonl", CONFIG)
    store = ArrangementStore(CONFIG)
    store.apply({"seq": 1, "cmd": "register_user", "capacity": 1,
                 "attributes": [1.0, 1.0]})
    with pytest.raises(ServiceError, match="does not match"):
        ArrangementService(store, journal, threaded=False)
    journal.close()


# ----------------------------------------------------------------------
# Scoped re-solves: each fallback to the full re-solve
# ----------------------------------------------------------------------


def recording(
    monkeypatch: pytest.MonkeyPatch, answer=solve_with_ladder
) -> list[tuple[int, int]]:
    """Record each batch instance's ``(|V|, |U|)``; ``answer`` solves it."""
    sizes: list[tuple[int, int]] = []

    def solve(instance, ladder, *, timeout=None):
        sizes.append((instance.n_events, instance.n_users))
        return answer(instance, ladder, timeout=timeout)

    monkeypatch.setattr(engine_module, "solve_with_ladder", solve)
    return sizes


def test_unsaturated_user_with_a_cross_similarity_refuses_the_scope(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    sizes = recording(monkeypatch)
    with sync_service(tmp_path) as service:
        home = service.post_event(1, [1.0, 1.0])
        hungry = service.register_user(2, [1.0, 1.0])
        assert service.request_assignment(hungry) == (home,)
        # A new, unrelated cluster: its scope alone would do, but the
        # hungry user has capacity left and likes it a little.
        far = service.post_event(1, [9.0, 9.0])
        local = service.register_user(1, [9.0, 9.0])
        assert service.request_assignment(local) == (far,)
        stats = service.engine.stats
        assert stats["scope_refused"] == 1 and stats["scoped"] == 0
        assert sizes == [(1, 1), (1, 1), (2, 2)]  # full, scoped, full again


def test_cross_similarity_equal_to_a_home_seat_refuses_the_scope(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    sizes = recording(monkeypatch)
    with sync_service(tmp_path) as service:
        left = service.post_event(1, [3.0, 5.0])
        right = service.post_event(1, [7.0, 5.0])
        torn = service.register_user(1, [5.0, 5.0])  # equidistant
        assert service.request_assignment(torn) == (left,)  # tie: lower id
        # ``right``'s cluster is the scope; ``torn`` is full, but its
        # best pair there ties its seat, so Greedy's order decides.
        fan = service.register_user(1, [7.0, 5.0])
        assert service.request_assignment(fan) == (right,)
        assert service.engine.stats["scope_refused"] == 1
        assert sizes[-1] == (2, 2)


def test_cluster_whose_keep_better_was_rejected_stays_dirty(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    sizes = recording(monkeypatch)
    with sync_service(tmp_path) as service:
        a = service.post_event(1, [2.0, 5.0])
        b = service.post_event(1, [4.0, 5.0], conflicts=[a])
        near = service.register_user(1, [2.9, 5.0])
        edge = service.register_user(1, [1.0, 5.0])
        # Seats better than Greedy's (which gives ``a`` to ``near``).
        service.commit_delta(Delta(assigns=((a, edge), (b, near))), users=[near, edge])
        service.post_event(1, [9.0, 9.0])
        corner = service.register_user(1, [9.0, 9.0])
        service.post_event(1, [1.0, 9.0])
        other = service.register_user(1, [1.0, 9.0])
        service.request_assignment(corner)  # first batch: full
        service.request_assignment(other)
        kept = service.store.pairs()
        assert (a, edge) in kept and (b, near) in kept  # Greedy rejected
        # Only ``corner`` asks again, yet the rejected cluster is
        # re-solved with it: its seats are not Greedy's.
        service.request_assignment(corner)
        assert service.engine.stats["scoped"] == 2
        assert sizes[-2:] == [(3, 3), (3, 3)]
        assert service.store.pairs() == kept


def test_lower_rung_batch_leaves_its_clusters_dirty(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    demote = [False]

    def answer(instance, ladder, *, timeout=None):
        result = solve_with_ladder(instance, ladder, timeout=timeout)
        if demote[0]:
            result = dataclasses.replace(result, solver=ladder[1])
        return result

    sizes = recording(monkeypatch, answer)
    with sync_service(tmp_path) as service:
        users = []
        for corner in ([1.0, 1.0], [9.0, 9.0], [1.0, 9.0]):
            service.post_event(1, corner)
            users.append(service.register_user(1, corner))
        for user in users:
            service.request_assignment(user)
        demote[0] = True
        service.request_assignment(users[0])  # answered by random-u's rung
        demote[0] = False
        service.request_assignment(users[1])
        assert sizes[-2:] == [(1, 1), (2, 2)]
        assert service.engine.stats["scoped"] == len(sizes) - 1


def test_first_batch_after_recover_is_full(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    with sync_service(tmp_path) as service:
        users = []
        for corner in ([1.0, 1.0], [9.0, 9.0], [1.0, 9.0]):
            service.post_event(1, corner)
            users.append(service.register_user(1, corner))
            service.request_assignment(users[-1])
        assert service.engine.stats["scoped"] == 2
    sizes = recording(monkeypatch)
    with ArrangementService.recover(tmp_path / "j.jsonl", threaded=False) as service:
        service.request_assignment(users[0])
        service.request_assignment(users[1])
        assert sizes == [(3, 3), (1, 1)]
        assert service.engine.stats["full"] == 1


def test_rows_do_not_recompute_past_the_old_row_cache_size(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    shapes: list[tuple[int, ...]] = []

    def spy(*args, **kwargs):
        result = similarity_matrix(*args, **kwargs)
        shapes.append(result.shape)
        return result

    with sync_service(tmp_path) as service:
        for k in range(300):
            service.post_event(1, [k / 30.0, 5.0])
        service.request_assignment(service.register_user(1, [1.0, 5.0]))
        monkeypatch.setattr(store_module, "similarity_matrix", spy)
        user = service.register_user(1, [2.0, 5.0])
        service.request_assignment(user)
        # One (300 x 1) tile for the new user; no row is recomputed.
        assert shapes == [(300, 1)]
