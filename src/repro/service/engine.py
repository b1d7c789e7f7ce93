"""The micro-batching arrangement engine.

Assignment requests do not each pay for a solve: they queue, and every
``batch_ms`` the engine drains the queue and re-solves the *un-frozen
remainder* of the live instance in one shot -- the simulator's rebatch
(:func:`~repro.simulation.simulate`) applied at batch granularity,
under a :class:`~repro.robustness.budget.Budget` with the fixed
degradation ladder :data:`BATCH_LADDER`
(:func:`repro.robustness.harness.solve_with_ladder`) as the deadline
fallback. The solved arrangement is compared against the
standing one and committed only if it is at least as good, as a
journaled ``commit_batch`` delta -- so replay never re-solves anything
and the recovered state is independent of batch boundaries.

Only the conflict clusters a batch changed are re-solved, with a
per-batch proof that the result equals re-solving everything (see
:meth:`MicroBatchEngine._solve_open_remainder`); a batch that cannot
prove it re-solves everything.

Admission control: the pending queue is bounded. A full queue rejects
with :class:`~repro.exceptions.ServiceOverloadedError` *before* anything
is journaled -- the service degrades by shedding load explicitly, never
by stalling every in-flight request behind an unbounded backlog.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
import weakref
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.conflicts import DisjointSet
from repro.core.model import Instance
from repro.exceptions import ServiceError, ServiceOverloadedError
from repro.robustness.harness import SolveResult, solve_with_ladder
from repro.robustness.outcome import Outcome
from repro.service.remainder import OpenRemainder
from repro.service.store import ArrangementStore, Delta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.frontend import ArrangementService


#: Default micro-batch coalescing window.
DEFAULT_BATCH_MS = 25.0

#: Default per-batch solve deadline (seconds).
DEFAULT_SOLVE_TIMEOUT = 0.25

#: Default admission-control bound on queued assignment requests.
DEFAULT_MAX_PENDING = 1024

#: The degradation ladder of every batch solve: Greedy-GEACC first (its
#: one global similarity order is what lets a batch re-solve only the
#: clusters it changed), the cheapest feasible answer as the floor.
BATCH_LADDER: tuple[str, ...] = ("greedy", "random-u")

#: Counters of :attr:`MicroBatchEngine.stats` (the ``engine`` block).
_STAT_KEYS = ("batches", "scoped", "full", "scope_refused")


class PendingRequest:
    """One queued assignment request: a tiny single-use future.

    The engine resolves it with the user's standing event list after
    the batch containing it commits; :attr:`latency_s` is the submit ->
    resolve wall time (what ``geacc replay`` aggregates into
    percentiles). A shard sets :attr:`global_ids`, its local -> global
    event map, so :meth:`wait` answers in the fleet's ids.
    """

    __slots__ = (
        "user", "submitted_at", "resolved_at", "events", "error", "global_ids", "_done"
    )

    def __init__(self, user: int) -> None:
        self.user = user
        self.submitted_at = time.perf_counter()
        self.resolved_at: float | None = None
        self.events: tuple[int, ...] | None = None
        self.error: Exception | None = None
        self.global_ids: Sequence[int] | None = None
        self._done = threading.Event()

    def resolve(self, events: tuple[int, ...]) -> None:
        self.events = events
        self.resolved_at = time.perf_counter()
        self._done.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.resolved_at = time.perf_counter()
        self._done.set()

    def wait(self, timeout: float | None = None) -> tuple[int, ...]:
        """Block until the batch commits; returns the assigned events."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"assignment request for user {self.user} still pending "
                f"after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.events is not None
        if self.global_ids is None:
            return self.events
        return tuple(sorted(self.global_ids[e] for e in self.events))

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_s(self) -> float | None:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at


class MicroBatchEngine:
    """Coalesces pending requests and re-solves what they changed.

    Each batch re-solves the *scope* -- the clusters (conflict
    components merged through users' seats) holding a change since the
    last batch, a dirty event, or the best open event of a user who
    arrived, asked or lost a seat -- with :data:`BATCH_LADDER`, and
    checks that the full Greedy re-solve would have accepted no pair
    across the scope's border. If the check fails, the batch re-solves
    every open event. A cluster stays dirty until its seats equal a
    Greedy ``optimal`` candidate. :attr:`stats` counts scoped, full and
    refused batches.

    Args:
        service: The owning :class:`~repro.service.frontend.
            ArrangementService` (holds the store, journal and state
            lock; the engine journals its commits through it).
        batch_ms: Coalescing window. Requests arriving within one window
            share one solve.
        solve_timeout: Per-batch ladder deadline (seconds).
        max_pending: Admission-control queue bound.
    """

    def __init__(
        self,
        service: "ArrangementService",
        batch_ms: float = DEFAULT_BATCH_MS,
        solve_timeout: float = DEFAULT_SOLVE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if batch_ms < 0:
            raise ServiceError(f"batch_ms must be >= 0, got {batch_ms}")
        if solve_timeout <= 0:
            raise ServiceError(f"solve_timeout must be > 0, got {solve_timeout}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        # A weak back-reference: the service owns the engine, and without
        # a cycle between them a closed service is freed at once rather
        # than at the collector's next full pass.
        self._service = weakref.proxy(service)
        self.batch_ms = batch_ms
        self.solve_timeout = solve_timeout
        self.max_pending = max_pending
        self.batches_solved = 0
        self.requests_served = 0
        self.last_outcome: str | None = None
        #: Batches that re-solved an open remainder: ``scoped`` ones
        #: proved a sub-instance enough, ``full`` ones solved everything
        #: (after a ``scope_refused`` check failure too).
        self.stats = dict.fromkeys(_STAT_KEYS, 0)
        self._remainder = OpenRemainder()
        #: Events whose cluster's seats are not the last Greedy optimal
        #: candidate; their clusters are re-solved next batch.
        self._dirty_events: set[int] = set()
        self._pending: list[PendingRequest] = []
        self._cond = threading.Condition()
        self._stop = False
        self._dirty = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Admission + queueing
    # ------------------------------------------------------------------

    def admit(self, user: int) -> PendingRequest:
        """Queue one assignment request (admission-controlled).

        Raises:
            ServiceOverloadedError: If the queue is at ``max_pending``.
                Nothing is journaled for a rejected request.
        """
        with self._cond:
            if len(self._pending) >= self.max_pending:
                raise ServiceOverloadedError(
                    f"assignment queue full ({self.max_pending} pending); "
                    "retry after the next batch"
                )
            request = PendingRequest(user)
            self._pending.append(request)
            self._cond.notify_all()
            return request

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)

    def mark_dirty(self) -> None:
        """Request a re-solve even when no assignment request is queued.

        Mutations that change the feasible region (a freeze, a cancel, a
        new event) leave the standing arrangement stale without putting
        anything in the queue. The shard coordinator marks the affected
        shard dirty; the next batch -- background-thread or synchronous
        -- runs even if the request list is empty. Which clusters it
        re-solves does not depend on this flag: the store's change log
        names them. Every front end holds a fleet, so a threaded engine
        behind one re-solves after every post, freeze and cancel, one
        shard or many; an ``ArrangementService`` driven directly never
        calls this.
        """
        with self._cond:
            self._dirty = True
            self._cond.notify_all()

    @property
    def dirty(self) -> bool:
        """True while a :meth:`mark_dirty` waits for its batch."""
        with self._cond:
            return self._dirty

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background batch thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="geacc-batch-engine", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread, solving one final batch for stragglers."""
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        thread.join()
        self._thread = None
        self.run_pending_batch()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._dirty and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
            # Coalescing window: let a burst of requests pile into this
            # batch instead of paying one solve each.
            if self.batch_ms > 0:
                time.sleep(self.batch_ms / 1000.0)
            try:
                self.run_pending_batch()
            except Exception:
                # The failed batch's requests already carry the error;
                # the thread stays up for the requests queued after it.
                traceback.print_exc()

    def run_pending_batch(self) -> int:
        """Drain the queue and solve one batch synchronously.

        Returns the number of requests resolved (0 when the queue was
        empty). Exposed for deterministic tests and the synchronous
        (no-thread) mode.
        """
        with self._cond:
            batch = self._pending
            self._pending = []
            dirty = self._dirty
            self._dirty = False
        if not batch and not dirty:
            return 0
        try:
            self._solve_and_commit(batch)
        except Exception as exc:
            for request in batch:
                request.fail(exc)
            raise
        return len(batch)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _solve_and_commit(self, batch: list[PendingRequest]) -> None:
        service = self._service
        with service._lock:
            store = service.store
            try:
                delta = self._solve_open_remainder(store, [r.user for r in batch])
                if delta:
                    service._journal_and_apply(
                        "commit_batch",
                        {**delta.to_json(), "users": sorted({r.user for r in batch})},
                    )
            except BaseException:
                # The change log is spent: start over from a full re-solve.
                self._remainder = OpenRemainder()
                raise
            # The engine chose those seats itself: they are not news.
            store.take_changes()
            self.batches_solved += 1
            self.requests_served += len(batch)
            results = {
                request.user: tuple(sorted(store.events_of(request.user)))
                for request in batch
            }
        for request in batch:
            request.resolve(results[request.user])

    def _solve_open_remainder(
        self, store: ArrangementStore, requested: Sequence[int]
    ) -> Delta:
        """Re-solve the clusters that changed; never worsen the standing state.

        The restricted instance is the one the simulator's rebatch
        (:func:`~repro.simulation.simulate`) builds (see
        :mod:`repro.service.remainder`). Only the *scope* is re-solved:
        every cluster holding a changed event, a dirty event, or the
        best open event of a user who arrived, asked, or lost a seat. A
        vectorised check then proves that the full re-solve would have
        accepted no pair crossing the scope's border; if it cannot, the
        same batch re-solves everything. Either way the solved arrangement replaces
        a cluster's standing seats only if it does not lower their
        MaxSum, so a deadline-starved rung can never regress the
        arrangement.
        """
        changes = store.take_changes()
        remainder = self._remainder
        new_events, new_users = remainder.sync(store, changes)
        capacities = remainder.event_capacities
        open_events = capacities > 0
        if not open_events.any() or store.n_users == 0:
            return Delta()
        sims = remainder.sims
        seat_events, seat_users = store.seats()
        on_open = open_events[seat_events]
        seat_events, seat_users = seat_events[on_open], seat_users[on_open]
        clusters = _merge_through_users(remainder.components, seat_events, seat_users)
        home = np.full(store.n_users, -1, dtype=np.intp)
        home[seat_users] = clusters[seat_events]
        # A user's capacity for the re-solve: what frozen seats leave.
        user_capacities = store.user_remaining_array() + np.bincount(
            seat_users, minlength=store.n_users
        )
        scope = self._scope(
            clusters,
            open_events,
            set(new_events) | changes.events | self._dirty_events,
            set(new_users) | changes.users | set(requested),
        )
        self.stats["batches"] += 1
        while True:
            full = bool(np.array_equal(scope, open_events))
            cluster_in_scope = np.zeros(len(clusters), dtype=bool)
            cluster_in_scope[clusters[scope]] = True
            users = np.where(home < 0, True, cluster_in_scope[home])
            result, candidate = self._solve_scope(
                store, np.flatnonzero(scope), np.flatnonzero(users), user_capacities
            )
            if full:
                self.stats["full"] += 1
                break
            if _nothing_crosses(
                sims, scope, users, user_capacities, candidate,
                seat_events, seat_users,
            ):
                self.stats["scoped"] += 1
                break
            self.stats["scope_refused"] += 1
            scope = open_events
        if result is not None:
            self.last_outcome = result.outcome.value
        clean = result is None or (
            result.solver == BATCH_LADDER[0] and result.outcome is Outcome.OPTIMAL
        )
        if candidate is None:
            self._dirty_events = set(np.flatnonzero(scope).tolist())
            return Delta()  # every rung failed: keep the standing state
        in_scope = scope[seat_events]
        delta, rejected = _keep_better(
            sims, clusters, (seat_events[in_scope], seat_users[in_scope]), candidate
        )
        if clean:
            scope = scope & np.isin(clusters, rejected)
        self._dirty_events = set(np.flatnonzero(scope).tolist())
        return delta

    def _scope(
        self,
        clusters: np.ndarray,
        open_events: np.ndarray,
        stale: set[int],
        movers: set[int],
    ) -> np.ndarray:
        """The open events of every cluster this batch must re-solve.

        That is every cluster holding a ``stale`` event or the most
        similar open event of a ``mover``. A batch whose remainder was
        rebuilt (after a retire) re-solves all open events: every event
        is new to it, hence stale.
        """
        sims = self._remainder.sims
        if movers:
            users = sorted(movers)
            best = sims[:, users].argmax(axis=0)
            stale = stale | set(best[sims[best, users] > 0].tolist())
        in_scope = np.zeros(len(clusters), dtype=bool)
        in_scope[clusters[sorted(stale)]] = True
        return in_scope[clusters] & open_events

    def _solve_scope(
        self,
        store: ArrangementStore,
        events: np.ndarray,
        users: np.ndarray,
        user_capacities: np.ndarray,
    ) -> tuple[SolveResult | None, tuple[np.ndarray, np.ndarray] | None]:
        """Solve the scope's open events for the users homed in it.

        Ids keep their ascending order, so Greedy breaks ties exactly as
        on the whole instance. Returns the ladder result (None when the
        sub-instance is empty and nothing had to run) and the solved
        seats as global ``(events, users)`` arrays (None when every rung
        failed).
        """
        if not len(events) or not len(users):
            empty = np.zeros(0, dtype=np.intp)
            return None, (empty, empty)
        remainder = self._remainder
        instance = Instance(
            remainder.event_capacities[events],
            user_capacities[users],
            store.conflict_graph(events),
            sims=remainder.sims[np.ix_(events, users)],
            validate=False,
        )
        result = solve_with_ladder(instance, BATCH_LADDER, timeout=self.solve_timeout)
        if result.arrangement is None:
            return result, None
        seat_events, seat_users = result.arrangement.seats()
        return result, (events[seat_events], users[seat_users])

    def engine_summary(self) -> dict:
        """The ``engine`` block of ``GET /state``."""
        return {**self.stats, "last_outcome": self.last_outcome}


def fleet_engine_summary(per_shard: list[dict]) -> dict:
    """Shard ``engine`` blocks summed; ``last_outcome`` is the worst one."""
    outcomes = [s["last_outcome"] for s in per_shard if s["last_outcome"]]
    severity = [outcome.value for outcome in Outcome]  # best first
    return {
        **{key: sum(s[key] for s in per_shard) for key in _STAT_KEYS},
        "last_outcome": max(outcomes, key=severity.index) if outcomes else None,
    }


def _merge_through_users(
    components: np.ndarray, seat_events: np.ndarray, seat_users: np.ndarray
) -> np.ndarray:
    """Conflict components merged through users' seats, per event.

    A user holding seats in several components couples them through its
    capacity, so they form one *cluster*; it is named by its smallest
    component name.
    """
    if not len(seat_users):
        return components
    seated = components[seat_events]
    first = np.full(int(seat_users.max()) + 1, -1, dtype=np.intp)
    first[seat_users] = seated
    links = seated != first[seat_users]
    if not links.any():
        return components
    merged = DisjointSet()
    for a, b in zip(seated[links].tolist(), first[seat_users][links].tolist()):
        merged.union(a, b)
    name = np.arange(len(components))
    for root, members in merged.members().items():
        name[members] = root
    return name[components]


def _nothing_crosses(
    sims: np.ndarray,
    scope: np.ndarray,
    users: np.ndarray,
    user_capacities: np.ndarray,
    candidate: tuple[np.ndarray, np.ndarray] | None,
    seat_events: np.ndarray,
    seat_users: np.ndarray,
) -> bool:
    """True when the full Greedy run would accept no pair across the scope.

    Greedy's matrix scan (:func:`repro.core.algorithms.greedy._scan`)
    walks pairs in one global ``(-sim, event, user)`` order, so the
    order reasoned about here is the solver's own loop. The scoped
    sub-instance keeps ids ascending, hence the same order restricted to
    the scope. A user's *home* is the region holding its seats (the
    scope for ``users``, the rest otherwise). If no user could take a
    pair outside its home, the full run splits into the scoped run plus
    the standing rest. A user with capacity left could take any pair of
    positive similarity; a full user could only take a pair ranked
    before its weakest seat, i.e. one strictly more similar.
    """
    if candidate is None:
        return False
    outside = ~scope[seat_events]
    events = np.concatenate([candidate[0], seat_events[outside]])
    holders = np.concatenate([candidate[1], seat_users[outside]])
    n_users = len(user_capacities)
    left = user_capacities - np.bincount(holders, minlength=n_users)
    weakest = np.full(n_users, np.inf)
    np.minimum.at(weakest, holders, sims[events, holders])
    away = np.where(
        users,
        np.max(sims, axis=0, where=~scope[:, None], initial=0.0),
        np.max(sims, axis=0, where=scope[:, None], initial=0.0),
    )
    return bool(np.all(np.where(left > 0, away <= 0.0, away < weakest)))


def _keep_better(
    sims: np.ndarray,
    clusters: np.ndarray,
    standing: tuple[np.ndarray, np.ndarray],
    candidate: tuple[np.ndarray, np.ndarray],
) -> tuple[Delta, list[int]]:
    """Accept the candidate per cluster where it does not lower MaxSum.

    Keep-better is decided per *user-linked conflict cluster*, not
    globally: conflict components are independent on the event side, so
    a deadline-starved rung that regressed one region must not veto a
    genuine improvement in another. A user holding seats in several
    clusters in either arrangement couples them through its capacity
    -- applying one cluster's candidate while keeping another's
    standing seats could over-commit that user -- so such clusters
    form one accept/reject *unit* (:func:`_merge_through_users` over
    both arrangements' seats). A unit whose seats differ compares the
    exact sums (``math.fsum``) of its kept and solved similarities.

    Returns the delta and the cluster names (as in ``clusters``) of the
    units that kept their standing seats.
    """
    kept = np.zeros(sims.shape, dtype=bool)
    kept[standing] = True
    solved = np.zeros(sims.shape, dtype=bool)
    solved[candidate] = True
    assigns, unassigns = solved & ~kept, kept & ~solved
    if not assigns.any() and not unassigns.any():
        return Delta(), []
    unit = _merge_through_users(
        clusters,
        np.concatenate([standing[0], candidate[0]]),
        np.concatenate([standing[1], candidate[1]]),
    )
    kept_unit, kept_sims = unit[standing[0]], sims[standing]
    solved_unit, solved_sims = unit[candidate[0]], sims[candidate]
    rejected = np.zeros(len(clusters), dtype=bool)
    changed = np.zeros(len(clusters), dtype=bool)
    changed[unit[(assigns | unassigns).any(axis=1)]] = True
    for name in np.flatnonzero(changed).tolist():
        kept_sum = math.fsum(kept_sims[kept_unit == name].tolist())
        solved_sum = math.fsum(solved_sims[solved_unit == name].tolist())
        rejected[name] = solved_sum < kept_sum
    stays = rejected[unit]
    names = np.zeros(len(clusters), dtype=bool)
    names[clusters[stays & (kept | solved).any(axis=1)]] = True
    return (
        Delta(
            assigns=_pairs(assigns & ~stays[:, None]),
            unassigns=_pairs(unassigns & ~stays[:, None]),
        ),
        np.flatnonzero(names).tolist(),
    )


def _pairs(cells: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The true cells of an (event, user) mask, sorted, as tuples."""
    events, users = np.nonzero(cells)
    return tuple(zip(events.tolist(), users.tolist()))
