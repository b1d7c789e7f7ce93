"""Timeline-driven load generation for the arrangement service.

``geacc replay`` takes a :class:`~repro.simulation.workload.Timeline`
(the same workloads the offline simulator replays) and drives it in
time order -- events post, users register and immediately request an
assignment, events freeze -- with wall-clock compressed to "as fast as
the service accepts commands". One driver, :func:`replay_timeline`,
serves both deployments: a live
:class:`~repro.service.frontend.ArrangementService`, or with
``shards >= 1`` a :class:`~repro.service.sharding.ShardCoordinator`
fleet, read back only through their shared ``state_summary()`` /
``check_invariants()`` surface. Every assignment request is measured
from submission to batch commit, giving the latency distribution of the
micro-batching engine under a realistic arrival burst.

Quality is scored the way the offline experiments score policies: the
achieved MaxSum over the clairvoyant bound of the *full* instance
(:mod:`repro.core.bounds` -- the optimum a solver that knew every
arrival in advance could not exceed), reported next to the same ratio
for the pure first-come-first-served
:class:`~repro.simulation.policies.GreedyArrivalPolicy` on the same
timeline -- the number the micro-batched engine must beat to justify
existing.

Freeze moments act as barriers: requests submitted before a freeze are
resolved before the freeze is issued (an EBSN platform processes
registrations in seconds; event lead times are hours). Without the
barrier the comparison against the simulator baseline -- which serves
every earlier arrival before freezing -- would be apples to oranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.bounds import nn_capacity_bound, relaxation_bound
from repro.core.model import Instance
from repro.exceptions import ServiceError, ServiceOverloadedError
from repro.service.engine import PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.journal import replay as replay_journal
from repro.service.sharding import ShardCoordinator, ShardManager
from repro.service.store import StoreConfig
from repro.simulation.policies import GreedyArrivalPolicy
from repro.simulation.simulator import Simulator
from repro.simulation.workload import Timeline

#: Per-request resolution allowance during replay (generous; a stuck
#: engine should fail loudly, not hang the load generator).
REQUEST_WAIT_S = 60.0

BOUNDS = {
    "relaxation": relaxation_bound,
    "nn": nn_capacity_bound,
}


@dataclass(frozen=True)
class ReplayReport:
    """Latency + quality outcome of one timeline replay."""

    n_events: int
    n_users: int
    n_requests: int
    n_batches: int
    overloaded: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float
    achieved_max_sum: float
    bound: float
    bound_kind: str
    baseline_max_sum: float
    seconds: float
    journal_path: str
    replay_verified: bool
    #: Shard count of the deployment (None = classic unsharded service).
    shards: int | None = None
    #: Per-shard ``{"shard", "requests", "batches", "events", "users",
    #: "rps"}`` rows, set for sharded runs.
    per_shard: tuple[dict, ...] | None = None

    @property
    def aggregate_rps(self) -> float:
        """Requests resolved per wall-clock second, across all shards."""
        return self.n_requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def ratio(self) -> float:
        """Achieved MaxSum over the clairvoyant bound (higher = better)."""
        return self.achieved_max_sum / self.bound if self.bound > 0 else 1.0

    @property
    def baseline_ratio(self) -> float:
        return self.baseline_max_sum / self.bound if self.bound > 0 else 1.0

    def render(self) -> str:
        lines = [
            "== geacc replay: micro-batched service vs clairvoyant bound ==",
            f"workload: |V|={self.n_events} |U|={self.n_users} "
            f"requests={self.n_requests} batches={self.n_batches} "
            f"overloaded={self.overloaded} wall={self.seconds:.2f}s",
            f"latency:  p50={self.p50_ms:.2f}ms p90={self.p90_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms max={self.max_ms:.2f}ms",
            f"quality:  MaxSum={self.achieved_max_sum:.3f} "
            f"{self.bound_kind}-bound={self.bound:.3f} ratio={self.ratio:.4f}",
            f"baseline: greedy-arrival MaxSum={self.baseline_max_sum:.3f} "
            f"ratio={self.baseline_ratio:.4f} "
            f"({'engine >= baseline' if self.ratio >= self.baseline_ratio else 'engine < baseline'})",
            f"journal:  {self.journal_path} "
            f"(replay {'verified' if self.replay_verified else 'NOT verified'})",
        ]
        if self.shards is not None:
            rows = ", ".join(
                f"s{row['shard']}={row['rps']:.0f}rps({row['requests']}req)"
                for row in self.per_shard or ()
            )
            lines.insert(
                2,
                f"sharding: {self.shards} shards "
                f"aggregate={self.aggregate_rps:.0f} req/s [{rows}]",
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_users": self.n_users,
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "overloaded": self.overloaded,
            "latency_ms": {
                "p50": self.p50_ms,
                "p90": self.p90_ms,
                "p99": self.p99_ms,
                "max": self.max_ms,
            },
            "achieved_max_sum": self.achieved_max_sum,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "ratio": self.ratio,
            "baseline_max_sum": self.baseline_max_sum,
            "baseline_ratio": self.baseline_ratio,
            "seconds": self.seconds,
            "replay_verified": self.replay_verified,
            **(
                {}
                if self.shards is None
                else {
                    "sharding": {
                        "shards": self.shards,
                        "aggregate_rps": self.aggregate_rps,
                        "per_shard": list(self.per_shard or ()),
                    }
                }
            ),
        }


def replay_timeline(
    instance: Instance,
    timeline: Timeline,
    journal_path: str | Path,
    *,
    shards: int = 0,
    batch_ms: float = 10.0,
    solve_timeout: float = 0.25,
    max_pending: int = 1024,
    ladder: tuple[str, ...] = ("greedy", "random-u"),
    bound: str = "relaxation",
    verify_replay: bool = True,
) -> ReplayReport:
    """Drive ``timeline`` through a fresh deployment; measure and score it.

    ``shards=0`` runs one threaded
    :class:`~repro.service.frontend.ArrangementService`. ``shards >= 1``
    runs a :class:`~repro.service.sharding.ShardCoordinator` fleet driven
    *synchronously* (every request resolves in the caller's thread
    before the next command is issued), so two runs at different shard
    counts execute the identical command sequence and the
    aggregate-throughput comparison measures exactly the work sharding
    removes. ``--shards 1`` is the fair baseline for that comparison.

    Args:
        instance: Attribute-backed instance (the service recomputes
            similarities from attributes, so matrix-only instances are
            rejected).
        timeline: Post/arrival/start times, validated against the
            instance.
        journal_path: Where the service journals (the fleet's root
            directory when sharded); must not exist yet.
        shards: Shard count (0 = one unsharded service).
        bound: Clairvoyant bound to score against (``relaxation`` =
            Corollary 1 via min-cost flow; ``nn`` = the cheaper Lemma 6
            capacity bound).
        verify_replay: After the run, replay every journal and require
            each reconstructed state digest to match the live one; a
            fleet must also recover (manifest walk included) to the live
            global arrangement digest.
    """
    if instance.event_attributes is None or instance.user_attributes is None:
        raise ServiceError(
            "geacc replay needs an attribute-backed instance (the service "
            "computes similarities from attributes)"
        )
    if bound not in BOUNDS:
        raise ServiceError(f"unknown bound {bound!r} (choose from {sorted(BOUNDS)})")
    if shards < 0:
        raise ServiceError(f"shards must be >= 0, got {shards}")
    timeline.validate_against(instance)

    config = StoreConfig(
        dimension=instance.event_attributes.shape[1],
        t=instance.t,
        metric=instance.metric,
    )
    moments: list[tuple[float, int, int]] = []
    # Same intra-instant order as the simulator: posts, arrivals, freezes.
    for event, t in enumerate(timeline.post_times):
        moments.append((float(t), 0, event))
    for user, t in enumerate(timeline.arrival_times):
        moments.append((float(t), 1, user))
    for event, t in enumerate(timeline.start_times):
        moments.append((float(t), 2, event))
    moments.sort()

    event_ids: dict[int, int] = {}
    user_ids: dict[int, int] = {}
    futures: list[PendingRequest] = []
    overloaded = 0

    path = Path(journal_path)
    options = {
        "batch_ms": batch_ms,
        "solve_timeout": solve_timeout,
        "max_pending": max_pending,
        "ladder": ladder,
    }
    started = time.perf_counter()
    backend: ArrangementService | ShardCoordinator = (
        ShardCoordinator.create(path, config, shards, threaded=False, **options)
        if shards
        else ArrangementService.create(path, config, threaded=True, **options)
    )
    with backend:
        for _, kind, entity in moments:
            if kind == 0:
                conflicts = [
                    event_ids[w]
                    for w in sorted(instance.conflicts.conflicts_with(entity))
                    if w in event_ids
                ]
                event_ids[entity] = backend.post_event(
                    capacity=int(instance.event_capacities[entity]),
                    attributes=[float(x) for x in instance.event_attributes[entity]],
                    conflicts=conflicts,
                )
            elif kind == 1:
                user_ids[entity] = backend.register_user(
                    capacity=int(instance.user_capacities[entity]),
                    attributes=[float(x) for x in instance.user_attributes[entity]],
                )
                try:
                    request = backend.request_assignment(
                        user_ids[entity], wait=False
                    )
                    assert isinstance(request, PendingRequest)
                    futures.append(request)
                except ServiceOverloadedError:
                    overloaded += 1
            else:
                # Barrier: the engine sees every earlier registration
                # before the freeze lands (see module docstring).
                for request in futures:
                    if not request.done:
                        request.wait(REQUEST_WAIT_S)
                backend.freeze_event(event_ids[entity])
        for request in futures:
            if not request.done:
                request.wait(REQUEST_WAIT_S)
        # A synchronous fleet re-solves the shards its last freezes left
        # stale; the threaded service has nothing queued by now.
        backend.run_pending_batch()
        backend.check_invariants()
        summary = backend.state_summary()
    seconds = time.perf_counter() - started

    topology = summary.get("sharding")
    per_shard = topology["per_shard"] if topology else []
    replay_verified = False
    if verify_replay:
        journals = (
            [
                (ShardManager.journal_path(path, row["shard"]), row["digest"])
                for row in per_shard
            ]
            if topology
            else [(path, summary["digest"])]
        )
        for journal, digest in journals:
            recovered, _ = replay_journal(journal)
            if recovered.digest() != digest:
                raise ServiceError(
                    f"journal replay of {journal} does not reproduce the "
                    "live state (digest mismatch)"
                )
        if topology:
            with ShardCoordinator.recover(path, threaded=False) as reopened:
                if reopened.arrangement_digest() != summary["digest"]:
                    raise ServiceError(
                        f"coordinator recovery of {path} does not reproduce "
                        "the live arrangement (digest mismatch)"
                    )
        replay_verified = True

    latencies_ms = sorted(
        1000.0 * request.latency_s
        for request in futures
        if request.latency_s is not None
    )
    if latencies_ms:
        p50, p90, p99 = (
            float(np.percentile(latencies_ms, q)) for q in (50.0, 90.0, 99.0)
        )
        max_ms = latencies_ms[-1]
    else:
        p50 = p90 = p99 = max_ms = 0.0

    baseline = Simulator(instance, timeline).run(GreedyArrivalPolicy())
    bound_value = BOUNDS[bound](instance)

    return ReplayReport(
        n_events=instance.n_events,
        n_users=instance.n_users,
        n_requests=len(futures),
        n_batches=summary["batches_committed"],
        overloaded=overloaded,
        p50_ms=p50,
        p90_ms=p90,
        p99_ms=p99,
        max_ms=max_ms,
        achieved_max_sum=summary["max_sum"],
        bound=float(bound_value),
        bound_kind=bound,
        baseline_max_sum=baseline.achieved_max_sum,
        seconds=seconds,
        journal_path=str(path),
        replay_verified=replay_verified,
        shards=shards or None,
        per_shard=(
            tuple(
                {
                    "shard": row["shard"],
                    "requests": row["requests_seen"],
                    "batches": row["batches_committed"],
                    "events": row["n_events"],
                    "users": row["n_users"],
                    "rps": row["requests_seen"] / seconds if seconds > 0 else 0.0,
                }
                for row in per_shard
            )
            if topology
            else None
        ),
    )
