"""Timeline-driven load generation for the arrangement service.

``geacc replay`` takes a :class:`~repro.simulation.workload.Timeline`
(the same workloads the offline simulator replays) and drives it in
time order -- events post, users register and immediately request an
assignment, events freeze -- with wall-clock compressed to "as fast as
the service accepts commands". One driver, :func:`replay_timeline`,
runs it through a :class:`~repro.service.sharding.ShardCoordinator`
fleet (one shard by default) driven *synchronously*: every request
resolves in the caller's thread before the next command is issued, so
every request is its own batch and runs at different shard counts
execute the identical command sequence. Each request is measured from
submission to batch commit. Batch-window coalescing under a burst is
not measured here; the threaded engine is exercised by the crash smoke
and the engine tests.

Quality is scored the way the offline experiments score policies: the
achieved MaxSum over the clairvoyant bound of the *full* instance
(:mod:`repro.core.bounds` -- the optimum a solver that knew every
arrival in advance could not exceed), reported next to the same ratio
for the pure first-come-first-served
:func:`~repro.simulation.simulate` (no ``rebatch``) on the same
timeline -- the number the micro-batched engine must beat to justify
existing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.bounds import nn_capacity_bound, relaxation_bound
from repro.core.model import Instance
from repro.exceptions import ServiceError
from repro.service.engine import PendingRequest
from repro.service.journal import replay as replay_journal
from repro.service.sharding import ShardCoordinator, ShardManager
from repro.service.store import StoreConfig
from repro.simulation.simulator import simulate
from repro.simulation.workload import ARRIVE, POST, Timeline

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
    #: Shard count of the fleet.
    shards: int
    #: Per-shard ``{"shard", "requests", "batches", "events", "users",
    #: "rps"}`` rows.
    per_shard: tuple[dict, ...]
    #: The fleet's ``engine`` block: batches that re-solved an open
    #: remainder, and how many of them re-solved only a scope.
    engine: dict

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
        rows = ", ".join(
            f"s{row['shard']}={row['rps']:.0f}rps({row['requests']}req)"
            for row in self.per_shard
        )
        lines = [
            "== geacc replay: micro-batched service vs clairvoyant bound ==",
            f"workload: |V|={self.n_events} |U|={self.n_users} "
            f"requests={self.n_requests} batches={self.n_batches} "
            f"scoped={self.engine['scoped']}/{self.engine['batches']} "
            f"wall={self.seconds:.2f}s",
            f"sharding: {self.shards} shards "
            f"aggregate={self.aggregate_rps:.0f} req/s [{rows}]",
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
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_users": self.n_users,
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
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
            "engine": self.engine,
            "sharding": {
                "shards": self.shards,
                "aggregate_rps": self.aggregate_rps,
                "per_shard": list(self.per_shard),
            },
        }


def replay_timeline(
    instance: Instance,
    timeline: Timeline,
    journal_path: str | Path,
    *,
    shards: int = 1,
    solve_timeout: float = 0.25,
    bound: str = "relaxation",
    verify_replay: bool = True,
) -> ReplayReport:
    """Drive ``timeline`` through a fresh fleet; measure and score it.

    The fleet is a synchronously driven
    :class:`~repro.service.sharding.ShardCoordinator` (see the module
    docstring); ``shards=1`` is the unsharded deployment and the fair
    baseline for a shard-scaling comparison.

    Args:
        instance: Attribute-backed instance (the service recomputes
            similarities from attributes, so matrix-only instances are
            rejected).
        timeline: Post/arrival/start times, validated against the
            instance.
        journal_path: The fleet's root directory; must not exist yet.
        shards: Shard count (at least 1).
        bound: Clairvoyant bound to score against (``relaxation`` =
            Corollary 1 via min-cost flow; ``nn`` = the cheaper Lemma 6
            capacity bound).
        verify_replay: After the run, replay every shard journal and
            require each reconstructed state digest to match the live
            one, then recover the fleet (manifest walk included) and
            require the live global arrangement digest.
    """
    if instance.event_attributes is None or instance.user_attributes is None:
        raise ServiceError(
            "geacc replay needs an attribute-backed instance (the service "
            "computes similarities from attributes)"
        )
    if bound not in BOUNDS:
        raise ServiceError(f"unknown bound {bound!r} (choose from {sorted(BOUNDS)})")
    if shards < 1:
        raise ServiceError(f"shards must be >= 1, got {shards}")
    timeline.validate_against(instance)

    config = StoreConfig(
        dimension=instance.event_attributes.shape[1],
        t=instance.t,
        metric=instance.metric,
    )
    event_ids: dict[int, int] = {}
    requests: list[PendingRequest] = []

    path = Path(journal_path)
    started = time.perf_counter()
    with ShardCoordinator.create(
        path,
        config,
        shards,
        threaded=False,
        solve_timeout=solve_timeout,
    ) as fleet:
        for _, kind, entity in timeline.moments():
            if kind == POST:
                conflicts = [
                    event_ids[w]
                    for w in sorted(instance.conflicts.conflicts_with(entity))
                    if w in event_ids
                ]
                event_ids[entity] = fleet.post_event(
                    capacity=int(instance.event_capacities[entity]),
                    attributes=[float(x) for x in instance.event_attributes[entity]],
                    conflicts=conflicts,
                )
            elif kind == ARRIVE:
                user = fleet.register_user(
                    capacity=int(instance.user_capacities[entity]),
                    attributes=[float(x) for x in instance.user_attributes[entity]],
                )
                request = fleet.request_assignment(user, wait=False)
                assert isinstance(request, PendingRequest)
                requests.append(request)
            else:
                fleet.freeze_event(event_ids[entity])
        # Re-solve the shards the last freezes left stale.
        fleet.run_pending_batch()
        fleet.check_invariants()
        summary = fleet.state_summary()
    seconds = time.perf_counter() - started

    per_shard = summary["sharding"]["per_shard"]
    if verify_replay:
        for row in per_shard:
            journal = ShardManager.journal_path(path, row["shard"])
            recovered, _ = replay_journal(journal)
            if recovered.digest() != row["digest"]:
                raise ServiceError(
                    f"journal replay of {journal} does not reproduce the "
                    "live state (digest mismatch)"
                )
        with ShardCoordinator.recover(path, threaded=False) as reopened:
            if reopened.arrangement_digest() != summary["digest"]:
                raise ServiceError(
                    f"coordinator recovery of {path} does not reproduce "
                    "the live arrangement (digest mismatch)"
                )

    latencies_ms = sorted(
        1000.0 * request.latency_s
        for request in requests
        if request.latency_s is not None
    )
    if latencies_ms:
        p50, p90, p99 = (
            float(np.percentile(latencies_ms, q)) for q in (50.0, 90.0, 99.0)
        )
        max_ms = latencies_ms[-1]
    else:
        p50 = p90 = p99 = max_ms = 0.0

    baseline = simulate(instance, timeline)
    bound_value = BOUNDS[bound](instance)

    return ReplayReport(
        n_events=instance.n_events,
        n_users=instance.n_users,
        n_requests=len(requests),
        n_batches=summary["batches_committed"],
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
        replay_verified=verify_replay,
        shards=shards,
        engine=summary["engine"],
        per_shard=tuple(
            {
                "shard": row["shard"],
                "requests": row["requests_seen"],
                "batches": row["batches_committed"],
                "events": row["n_events"],
                "users": row["n_users"],
                "rps": row["requests_seen"] / seconds if seconds > 0 else 0.0,
            }
            for row in per_shard
        ),
    )
