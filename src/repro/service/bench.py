"""The ``service`` bench scenario: journal throughput, request latency.

Two serving-path numbers ride along in ``BENCH_solvers.json`` next to
the solver timings, under the same ``make bench-check`` regression gate:

* **journal-append** -- seconds per durably journaled command (write +
  flush + fsync), the floor under every write's latency;
* **request** -- p50/p99 wall latency of a single blocking assignment
  request against a warm in-process service (journaled command,
  micro-batch solve over the open remainder, committed delta), the
  number a deployment's SLO would be written against;
* **recovery** -- seconds to reconstruct state from the same journal
  two ways: full replay versus newest-snapshot + tail after a
  compaction (the number bounded-time crash recovery exists to keep
  small);
* **shard scaling** -- one synchronous replay of a fixed clustered
  workload per shard count (1/2/4/8), each run driving the identical
  command sequence through :func:`~repro.service.loadgen.replay_timeline`
  with ``shards=N``, so the aggregate-throughput curve measures
  exactly the work sharding removes (each shard's batch re-solves only
  its slice of the universe).

Comparability follows the solver bench rules: a fixed synthetic
workload (seeded), ``--quick`` changes only repetition counts -- for
the shard-scaling scenario, only *which shard counts run* (a strict
subset of the full sweep on the same instance) -- and the gate compares
against the committed baseline with the usual tolerated factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro.exceptions import ReproError
from repro.service.frontend import ArrangementService
from repro.service.journal import Journal
from repro.service.store import StoreConfig

#: Fixed workload shape of the request-latency scenario.
BENCH_EVENTS = 12
BENCH_USERS = 80
BENCH_DIMENSION = 4
BENCH_SEED = 0

#: Repetition counts (full / --quick).
FULL_APPENDS = 2000
QUICK_APPENDS = 300
FULL_REQUESTS = 120
QUICK_REQUESTS = 40
FULL_RECOVERY_RECORDS = 1500
QUICK_RECOVERY_RECORDS = 300
#: Fraction of the journal appended *after* the compaction snapshot --
#: the tail a snapshot+tail recovery actually replays.
RECOVERY_TAIL_FRACTION = 0.05

#: Fixed clustered workload of the shard-scaling scenario: 24 conflict
#: components of 3 chained events + 12 capacity-1 users each (72 events,
#: 288 users) -- big enough that the per-batch re-solve dominates, small
#: enough that the whole sweep stays around ten seconds.
SHARD_COMPONENTS = 24
SHARD_EVENTS_PER_COMPONENT = 3
SHARD_USERS_PER_COMPONENT = 12
SHARD_DIMENSION = 8
#: Shard counts swept (full / --quick; quick is a strict subset so its
#: runs stay directly comparable against a full baseline).
FULL_SHARD_COUNTS = (1, 2, 4, 8)
QUICK_SHARD_COUNTS = (1, 4)


@dataclass(frozen=True)
class ServiceBench:
    """Serving-path measurements recorded in the bench report."""

    appends: int
    append_seconds: float  # per-op (min over repeats)
    requests: int
    request_p50: float
    request_p99: float
    #: Journal length of the recovery scenario (0 = not measured, e.g.
    #: a pre-snapshot baseline report).
    recovery_records: int = 0
    recovery_full_seconds: float = 0.0
    recovery_snapshot_seconds: float = 0.0

    @property
    def appends_per_second(self) -> float:
        return 1.0 / self.append_seconds if self.append_seconds > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "appends": self.appends,
            "append_seconds": self.append_seconds,
            "requests": self.requests,
            "request_p50": self.request_p50,
            "request_p99": self.request_p99,
            "recovery_records": self.recovery_records,
            "recovery_full_seconds": self.recovery_full_seconds,
            "recovery_snapshot_seconds": self.recovery_snapshot_seconds,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ServiceBench":
        try:
            return cls(
                appends=int(data["appends"]),
                append_seconds=float(data["append_seconds"]),
                requests=int(data["requests"]),
                request_p50=float(data["request_p50"]),
                request_p99=float(data["request_p99"]),
                # Optional: absent in pre-snapshot baseline reports.
                recovery_records=int(data.get("recovery_records", 0)),
                recovery_full_seconds=float(data.get("recovery_full_seconds", 0.0)),
                recovery_snapshot_seconds=float(
                    data.get("recovery_snapshot_seconds", 0.0)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed service bench entry {data!r}: {exc}") from exc


@dataclass(frozen=True)
class ShardScalingRun:
    """One shard count's synchronous replay of the fixed workload."""

    shards: int
    seconds: float
    aggregate_rps: float
    n_requests: int

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "aggregate_rps": self.aggregate_rps,
            "n_requests": self.n_requests,
        }

    @classmethod
    def from_json(cls, shards: int, data: dict) -> "ShardScalingRun":
        return cls(
            shards=shards,
            seconds=float(data["seconds"]),
            aggregate_rps=float(data["aggregate_rps"]),
            n_requests=int(data["n_requests"]),
        )


@dataclass(frozen=True)
class ShardScalingBench:
    """The shard-scaling sweep recorded in the bench report.

    Every run drives the identical command sequence (same instance, same
    timeline, synchronous resolution), so ``runs[i].seconds`` are
    directly comparable across shard counts and across commits.
    """

    n_components: int
    events_per_component: int
    users_per_component: int
    dimension: int
    seed: int
    runs: tuple[ShardScalingRun, ...]

    def run_for(self, shards: int) -> ShardScalingRun | None:
        for run in self.runs:
            if run.shards == shards:
                return run
        return None

    @property
    def speedup(self) -> float:
        """Single-shard seconds over the widest sweep's seconds."""
        if len(self.runs) < 2:
            return 1.0
        base = self.run_for(1)
        widest = max(self.runs, key=lambda run: run.shards)
        if base is None or widest.seconds <= 0:
            return 1.0
        return base.seconds / widest.seconds

    def workload_shape(self) -> tuple[int, int, int, int]:
        return (
            self.n_components,
            self.events_per_component,
            self.users_per_component,
            self.dimension,
        )

    def to_json(self) -> dict:
        return {
            "n_components": self.n_components,
            "events_per_component": self.events_per_component,
            "users_per_component": self.users_per_component,
            "dimension": self.dimension,
            "seed": self.seed,
            "runs": {str(run.shards): run.to_json() for run in self.runs},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardScalingBench":
        try:
            return cls(
                n_components=int(data["n_components"]),
                events_per_component=int(data["events_per_component"]),
                users_per_component=int(data["users_per_component"]),
                dimension=int(data["dimension"]),
                seed=int(data["seed"]),
                runs=tuple(
                    ShardScalingRun.from_json(int(shards), entry)
                    for shards, entry in sorted(
                        data["runs"].items(), key=lambda kv: int(kv[0])
                    )
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed shard-scaling bench entry {data!r}: {exc}"
            ) from exc


def run_shard_scaling_bench(quick: bool = False) -> ShardScalingBench:
    """Sweep shard counts over the fixed clustered replay workload.

    Replay verification is off (it would re-read every shard journal and
    recover the fleet -- correctness work the sharding test suite owns);
    the clock sees the synchronous drive only.
    """
    from repro.service.loadgen import replay_timeline
    from repro.service.sharding import shardable_instance, shardable_timeline

    instance = shardable_instance(
        SHARD_COMPONENTS,
        SHARD_EVENTS_PER_COMPONENT,
        SHARD_USERS_PER_COMPONENT,
        dimension=SHARD_DIMENSION,
        seed=BENCH_SEED,
    )
    timeline = shardable_timeline(instance)
    counts = QUICK_SHARD_COUNTS if quick else FULL_SHARD_COUNTS
    runs = []
    with TemporaryDirectory() as tmp_name:
        for shards in counts:
            report = replay_timeline(
                instance,
                timeline,
                Path(tmp_name) / f"fleet-{shards}",
                shards=shards,
                verify_replay=False,
            )
            runs.append(
                ShardScalingRun(
                    shards=shards,
                    seconds=report.seconds,
                    aggregate_rps=report.aggregate_rps,
                    n_requests=report.n_requests,
                )
            )
    return ShardScalingBench(
        n_components=SHARD_COMPONENTS,
        events_per_component=SHARD_EVENTS_PER_COMPONENT,
        users_per_component=SHARD_USERS_PER_COMPONENT,
        dimension=SHARD_DIMENSION,
        seed=BENCH_SEED,
        runs=tuple(runs),
    )


def _bench_journal_appends(tmp: Path, appends: int, repeats: int) -> float:
    """Seconds per fsync'd append (min over ``repeats`` passes)."""
    config = StoreConfig(dimension=BENCH_DIMENSION)
    record_args = {"user": 0}
    per_op: list[float] = []
    for attempt in range(repeats):
        path = tmp / f"append-{attempt}.jsonl"
        journal = Journal.create(path, config)
        try:
            started = time.perf_counter()
            for _ in range(appends):
                journal.append("request_assignment", record_args)
            per_op.append((time.perf_counter() - started) / appends)
        finally:
            journal.close()
    return min(per_op)


def _bench_request_latency(
    tmp: Path, requests: int
) -> tuple[float, float]:
    """(p50, p99) of single blocking assignment requests, in seconds.

    The service runs engine-synchronous (no batch thread, ``wait=True``
    drives the batch inline), so each sample is the full request path --
    journal, solve over the open remainder, commit -- without
    coalescing: the worst case a single request can see.
    """
    rng = np.random.default_rng(BENCH_SEED)
    config = StoreConfig(dimension=BENCH_DIMENSION)
    service = ArrangementService.create(
        tmp / "requests.jsonl", config, threaded=False
    )
    t = config.t
    with service:
        for _ in range(BENCH_EVENTS):
            service.post_event(
                capacity=int(rng.integers(2, 8)),
                attributes=[float(x) for x in rng.uniform(0, t, BENCH_DIMENSION)],
            )
        user_attrs = rng.uniform(0, t, (max(requests, BENCH_USERS), BENCH_DIMENSION))
        latencies: list[float] = []
        for index in range(requests):
            user = service.register_user(
                capacity=int(rng.integers(1, 4)),
                attributes=[float(x) for x in user_attrs[index]],
            )
            started = time.perf_counter()
            service.request_assignment(user)
            latencies.append(time.perf_counter() - started)
    latencies.sort()
    p50 = float(np.percentile(latencies, 50.0))
    p99 = float(np.percentile(latencies, 99.0))
    return p50, p99


def _bench_recovery(tmp: Path, records: int, repeats: int) -> tuple[float, float]:
    """(full-replay, snapshot+tail) recovery seconds for one journal.

    Builds a journal, times :func:`replay` over the 95% prefix, then
    compacts there, appends the remaining 5% as the tail, and times the
    ladder recovery (snapshot load + tail replay) of the full history.
    Both numbers are mins over ``repeats`` read-only passes of durable
    files, so they are directly comparable.
    """
    from repro.service.journal import replay
    from repro.service.snapshot import compact, recover_state
    from repro.service.store import ArrangementStore

    config = StoreConfig(dimension=BENCH_DIMENSION)
    rng = np.random.default_rng(BENCH_SEED)
    path = tmp / "recovery.jsonl"
    snapshot_dir = tmp / "recovery.snapshots"
    tail = max(1, int(records * RECOVERY_TAIL_FRACTION))
    attrs = rng.uniform(0, config.t, (records, BENCH_DIMENSION))

    def user_args(index: int) -> dict:
        return {"capacity": 1, "attributes": [float(x) for x in attrs[index]]}

    journal = Journal.create(path, config)
    store = ArrangementStore(config)
    try:
        for index in range(records - tail):
            store.apply(journal.append("register_user", user_args(index)))
        full_seconds = min(
            _timed(lambda: replay(path)) for _ in range(repeats)
        )
        compact(journal, store, snapshot_dir, retain=2)
        for index in range(records - tail, records):
            store.apply(journal.append("register_user", user_args(index)))
        snapshot_seconds = min(
            _timed(lambda: recover_state(path, snapshot_dir)) for _ in range(repeats)
        )
    finally:
        journal.close()
    return full_seconds, snapshot_seconds


def _timed(action) -> float:
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def run_service_bench(quick: bool = False, repeats: int = 3) -> ServiceBench:
    """Measure the serving path on the fixed bench workload."""
    appends = QUICK_APPENDS if quick else FULL_APPENDS
    requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    recovery_records = QUICK_RECOVERY_RECORDS if quick else FULL_RECOVERY_RECORDS
    with TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        append_seconds = _bench_journal_appends(
            tmp, appends, repeats=1 if quick else repeats
        )
        p50, p99 = _bench_request_latency(tmp, requests)
        recovery_full, recovery_snapshot = _bench_recovery(
            tmp, recovery_records, repeats=1 if quick else repeats
        )
    return ServiceBench(
        appends=appends,
        append_seconds=append_seconds,
        requests=requests,
        request_p50=p50,
        request_p99=p99,
        recovery_records=recovery_records,
        recovery_full_seconds=recovery_full,
        recovery_snapshot_seconds=recovery_snapshot,
    )
