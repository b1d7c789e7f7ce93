"""`repro.service`: the journaled online arrangement engine.

The serving layer that turns the batch solvers into a long-lived,
crash-recoverable system (``docs/service.md``). Four layers, composed
by :class:`~repro.service.frontend.ArrangementService`:

* **state** -- :class:`~repro.service.store.ArrangementStore`: a
  mutable live GEACC instance (events/users/assignments, O(1) delta
  edits, remaining-capacity accounting) whose invariants are certified
  by the library's own :mod:`repro.core.validation`;
* **durability** -- :class:`~repro.service.journal.Journal`: an fsync'd
  JSONL write-ahead journal with deterministic sequence numbers and a
  :func:`~repro.service.journal.replay` that reconstructs the exact
  pre-crash state, batch boundaries notwithstanding; plus
  :mod:`repro.service.snapshot`: atomic CRC-checksummed snapshots and
  journal compaction, so recovery is bounded by the tail length
  (newest snapshot + tail, degrading to older snapshots and full
  replay when a rung is corrupt);
* **engine** -- :class:`~repro.service.engine.MicroBatchEngine`:
  coalesces assignment requests and re-solves the un-frozen remainder
  under a budget with the degradation ladder as fallback, behind
  bounded-queue admission control;
* **front-end** -- :mod:`repro.service.http` (stdlib
  ``ThreadingHTTPServer`` JSON API, the one sanctioned home of
  ``http.server`` under rule R8) plus :mod:`repro.service.loadgen`
  (``geacc replay``: timeline-driven load generation with latency
  percentiles and clairvoyant-bound quality ratios).
"""

from repro.service.engine import MicroBatchEngine, PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.journal import (
    JOURNAL_FORMAT,
    REAL_FS,
    FileSystem,
    Journal,
    RecoveryReport,
    atomic_write_bytes,
    replay,
)
from repro.service.loadgen import ReplayReport, replay_timeline
from repro.service.sharding import (
    ConflictPartitioner,
    ShardCoordinator,
    ShardManager,
    ShardManifest,
    shardable_instance,
    shardable_timeline,
)
from repro.service.snapshot import (
    DEFAULT_RETAIN,
    SNAPSHOT_FORMAT,
    CompactionStats,
    compact,
    list_snapshots,
    load_snapshot,
    recover_state,
    write_snapshot,
)
from repro.service.store import ArrangementStore, Delta, StoreConfig

__all__ = [
    "ArrangementService",
    "ArrangementStore",
    "CompactionStats",
    "ConflictPartitioner",
    "DEFAULT_RETAIN",
    "Delta",
    "FileSystem",
    "Journal",
    "JOURNAL_FORMAT",
    "MicroBatchEngine",
    "PendingRequest",
    "REAL_FS",
    "RecoveryReport",
    "ReplayReport",
    "SNAPSHOT_FORMAT",
    "ShardCoordinator",
    "ShardManager",
    "ShardManifest",
    "StoreConfig",
    "atomic_write_bytes",
    "compact",
    "list_snapshots",
    "load_snapshot",
    "recover_state",
    "replay",
    "replay_timeline",
    "shardable_instance",
    "shardable_timeline",
    "write_snapshot",
]
