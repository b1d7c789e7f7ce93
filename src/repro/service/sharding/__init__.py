"""`repro.service.sharding`: conflict-graph-structured service sharding.

Partitions the online service by connected components of the conflict
graph (``docs/service.md``, "Sharding"). Three pieces, plus a file layout:

* :class:`~repro.service.sharding.partitioner.ConflictPartitioner` --
  incremental union-find over conflict edges; detects the component
  merges that force cross-shard migrations;
* :class:`~repro.service.sharding.manifest.ShardManifest` -- the
  coordinator's fsync'd placement log (written ahead of every shard
  journal append);
* :class:`~repro.service.sharding.coordinator.ShardCoordinator` -- the
  routing layer every front end holds (``geacc serve``, HTTP, ``geacc
  replay``, ``geacc compact``; an unsharded deployment is one shard).
  It drives one :class:`~repro.service.frontend.ArrangementService`
  per shard, holds the global<->local id tables, serialises the rare
  cross-shard rebalance and recovers each shard independently;
* :class:`~repro.service.sharding.manager.ShardManager` -- where each
  shard's journal and snapshot directory live under the fleet root.

:mod:`~repro.service.sharding.workload` generates the clustered,
partition-respecting universes the scaling benchmarks and equivalence
tests drive.

This package is the *only* doorway into a shard's internals: the
coordinator keeps its per-shard services private (``_shards``) and no
public attribute of it holds a service, store or journal
(``tests/service/sharding/test_coordinator.py``), so outside code can
only reach a shard through the coordinator's command methods.
"""

from repro.service.sharding.coordinator import (
    MANIFEST_NAME,
    ShardCoordinator,
    ShardedCompactionStats,
)
from repro.service.sharding.manager import ShardManager
from repro.service.sharding.manifest import MANIFEST_FORMAT, ShardManifest
from repro.service.sharding.partitioner import ConflictPartitioner
from repro.service.sharding.workload import shardable_instance, shardable_timeline

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "ConflictPartitioner",
    "ShardCoordinator",
    "ShardManager",
    "ShardManifest",
    "ShardedCompactionStats",
    "shardable_instance",
    "shardable_timeline",
]
