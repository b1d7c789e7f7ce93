"""The shard fleet's file layout under its root directory.

Each shard is one :class:`~repro.service.frontend.ArrangementService`
with its own journal and snapshot directory, next to the coordinator's
``manifest.jsonl``; :class:`ShardManager` names those paths. The
shards themselves, and the global<->local id tables over them, belong
to :class:`~repro.service.sharding.coordinator.ShardCoordinator`.
"""

from __future__ import annotations

from pathlib import Path


class ShardManager:
    """Where shard ``shard_id`` of the fleet at ``root`` keeps its files."""

    @staticmethod
    def journal_path(root: Path, shard_id: int) -> Path:
        return root / f"shard-{shard_id:02d}.jsonl"

    @staticmethod
    def snapshot_dir(root: Path, shard_id: int) -> Path:
        return root / f"shard-{shard_id:02d}.snapshots"
