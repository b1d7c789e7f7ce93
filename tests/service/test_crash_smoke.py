"""End-to-end crash recovery, in-suite: the CI smoke scenarios verbatim.

Spawns real ``geacc serve`` subprocesses, kills one with SIGKILL and
asserts the journal brings the successor back to the exact pre-crash
state (digest equality against an independent replay). Slow-ish (two
interpreter startups per scenario) but it is the acceptance criterion,
so tier-1 runs all three scenarios too, not just CI.
"""

from pathlib import Path

from repro.service.smoke import run_compaction_smoke, run_smoke


def test_kill9_recovery_preserves_state(tmp_path: Path) -> None:
    run_smoke(workdir=tmp_path)


def test_kill9_mid_compaction_recovers_from_snapshot(tmp_path: Path) -> None:
    run_compaction_smoke(workdir=tmp_path)


def test_kill9_recovery_of_a_shard_fleet(tmp_path: Path) -> None:
    run_smoke(workdir=tmp_path, shards=4)
