"""``geacc replay``: timeline load generation, scoring, CLI wiring."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.bounds import relaxation_bound
from repro.core.conflicts import ConflictGraph
from repro.core.model import Instance
from repro.datagen.synthetic import generate_instance
from repro.exceptions import ServiceError
from repro.experiments.config import get_scale
from repro.service.loadgen import replay_timeline
from repro.simulation.workload import random_timeline


def small_workload(seed: int = 0):
    instance = generate_instance(get_scale("smoke").default, seed)
    rng = np.random.default_rng(seed)
    timeline = random_timeline(instance, rng, horizon=50.0)
    return instance, timeline


def test_replay_reports_latency_and_quality(tmp_path: Path) -> None:
    instance, timeline = small_workload()
    report = replay_timeline(instance, timeline, tmp_path / "fleet")
    assert report.n_requests == instance.n_users
    assert report.n_batches >= 1
    assert report.replay_verified
    assert 0 < report.p50_ms <= report.p99_ms <= report.max_ms
    assert 0 < report.achieved_max_sum <= report.bound + 1e-9
    assert 0 < report.ratio <= 1.0 + 1e-9
    assert report.bound == pytest.approx(float(relaxation_bound(instance)))
    rendered = report.render()
    assert "ratio" in rendered and "p99" in rendered
    payload = report.to_json()
    assert payload["ratio"] == report.ratio
    assert payload["latency_ms"]["p50"] == report.p50_ms


def test_micro_batching_beats_greedy_arrival_baseline(tmp_path: Path) -> None:
    # The acceptance bar: on the default random_timeline workload the
    # re-solving engine must be at least as good as first-come
    # first-served greedy on the same timeline and seed.
    instance, timeline = small_workload(seed=0)
    report = replay_timeline(instance, timeline, tmp_path / "fleet")
    assert report.ratio >= report.baseline_ratio - 1e-12


def test_a_metric_the_service_does_not_serve_writes_nothing(tmp_path: Path) -> None:
    instance, timeline = small_workload()
    dot = Instance(
        instance.event_capacities,
        instance.user_capacities,
        instance.conflicts,
        event_attributes=instance.event_attributes,
        user_attributes=instance.user_attributes,
        t=instance.t,
        metric="dot",
    )
    with pytest.raises(ServiceError, match="metric 'dot'"):
        replay_timeline(dot, timeline, tmp_path / "fleet")
    assert not (tmp_path / "fleet").exists()


def test_matrix_only_instances_are_rejected(tmp_path: Path) -> None:
    instance = Instance.from_matrix(
        np.array([[0.5]]),
        np.array([1]),
        np.array([1]),
        ConflictGraph(1, []),
    )
    timeline = random_timeline(instance, np.random.default_rng(0), horizon=50.0)
    with pytest.raises(ServiceError, match="attribute-backed"):
        replay_timeline(instance, timeline, tmp_path / "fleet")


def test_unknown_bound_is_rejected(tmp_path: Path) -> None:
    instance, timeline = small_workload()
    with pytest.raises(ServiceError, match="unknown bound"):
        replay_timeline(
            instance, timeline, tmp_path / "fleet", bound="psychic"
        )


def test_cli_replay_runs_and_gates_on_baseline(tmp_path: Path, capsys) -> None:
    journal = tmp_path / "fleet"
    code = main(
        [
            "replay",
            "--events", "8",
            "--users", "40",
            "--seed", "0",
            "--horizon", "50",
            "--journal", str(journal),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "replay verified" in out
    assert "engine >= baseline" in out
    assert journal.exists()


def test_cli_replay_sharded_verifies_every_journal(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "replay",
            "--shards", "2",
            "--components", "4",
            "--events", "8",
            "--users", "40",
            "--seed", "0",
            "--journal", str(tmp_path / "fleet"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "replay verified" in out
    assert "sharding: 2 shards" in out


def test_one_shard_replay_scopes_every_batch_after_the_first(tmp_path: Path) -> None:
    """Tripwire: a refactor that makes every batch fall back to the full
    re-solve passes every exactness test; this catches it."""
    from repro.service.sharding import shardable_instance, shardable_timeline

    instance = shardable_instance(8, 3, 12)
    report = replay_timeline(
        instance, shardable_timeline(instance), tmp_path / "fleet", shards=1
    )
    assert report.engine is not None
    assert report.engine["batches"] == report.n_requests
    assert report.engine["scoped"] == report.engine["batches"] - 1
    assert f"scoped={report.n_requests - 1}/{report.n_requests}" in report.render()
