"""``geacc bench``: tiered reports, regression gating, CLI wiring."""

import json
from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.experiments.bench import (
    BenchReport,
    TierReport,
    XL_FLOW_CONFIG,
    XL_STREAM_CONFIG,
    _tier_workloads,
    compare_reports,
    load_report,
    merge_reports,
    run_bench,
    speedup_summary,
    write_report,
)

BENCH_SOLVERS = ("greedy", "random-u")


@pytest.fixture(scope="module")
def quick_report() -> BenchReport:
    return run_bench(solvers=BENCH_SOLVERS, quick=True, scale="smoke")


def _only_tier(report: BenchReport) -> TierReport:
    assert len(report.tiers) == 1
    return report.tiers[0]


def test_quick_run_times_every_solver(quick_report: BenchReport) -> None:
    tier = _only_tier(quick_report)
    assert tier.tier == "smoke"
    assert tuple(r.solver for r in tier.results) == BENCH_SOLVERS
    for result in tier.results:
        assert result.repeats == 1
        assert result.seconds_min > 0
        assert result.seconds_min <= result.seconds_mean
        assert result.outcome == "optimal"
        assert result.n_events > 0 and result.n_users > 0


def test_report_round_trips_through_json(
    quick_report: BenchReport, tmp_path: Path
) -> None:
    path = tmp_path / "bench.json"
    write_report(quick_report, path)
    loaded = load_report(path)
    tier = _only_tier(loaded)
    original_tier = _only_tier(quick_report)
    assert tier.tier == original_tier.tier
    assert tier.seed == original_tier.seed
    assert {r.solver for r in tier.results} == set(BENCH_SOLVERS)
    for result in tier.results:
        original = original_tier.result_for(result.solver)
        assert original is not None
        assert result == original


def test_render_mentions_workload_and_solvers(quick_report: BenchReport) -> None:
    table = quick_report.render()
    assert "tier=smoke" in table
    for name in BENCH_SOLVERS:
        assert name in table


def test_identical_reports_pass_the_gate(quick_report: BenchReport) -> None:
    assert compare_reports(quick_report, quick_report) == []


def test_slowdown_beyond_factor_is_a_regression(quick_report: BenchReport) -> None:
    data = quick_report.to_json()
    for entry in data["tiers"]["smoke"]["solvers"].values():
        entry["seconds_min"] /= 10.0
    baseline = BenchReport.from_json(data)
    messages = compare_reports(quick_report, baseline, max_regression=2.0)
    assert len(messages) == len(BENCH_SOLVERS)
    assert all("x > 2x" in m for m in messages)
    assert all(m.startswith("smoke/") for m in messages)


def test_seed_mismatch_is_never_ratioed(quick_report: BenchReport) -> None:
    data = quick_report.to_json()
    data["tiers"]["smoke"]["seed"] = _only_tier(quick_report).seed + 1
    baseline = BenchReport.from_json(data)
    messages = compare_reports(quick_report, baseline)
    assert len(messages) == 1
    assert "regenerate the baseline" in messages[0]


def test_shape_mismatch_is_never_ratioed(quick_report: BenchReport) -> None:
    data = quick_report.to_json()
    entry = data["tiers"]["smoke"]["solvers"]["greedy"]
    entry["n_users"] += 1
    entry["seconds_min"] /= 100.0  # would be a huge "regression" if ratioed
    baseline = BenchReport.from_json(data)
    messages = compare_reports(quick_report, baseline)
    assert len(messages) == 1
    assert "workload mismatch" in messages[0]
    assert "regenerate the baseline" in messages[0]


def test_new_and_retired_solvers_are_ignored(quick_report: BenchReport) -> None:
    data = quick_report.to_json()
    del data["tiers"]["smoke"]["solvers"]["random-u"]
    baseline = BenchReport.from_json(data)
    assert compare_reports(quick_report, baseline) == []


def test_tiers_gate_independently(quick_report: BenchReport) -> None:
    # A regressed seed-scale tier must be reported even when the current
    # report also carries a brand-new tier absent from the baseline: the
    # per-tier diff means added tiers can never mask a regression.
    smoke = _only_tier(quick_report)
    extra = TierReport(tier="xl", seed=smoke.seed, repeats=1, results=smoke.results)
    current = BenchReport(python=quick_report.python, tiers=(smoke, extra))
    data = quick_report.to_json()
    for entry in data["tiers"]["smoke"]["solvers"].values():
        entry["seconds_min"] /= 10.0
    baseline = BenchReport.from_json(data)
    messages = compare_reports(current, baseline, max_regression=2.0)
    assert len(messages) == len(BENCH_SOLVERS)
    assert all(m.startswith("smoke/") for m in messages)


def test_single_tier_write_preserves_other_tiers(
    quick_report: BenchReport, tmp_path: Path
) -> None:
    smoke = _only_tier(quick_report)
    other = TierReport(tier="xl", seed=smoke.seed, repeats=1, results=smoke.results)
    path = tmp_path / "bench.json"
    write_report(BenchReport(python="3.0.0", tiers=(other,)), path)
    write_report(quick_report, path)
    merged = load_report(path)
    assert [tier.tier for tier in merged.tiers] == ["smoke", "xl"]
    assert merged.tier_for("smoke") == smoke
    assert merged.tier_for("xl") == other
    assert merged.python == quick_report.python


def test_merge_replaces_same_named_tier(quick_report: BenchReport) -> None:
    smoke = _only_tier(quick_report)
    stale = TierReport(tier="smoke", seed=smoke.seed + 7, repeats=3, results=())
    merged = merge_reports(
        BenchReport(python="3.0.0", tiers=(stale,)), quick_report
    )
    assert merged.tier_for("smoke") == smoke


def test_v1_reports_are_lifted_to_one_tier(
    quick_report: BenchReport, tmp_path: Path
) -> None:
    tier = _only_tier(quick_report)
    solver = tier.results[0]
    v1 = {
        "format": "geacc-bench-v1",
        "scale": "scaled",
        "seed": tier.seed,
        "n_events": solver.n_events,
        "n_users": solver.n_users,
        "repeats": 1,
        "python": "3.11.0",
        "solvers": {
            solver.solver: {
                "repeats": 1,
                "seconds_min": solver.seconds_min,
                "seconds_mean": solver.seconds_mean,
                "nodes": solver.nodes,
                "max_sum": solver.max_sum,
                "n_pairs": solver.n_pairs,
                "outcome": solver.outcome,
            }
        },
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1), encoding="utf-8")
    lifted = load_report(path)
    lifted_tier = lifted.tier_for("scaled")
    assert lifted_tier is not None
    lifted_solver = lifted_tier.result_for(solver.solver)
    assert lifted_solver is not None
    assert lifted_solver.n_events == solver.n_events
    assert lifted_solver.n_users == solver.n_users
    assert lifted_solver.seconds_min == solver.seconds_min


def test_speedup_summary_reads_both_directions(quick_report: BenchReport) -> None:
    data = quick_report.to_json()
    solvers = data["tiers"]["smoke"]["solvers"]
    solvers["greedy"]["seconds_min"] = (
        _only_tier(quick_report).result_for("greedy").seconds_min * 4.0
    )
    baseline = BenchReport.from_json(data)
    lines = speedup_summary(quick_report, baseline)
    assert len(lines) == len(BENCH_SOLVERS)
    greedy_line = next(line for line in lines if "greedy" in line)
    assert "4.00x faster" in greedy_line
    random_line = next(line for line in lines if "random-u" in line)
    assert "1.00x faster" in random_line


def test_speedup_summary_skips_mismatched_shapes(
    quick_report: BenchReport,
) -> None:
    data = quick_report.to_json()
    data["tiers"]["smoke"]["solvers"]["greedy"]["n_users"] += 1
    baseline = BenchReport.from_json(data)
    lines = speedup_summary(quick_report, baseline)
    assert not any("greedy" in line for line in lines)


def test_xl_tier_spec_stays_matrix_free() -> None:
    workloads = _tier_workloads("xl")
    by_solver = {s: w for w in workloads for s in w.solvers}
    stream = by_solver["greedy"]
    assert stream.config == XL_STREAM_CONFIG
    assert not stream.materialise_sims, (
        "the xl streaming workload must never materialise its 10^8-cell matrix"
    )
    assert set(stream.solvers) == {"greedy", "random-v", "random-u"}
    flow = by_solver["mincostflow"]
    assert flow.config == XL_FLOW_CONFIG
    assert flow.materialise_sims


def test_foreign_json_is_rejected(tmp_path: Path) -> None:
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(ReproError, match="geacc-bench-v2"):
        load_report(path)


def test_missing_file_is_a_repro_error(tmp_path: Path) -> None:
    with pytest.raises(ReproError, match="cannot read"):
        load_report(tmp_path / "absent.json")


def test_bad_repeats_rejected() -> None:
    with pytest.raises(ValueError, match="repeats"):
        run_bench(solvers=BENCH_SOLVERS, repeats=0, scale="smoke")


def test_committed_baseline_is_loadable_and_current_format() -> None:
    baseline = Path(__file__).resolve().parents[2] / "BENCH_solvers.json"
    report = load_report(baseline)
    scaled = report.tier_for("scaled")
    assert scaled is not None and scaled.results, (
        "committed baseline must carry seed-scale solver timings"
    )
    assert set(json.loads(baseline.read_text())["tiers"]["scaled"]) == {
        "seed", "repeats", "solvers"
    }, "the serving paths are benchmarked by bench/, not BENCH_solvers.json"
    xl = report.tier_for("xl")
    assert xl is not None and xl.result_for("greedy") is not None, (
        "committed baseline must carry the xl stress tier"
    )


def test_reports_with_retired_service_sections_load_and_compare(
    quick_report: BenchReport, tmp_path: Path
) -> None:
    # Baselines written while geacc bench also timed the serving paths
    # carry ``service`` / ``sharded_service`` keys (v2 per tier, v1 at the
    # top level); they must still load and gate on their solver timings.
    retired = {
        "service": {"append_seconds": 1e-4, "request_p50": 4e-3},
        "sharded_service": {"n_components": 24, "runs": {"1": {"seconds": 0.6}}},
    }
    v2 = quick_report.to_json()
    v2["tiers"]["smoke"].update(retired)
    tier = _only_tier(quick_report)
    solver = tier.results[0]
    v1 = {
        "format": "geacc-bench-v1",
        "scale": "smoke",
        "seed": tier.seed,
        "n_events": solver.n_events,
        "n_users": solver.n_users,
        "repeats": 1,
        "solvers": {
            solver.solver: {
                key: value
                for key, value in solver.to_json().items()
                if key not in ("n_events", "n_users")
            }
        },
        **retired,
    }
    for name, data in (("v2", v2), ("v1", v1)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        baseline = load_report(path)
        assert _only_tier(baseline).result_for(solver.solver) == solver
        assert compare_reports(quick_report, baseline) == []
        assert speedup_summary(quick_report, baseline)
