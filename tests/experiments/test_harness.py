"""Tests for the experiment harness (config, metrics, runner, reporting)."""

import pytest

from repro.experiments.config import SCALES, get_scale
from repro.experiments.metrics import measure
from repro.experiments.reporting import format_table
from repro.experiments.runner import Record, Sweep, run_cell, sweep_parameter
from repro.datagen.synthetic import SyntheticConfig, generate_instance


class TestConfig:
    def test_scales_exist(self):
        for name in ("paper", "scaled", "smoke"):
            assert name in SCALES
            assert SCALES[name].name == name

    def test_paper_grids_match_table_iii(self):
        paper = SCALES["paper"]
        assert paper.v_grid == (20, 50, 100, 200, 500)
        assert paper.u_grid == (100, 200, 500, 1000, 2000, 5000)
        assert paper.d_grid == (2, 5, 10, 15, 20)
        assert paper.cf_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert paper.cv_max_grid == (10, 20, 50, 100, 200)
        assert paper.cu_max_grid == (2, 4, 6, 8, 10)
        assert paper.scalability_u_grid[-1] == 100_000

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale("smoke").name == "smoke"

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("galactic")


class TestMetrics:
    def test_measure_returns_result(self):
        run = measure(lambda: 41 + 1, memory=False)
        assert run.result == 42
        assert run.seconds >= 0
        assert run.peak_mb is None

    def test_measure_memory(self):
        run = measure(lambda: [0] * 100_000, memory=True)
        assert run.peak_mb is not None
        assert run.peak_mb > 0.1


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.34567], [None, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.346" in text
        assert lines[3].startswith("-")  # None rendered as dash

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestRunner:
    def test_run_cell_validates(self):
        instance = generate_instance(
            SyntheticConfig(n_events=5, n_users=15, cv_high=4), 0
        )
        cell = run_cell(lambda x, seed: instance, None, 0, "greedy", memory=False)
        assert cell.ok and cell.outcome == "optimal"
        assert cell.solver == "greedy"
        assert cell.max_sum > 0
        assert cell.n_pairs >= 1

    def test_sweep_parameter_shapes(self):
        sweep = sweep_parameter(
            "test sweep",
            "|V|",
            [3, 5],
            lambda x, seed: generate_instance(
                SyntheticConfig(n_events=x, n_users=10, cv_high=3), seed
            ),
            solvers=("greedy", "random-v"),
            repeats=2,
            memory=False,
        )
        assert len(sweep.records) == 4  # 2 grid points x 2 solvers
        assert sweep.solvers() == ["greedy", "random-v"]
        greedy_series = sweep.series("greedy", "max_sum")
        assert [x for x, _ in greedy_series] == [3, 5]

    def test_sweep_render_contains_panels(self):
        sweep = Sweep("demo", "x")
        sweep.records.append(Record("a", "greedy", 1.0, 0.1, 2.0, 3.0))
        text = sweep.render()
        assert "MaxSum" in text
        assert "running time" in text
        assert "peak memory" in text
        assert "greedy" in text
