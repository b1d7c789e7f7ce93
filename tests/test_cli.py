"""Tests for the ``geacc`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out
    assert "fig6-pruning" in out
    assert "auckland" in out


def test_solve_synthetic(capsys):
    code = main([
        "solve", "--events", "6", "--users", "20", "--cv-max", "4",
        "--algorithms", "greedy", "random-v",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "greedy" in out
    assert "MaxSum=" in out
    assert "random-v" in out


def test_solve_city(capsys):
    code = main(["solve", "--city", "auckland", "--algorithms", "greedy"])
    assert code == 0
    assert "MaxSum=" in capsys.readouterr().out


def test_solve_with_memory_flag(capsys):
    code = main([
        "solve", "--events", "4", "--users", "10", "--algorithms", "greedy",
        "--memory",
    ])
    assert code == 0
    assert "peak=" in capsys.readouterr().out


def test_experiment_smoke(capsys, monkeypatch):
    code = main(["experiment", "fig3-conflicts", "--scale", "smoke"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MaxSum" in out
    assert "cf_ratio" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_unknown_algorithm_rejected():
    with pytest.raises(SystemExit):
        main(["solve", "--algorithms", "magic"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_rejects_negative_jobs(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "fig3-events", "--scale", "smoke", "--jobs", "-1",
            "--checkpoint", str(tmp_path / "sweep.jsonl"),
        ])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_generate_and_solve_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "instance.json")
    assert main([
        "generate", "--events", "5", "--users", "15", "--cv-max", "4",
        "--output", path,
    ]) == 0
    out_path = str(tmp_path / "arrangement.json")
    assert main([
        "solve", "--input", path, "--algorithms", "greedy", "random-v",
        "--output", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "written to" in out
    import json

    payload = json.loads(open(out_path).read())
    assert payload["pairs"]


def test_generate_npz(capsys, tmp_path):
    path = str(tmp_path / "instance.npz")
    assert main(["generate", "--events", "4", "--users", "8", "--output", path]) == 0
    assert main(["solve", "--input", path]) == 0
    assert "MaxSum=" in capsys.readouterr().out


def test_reproduce_subset(capsys, tmp_path):
    out = str(tmp_path / "report.md")
    assert main([
        "reproduce", "--scale", "smoke",
        "--figures", "fig3-conflicts", "fig6-pruning",
        "--output", out,
    ]) == 0
    text = open(out).read()
    assert "# GEACC reproduction report" in text
    assert "Table I" in text
    assert "fig3-conflicts" in text
    assert "fig6-pruning" in text
    assert "fig4-real" not in text  # subset respected


def test_reproduce_prints_without_output(capsys):
    assert main([
        "reproduce", "--scale", "smoke", "--figures", "fig3-dimension",
    ]) == 0
    assert "fig3-dimension" in capsys.readouterr().out


def test_simulate(capsys):
    assert main([
        "simulate", "--events", "8", "--users", "40", "--cv-max", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "greedy-arrival" in out
    assert "rebatch" in out
    assert "MaxSum" in out


def test_solve_scenario(capsys):
    assert main([
        "solve", "--scenario", "conference", "--algorithms", "greedy",
    ]) == 0
    assert "MaxSum=" in capsys.readouterr().out


def test_info_lists_scenarios(capsys):
    assert main(["info"]) == 0
    assert "festival" in capsys.readouterr().out
