"""CLI surface of the anytime harness: exit codes and the sweep command."""

from __future__ import annotations

from repro.cli import EXIT_TIMEOUT, main


def test_solve_without_budget_exits_zero(capsys):
    code = main(["solve", "--events", "6", "--users", "20",
                 "--algorithms", "greedy"])
    assert code == 0
    assert "outcome" not in capsys.readouterr().out


def test_solve_under_deadline_exits_124(capsys):
    # Fig. 6-scale instance, 50 ms deadline: prune answers with its
    # anytime best-so-far and the process signals the timeout.
    code = main(["solve", "--events", "20", "--users", "150",
                 "--algorithms", "prune", "--timeout", "0.05"])
    assert code == EXIT_TIMEOUT == 124
    out = capsys.readouterr().out
    assert "feasible-timeout" in out
    assert "MaxSum" in out


def test_solve_with_generous_budget_exits_zero(capsys):
    code = main(["solve", "--events", "6", "--users", "20",
                 "--algorithms", "greedy", "--timeout", "60"])
    assert code == 0
    assert "outcome=optimal" in capsys.readouterr().out


def test_solve_node_budget_reports_outcome(capsys):
    code = main(["solve", "--events", "6", "--users", "20",
                 "--algorithms", "greedy", "--node-budget", "3"])
    assert code == EXIT_TIMEOUT
    assert "outcome=feasible-timeout" in capsys.readouterr().out


def test_sweep_command_checkpoints_and_resumes(tmp_path, capsys):
    path = str(tmp_path / "sweep.jsonl")
    args = ["sweep", "fig3-events", "--checkpoint", path,
            "--scale", "smoke", "--solvers", "greedy"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "MaxSum" in first

    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    # MaxSum series are deterministic, so the resumed (fully cached)
    # sweep renders the same table values.
    assert first.splitlines()[:5] == second.splitlines()[:5]


def test_sweep_command_rejects_uncheckpointable_figure(tmp_path, capsys):
    code = main(["sweep", "fig6-pruning",
                 "--checkpoint", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "does not support checkpointing" in capsys.readouterr().err
    # Fig. 5 sweeps run a fixed solver set; --solvers cannot override it.
    code = main(["sweep", "fig5-effectiveness",
                 "--checkpoint", str(tmp_path / "x.jsonl"),
                 "--scale", "smoke", "--solvers", "greedy"])
    assert code == 2
    assert "has a fixed solver set" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()
