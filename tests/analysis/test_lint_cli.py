"""The geacc-lint console entry point and the `geacc lint` subcommand."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as geacc_main
from tests.analysis.conftest import FIXTURES

#: Fixture packs of the two directory-scoped rules that survive, R11
#: (under ``algorithms/``) and R14 (under ``service/``), linted together.
SCOPED_PACKS = [str(FIXTURES / "checkpoint_bad"), str(FIXTURES / "atomicio_bad")]


def test_exit_zero_on_clean_tree(capsys: pytest.CaptureFixture) -> None:
    code = lint_main([str(FIXTURES / "determinism_good.py")])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_diagnostics_on_findings(capsys: pytest.CaptureFixture) -> None:
    code = lint_main([str(FIXTURES / "determinism_bad.py"), "--select", "R1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "determinism_bad.py:14:" in out
    assert "R1" in out


def test_statistics_footer(capsys: pytest.CaptureFixture) -> None:
    code = lint_main(
        [str(FIXTURES / "hygiene_bad.py"), "--select", "R5", "--statistics"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "4 finding(s)" in out
    assert "R5: 4" in out


def test_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for number in (1, 2, 4, 5, 11, 13, 14, 15):
        assert f"R{number} " in out
    for retired in (3, 6, 7, 8, 9, 10, 12, 16):  # their ids are not reused
        assert f"R{retired} " not in out


def test_select_runs_the_directory_scoped_rules(
    capsys: pytest.CaptureFixture,
) -> None:
    code = lint_main([*SCOPED_PACKS, "--select", "R11,R14"])
    assert code == 1
    out = capsys.readouterr().out
    for rule_id in ("R11", "R14"):
        assert rule_id in out


def test_unknown_rule_id_is_a_usage_error(capsys: pytest.CaptureFixture) -> None:
    code = lint_main([str(FIXTURES / "determinism_good.py"), "--select", "R99"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_empty_select_is_a_usage_error(capsys: pytest.CaptureFixture) -> None:
    # --select "" would otherwise run zero rules and report any tree clean.
    code = lint_main([str(FIXTURES / "determinism_bad.py"), "--select", ""])
    assert code == 2
    assert "names no rules" in capsys.readouterr().err


def test_ignore_flag(capsys: pytest.CaptureFixture) -> None:
    code = lint_main(
        [str(FIXTURES / "determinism_bad.py"), "--ignore", "R1,R5"]
    )
    assert code == 0


def test_geacc_lint_subcommand(capsys: pytest.CaptureFixture) -> None:
    bad = geacc_main(["lint", str(FIXTURES / "hygiene_bad.py"), "--select", "R5"])
    assert bad == 1
    good = geacc_main(["lint", str(FIXTURES / "hygiene_good.py")])
    assert good == 0


def test_geacc_lint_subcommand_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert geacc_main(["lint", "--list-rules"]) == 0
    assert "R4" in capsys.readouterr().out


def test_syntax_error_exits_one(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n    pass\n")
    assert lint_main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "E0" in out and "syntax error" in out


def test_json_format_emits_one_object_per_line(
    capsys: pytest.CaptureFixture,
) -> None:
    code = lint_main(
        [str(FIXTURES / "determinism_bad.py"), "--select", "R1", "--format", "json"]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"rule", "path", "line", "col", "message", "suppressed"}
        assert record["rule"] == "R1"
        assert record["suppressed"] is False
        assert record["path"].endswith("determinism_bad.py")
        assert isinstance(record["line"], int) and isinstance(record["col"], int)


def test_json_format_includes_suppressed_findings_without_failing(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # geacc-lint: disable=R1 reason=demo\n"
    )
    code = lint_main([str(target), "--select", "R1", "--format", "json"])
    assert code == 0  # suppressed findings never fail the run
    [line] = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert record["rule"] == "R1"
    assert record["suppressed"] is True
    # Text mode hides the same finding entirely.
    assert lint_main([str(target), "--select", "R1"]) == 0
    assert capsys.readouterr().out == ""


def test_exclude_skips_matching_subtrees(capsys: pytest.CaptureFixture) -> None:
    bad = lint_main([str(FIXTURES / "checkpoint_bad"), "--select", "R11"])
    assert bad == 1
    capsys.readouterr()
    code = lint_main(
        [str(FIXTURES / "checkpoint_bad"), "--select", "R11", "--exclude", "algorithms"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def test_exclude_matches_single_files(capsys: pytest.CaptureFixture) -> None:
    code = lint_main(
        [*SCOPED_PACKS, "--select", "R11,R14", "--exclude", "service/writer_bad.py"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "writer_bad.py" not in out
    assert "checkpoint_bad.py" in out


def test_geacc_lint_subcommand_forwards_new_flags(
    capsys: pytest.CaptureFixture,
) -> None:
    code = geacc_main(
        [
            "lint", *SCOPED_PACKS,
            "--select", "R11,R14",
            "--format", "json",
            "--exclude", "service",
        ]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(json.loads(line)["rule"] == "R11" for line in lines)
