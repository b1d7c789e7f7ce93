"""Engine behaviour: suppressions, syntax errors, rule table, selection."""

from pathlib import Path

import pytest

from repro.analysis import RULES, load_rules, run_lint
from repro.analysis.registry import Rule, register_rule
from repro.analysis.suppress import parse_suppressions
from tests.analysis.conftest import FIXTURES, hits


BAD_RNG = "import numpy as np\nrng = np.random.default_rng()\n"


def test_line_suppression_silences_one_rule(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # geacc-lint: disable=R1 reason=test\n"
    )
    assert run_lint([target]) == []


def test_line_suppression_is_rule_specific(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # geacc-lint: disable=R4 reason=test\n"
    )
    assert hits(run_lint([target])) == [("R1", 2)]


def test_bare_disable_silences_all_rules_on_the_line(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # geacc-lint: disable reason=test\n"
    )
    assert run_lint([target]) == []


def test_file_level_suppression(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text("# geacc-lint: disable-file=R1 reason=test\n" + BAD_RNG)
    assert run_lint([target]) == []


def test_suppression_parser_handles_lists() -> None:
    index = parse_suppressions(["x = 1  # geacc-lint: disable=R1, R2 reason=test"])
    assert index.is_suppressed(1, "R1")
    assert index.is_suppressed(1, "R2")
    assert not index.is_suppressed(1, "R3")
    assert not index.is_suppressed(2, "R1")


def test_syntax_errors_become_e0_diagnostics(tmp_path: Path) -> None:
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n    pass\n")
    findings = run_lint([target])
    assert len(findings) == 1
    assert findings[0].rule_id == "E0"
    assert "syntax error" in findings[0].message


def test_rule_table_is_complete() -> None:
    load_rules()
    assert set(RULES) == {
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8",
        "R9", "R11", "R12", "R13", "R14", "R15", "R16",
    }
    for rule_id, cls in RULES.items():
        assert cls.rule_id == rule_id
        assert cls.title
        assert cls.rationale


def test_select_and_ignore_filter_rules() -> None:
    assert [r.rule_id for r in load_rules(select=["R1", "R3"])] == ["R1", "R3"]
    assert [r.rule_id for r in load_rules(ignore=["R2"])] == [
        "R1", "R11", "R12", "R13", "R14", "R15", "R16",
        "R3", "R4", "R5", "R6", "R7", "R8", "R9",
    ]


def test_unknown_rule_ids_raise() -> None:
    with pytest.raises(ValueError, match="unknown rule"):
        load_rules(select=["R99"])


def test_duplicate_rule_registration_raises() -> None:
    load_rules()

    class Duplicate(Rule):
        rule_id = "R1"
        title = "dup"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Duplicate)


def test_findings_are_sorted_and_deduplicated() -> None:
    findings = run_lint([FIXTURES / "determinism_bad.py"], select=["R1"])
    assert findings == sorted(findings)
    assert len(findings) == len(set(findings))


def test_directory_discovery_is_recursive(tmp_path: Path) -> None:
    nested = tmp_path / "pkg" / "sub"
    nested.mkdir(parents=True)
    (nested / "mod.py").write_text(BAD_RNG)
    assert hits(run_lint([tmp_path])) == [("R1", 2)]
