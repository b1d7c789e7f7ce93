"""R11: checkpoint-in-hot-loop over its fixture packs.

The packs mirror the rule's directory scoping: the fixtures live under
``algorithms/`` and are linted as trees, so the scope check is part of
what is tested.
"""

from __future__ import annotations

from repro.analysis import run_lint
from tests.analysis.conftest import FIXTURES, REPO_ROOT, hits, lint

BAD = FIXTURES / "checkpoint_bad"
GOOD = FIXTURES / "checkpoint_good"


def test_r11_flags_uncheckpointed_budget_loops() -> None:
    findings = lint(BAD, select=["R11"])
    assert hits(findings) == [
        ("R11", 6),   # budget parameter, no checkpoint in the loop
        ("R11", 14),  # self._budget user, no checkpoint in the loop
    ]
    assert all(d.path.endswith("algorithms/checkpoint_bad.py") for d in findings)


def test_checkpoint_good_pack_is_clean_under_all_rules() -> None:
    assert lint(GOOD) == []


def test_rule_is_scoped_to_its_directory() -> None:
    # Linted as a bare file, the algorithms/ scope is gone and R11 stays
    # silent.
    assert lint(BAD / "algorithms" / "checkpoint_bad.py", select=["R11"]) == []


def test_live_source_tree_is_checkpoint_clean() -> None:
    assert run_lint([REPO_ROOT / "src" / "repro"], select=["R11"]) == []
