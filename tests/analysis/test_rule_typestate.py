"""R9, R11, R12: the CFG/typestate rules over their fixture packs.

The packs mirror the rules' directory scoping: R9/R12 fixtures live
under ``service/``, R11 under ``algorithms/`` -- linted as trees so the
scope check is part of what is tested.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_lint
from tests.analysis.conftest import FIXTURES, REPO_ROOT, hits, lint

BAD = FIXTURES / "typestate_bad"
GOOD = FIXTURES / "typestate_good"


def test_r9_flags_every_unjournaled_mutation() -> None:
    findings = lint(BAD, select=["R9"])
    assert hits(findings) == [
        ("R9", 6),   # no append anywhere
        ("R9", 11),  # append on one branch only
        ("R9", 16),  # one append consumed by the first of two applies
        ("R9", 21),  # zero-iteration loop path never appends
        ("R9", 24),  # append after the mutation
    ]
    assert all(d.path.endswith("service/journal_bad.py") for d in findings)


def test_r11_flags_uncheckpointed_budget_loops() -> None:
    findings = lint(BAD, select=["R11"])
    assert hits(findings) == [
        ("R11", 6),   # budget parameter, no checkpoint in the loop
        ("R11", 14),  # self._budget user, no checkpoint in the loop
    ]
    assert all(d.path.endswith("algorithms/checkpoint_bad.py") for d in findings)


def test_r12_flags_acks_and_returns_with_unflushed_writes() -> None:
    findings = lint(BAD, select=["R12"])
    assert hits(findings) == [
        ("R12", 10),  # send_response after flush (not fsync)
        ("R12", 14),  # plain return with the write unflushed
        ("R12", 20),  # fsync on one branch only
    ]
    by_line = {d.line: d.message for d in findings}
    assert "can return" in by_line[14]
    assert "success response" in by_line[10]
    assert "success response" in by_line[20]


def test_typestate_good_pack_is_clean_under_all_rules() -> None:
    assert lint(GOOD) == []


def test_rules_are_scoped_to_their_directories() -> None:
    # Linted as bare files, the service//algorithms/ scope is gone and
    # the typestate rules stay silent.
    assert lint(BAD / "service" / "journal_bad.py", select=["R9"]) == []
    assert lint(BAD / "service" / "fsync_bad.py", select=["R12"]) == []
    assert lint(BAD / "algorithms" / "checkpoint_bad.py", select=["R11"]) == []


def test_seeded_violation_in_a_frontend_copy_is_caught(tmp_path: Path) -> None:
    """Flip the live write-ahead spine in a scratch copy; R9 must bite.

    This pins the rule to the real service code, not just to synthetic
    fixtures -- without ever touching the live tree.
    """
    source = (REPO_ROOT / "src" / "repro" / "service" / "frontend.py").read_text(
        encoding="utf-8"
    )
    spine = (
        "            record = self.journal.append(cmd, args)\n"
        "            self.store.apply(record)\n"
    )
    assert spine in source, "frontend.py write-ahead spine moved; update the test"
    flipped = source.replace(
        spine,
        "            self.store.apply(args)\n"
        "            record = self.journal.append(cmd, args)\n",
    )
    scratch = tmp_path / "service"
    scratch.mkdir()
    (scratch / "frontend.py").write_text(flipped, encoding="utf-8")

    findings = run_lint([tmp_path], select=["R9"])
    assert findings, "seeded journal-order violation was not detected"
    assert all(d.rule_id == "R9" for d in findings)
    assert any("store.apply" in d.message for d in findings)
    # The untouched copy stays clean, so the finding is the seed itself.
    clean = tmp_path / "clean" / "service"
    clean.mkdir(parents=True)
    (clean / "frontend.py").write_text(source, encoding="utf-8")
    assert run_lint([tmp_path / "clean"], select=["R9"]) == []


def test_live_service_and_parallel_trees_are_typestate_clean() -> None:
    src = REPO_ROOT / "src" / "repro"
    assert run_lint([src], select=["R9", "R11", "R12"]) == []
