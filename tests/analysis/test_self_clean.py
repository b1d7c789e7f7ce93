"""Acceptance gate: the shipped tree lints clean under its own rules.

This is the executable form of "geacc-lint src/repro exits 0": a change
that introduces unseeded randomness, exact float objective equality, a
set-fed tie-break, untyped core API, an unreasoned suppression, a raw
service write, an uncheckpointed solver loop or a per-element kernel
loop fails tier-1 here, not just in CI.
"""

from repro.analysis import run_lint
from tests.analysis.conftest import REPO_ROOT


def test_src_repro_lints_clean() -> None:
    findings = run_lint([REPO_ROOT / "src" / "repro"])
    rendered = "\n".join(d.render() for d in findings)
    assert findings == [], f"geacc-lint findings:\n{rendered}"
