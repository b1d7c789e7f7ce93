"""R13 -- suppression hygiene: every disable carries its why.

A ``# geacc-lint: disable=Rn`` comment is a reviewed exception to an
invariant this package exists to defend; without a recorded reason the
review evaporates -- six months later nobody can tell a justified
exception (an integrality check that must compare floats exactly) from
a silenced bug.  So every directive must carry ``reason=<free text>``::

    if raw != np.floor(raw):  # geacc-lint: disable=R2 reason=floor is exact

A bare directive still suppresses its rules (silencing is not held
hostage to wording), but becomes a finding itself at the directive's
location.  R13 findings are **unsuppressible** -- marked via
:attr:`~repro.analysis.registry.Rule.suppressible` and enforced by the
engine's filter -- because a rule about suppression comments that a
suppression comment can silence audits nothing.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule
from repro.analysis.registry import Rule, register_rule


@register_rule
class SuppressionHygieneRule(Rule):
    """Flag ``geacc-lint`` directives that omit ``reason=``."""

    rule_id = "R13"
    title = "suppressions must carry reason=<why this exception is safe>"
    rationale = (
        "a suppression is a reviewed exception; without the recorded "
        "reason the audit trail is gone and silenced bugs look identical "
        "to justified exceptions"
    )
    suppressible = False

    def check_module(self, module: ParsedModule) -> Iterator[Diagnostic]:
        for directive in module.suppressions.directives:
            if directive.reason:
                continue
            listed = ",".join(sorted(directive.rules))
            yield Diagnostic(
                path=module.display_path,
                line=directive.line,
                col=directive.col,
                rule_id=self.rule_id,
                message=(
                    f"suppression of {listed} has no reason= clause; write "
                    f"`# geacc-lint: {directive.scope}={listed} "
                    "reason=<why this exception is safe>`"
                ),
            )
