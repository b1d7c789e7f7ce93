"""Rule plugin architecture: one rule = one class, registered in a table.

New rules are added by subclassing :class:`Rule`, implementing
:meth:`Rule.check_module` (called once per parsed file), and decorating
with :func:`register_rule`; the engine and CLI pick them up
automatically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.engine import ParsedModule


class Rule:
    """Base class for lint rules.

    Class attributes double as the ``--list-rules`` documentation:

    Attributes:
        rule_id: Stable short identifier (``R1``, ``R2``, ...; retired
            ids are not reused); suppression comments and
            ``--select``/``--ignore`` use it.
        title: One-line summary of what the rule enforces.
        rationale: Why the invariant matters for the GEACC reproduction.
        suppressible: False for rules whose findings ignore
            ``# geacc-lint: disable`` comments (the suppression-hygiene
            rule itself -- else one bare directive could silence the
            audit of bare directives).
    """

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    suppressible: ClassVar[bool] = True

    def check_module(self, module: "ParsedModule") -> Iterator[Diagnostic]:
        """Yield findings local to one file (default: none)."""
        return iter(())


RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global table."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"rule id {cls.rule_id!r} already registered")
    RULES[cls.rule_id] = cls
    return cls


def load_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Instantiate registered rules, honouring ``--select``/``--ignore``.

    Importing :mod:`repro.analysis.rules` populates the table as a side
    effect, so callers never have to enumerate rule modules.
    """
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    selected = set(select) if select is not None else None
    ignored = set(ignore) if ignore is not None else set()
    unknown = ((selected or set()) | ignored) - set(RULES)
    if unknown:
        known = ", ".join(sorted(RULES))
        raise ValueError(f"unknown rule id(s) {sorted(unknown)}; known: {known}")
    active = []
    for rule_id in sorted(RULES):
        if selected is not None and rule_id not in selected:
            continue
        if rule_id in ignored:
            continue
        active.append(RULES[rule_id]())
    return active
