"""GEACC-aware static analysis (``geacc-lint``).

An AST-based linter with repository-specific rules guarding the
invariants the reproduction's numbers depend on:

* **R1 determinism** -- no unseeded / global-state randomness; thread
  an explicit ``numpy.random.Generator``.
* **R2 float discipline** -- no exact ``==``/``!=`` on
  similarity/objective floats in ``core/``/``flow/``; use
  :mod:`repro.core.numeric`.
* **R4 ordering safety** -- no set/dict-values iteration feeding heap
  pushes or keyed tie-breaks.
* **R5 API hygiene** -- no mutable default arguments or bare excepts;
  public ``repro.core`` functions fully annotated.
* **R11 budget checkpoints** -- every ``while`` loop of a budget-aware
  solver function calls ``Budget.checkpoint()``.
* **R13 reasoned suppressions** -- every ``# geacc-lint: disable``
  directive carries ``reason=``.
* **R14 atomic service writes** -- ``service/`` persists only through
  the journal's atomic-write helpers.
* **R15 vectorised kernels** -- no per-element numpy loops on the
  block-kernel hot paths.

Architecture: one rule = one class (:mod:`repro.analysis.rules`),
registered in a table (:mod:`repro.analysis.registry`), driven by a
small engine (:mod:`repro.analysis.engine`) with inline suppression
support (:mod:`repro.analysis.suppress`).  See
``docs/static-analysis.md`` for the rule catalogue and rationale.
"""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule, run_lint
from repro.analysis.registry import RULES, Rule, load_rules, register_rule

__all__ = [
    "Diagnostic",
    "ParsedModule",
    "RULES",
    "Rule",
    "load_rules",
    "register_rule",
    "run_lint",
]
