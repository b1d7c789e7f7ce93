"""R11 -- checkpoint-in-hot-loop: the anytime guarantee is cooperative.

Budgets (:mod:`repro.robustness.budget`) do nothing by themselves: a
solver is interruptible only because its hot loops call
``budget.checkpoint()``, which raises once the deadline or node budget
is gone.  A ``while`` loop that spins without checkpointing turns
"feasible-timeout with best-so-far" into "hangs past the deadline" --
and the sweep's wall-clock accounting (and the paper's anytime claims)
with it.

The rule's scope is deliberately narrow and syntactic:

* only modules under an ``algorithms/`` package directory (the
  registered solvers);
* only functions that are *budget-aware* -- they take a ``budget``
  parameter or touch ``self.budget`` / ``self._budget``.  Pure helpers
  that never see a budget (e.g. the greedy refill scans, which are
  bounded by cursor exhaustion) are their caller's responsibility;
* only ``while`` loops: a ``for`` loop is bounded by its iterable,
  while every ``while`` is unbounded until proven otherwise -- and the
  prover here is a ``*.checkpoint()`` call (on a budget-ish receiver)
  somewhere in the loop body, nested loops included, nested function
  definitions excluded.

This one is containment, not a path analysis: "the loop body contains
a checkpoint" is the contract ``docs/robustness.md`` states.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule
from repro.analysis.registry import Rule, register_rule

#: Package directory containing the registered solvers.
_SCOPE_DIR = "algorithms"

#: Attributes whose use marks a method as budget-aware.
_BUDGET_ATTRS = frozenset({"budget", "_budget"})


@dataclass(frozen=True)
class CallPattern:
    """Name-based call recognition.

    ``terminal`` must equal the last component of the callee's dotted
    chain exactly; every token in ``chain`` must occur as a substring of
    some *earlier* (lowercased) component.  Example::

        CallPattern("checkpoint", frozenset({"budget"}))
            matches  budget.checkpoint(...), self._budget.checkpoint(...)
    """

    terminal: str
    chain: frozenset[str] = frozenset()

    def matches(self, call: ast.Call) -> bool:
        parts: list[str] = []
        current: ast.expr = call.func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        elif parts and isinstance(current, (ast.Call, ast.Subscript)):
            # f(...).checkpoint() / d[k].checkpoint(): chain tokens cannot
            # be checked against the opaque base, but the terminal can.
            pass
        else:
            return False
        parts.reverse()
        if parts[-1] != self.terminal:
            return False
        head = [part.lower() for part in parts[:-1]]
        return all(any(token in part for part in head) for token in self.chain)


_CHECKPOINT = CallPattern("checkpoint", frozenset({"budget"}))


def iter_expressions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _is_budget_aware(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = func.args
    every = [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        args.vararg,
        args.kwarg,
    ]
    if any(arg is not None and arg.arg == "budget" for arg in every):
        return True
    for node in iter_expressions(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _BUDGET_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def _loop_checkpoints(loop: ast.While) -> bool:
    for stmt in loop.body:
        for node in iter_expressions(stmt):
            if isinstance(node, ast.Call) and _CHECKPOINT.matches(node):
                return True
    return False


def _own_while_loops(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.While]:
    """``while`` loops belonging to ``func`` itself (not nested defs)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.While):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class CheckpointInLoopRule(Rule):
    """Flag unbounded solver loops that never call budget.checkpoint()."""

    rule_id = "R11"
    title = "budget-aware solver while-loops must checkpoint()"
    rationale = (
        "budgets are cooperative: a while loop without budget.checkpoint() "
        "cannot be interrupted, so the anytime contract (best-so-far at "
        "the deadline) silently becomes a hang past the deadline"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Diagnostic]:
        if _SCOPE_DIR not in module.relparts[:-1]:
            return
        for func in _functions(module.tree):
            if not _is_budget_aware(func):
                continue
            for loop in _own_while_loops(func):
                if not _loop_checkpoints(loop):
                    yield Diagnostic(
                        path=module.display_path,
                        line=loop.lineno,
                        col=loop.col_offset,
                        rule_id=self.rule_id,
                        message=(
                            f"while-loop in budget-aware {func.name}() never "
                            "calls budget.checkpoint(); an exhausted budget "
                            "cannot interrupt it (call checkpoint() once per "
                            "iteration and return best-so-far on "
                            "BudgetExceededError)"
                        ),
                    )


def _functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
