"""Typestate abstractions the protocol rules (R9, R12) declare.

A typestate rule does not hand-roll an AST visitor; it *declares* a
:class:`FlagProtocol` -- a boolean protocol flag driven by calls -- and
lets this module run it over a function's CFG: some calls **set** the
flag (``journal.append`` -> "journaled"), some **clear** it
(``os.fsync`` -> not "dirty"), and some **require** it set (must mode:
``store.apply`` needs "journaled" on every path) or clear (may mode: an
ack must not happen while "dirty" on any path).  R11 reuses the
:class:`CallPattern` matcher only.

Call matching is deliberately name-based (:class:`CallPattern`): the
linter has no type inference, so ``self.journal.append`` is recognised
by its terminal name plus required tokens in the receiver chain.  That
is the same pragmatic bar the R1-R8 rules already set, and it keeps the
protocols declarative enough to read in one screen.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Protocol

from repro.analysis.astutils import dotted_name, terminal_name
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import MAY, MUST, Analysis, solve

__all__ = [
    "CallPattern",
    "CallMatcher",
    "FlagProtocol",
    "Violation",
    "calls_in",
    "check_flag_protocol",
]


class CallMatcher(Protocol):
    """Anything that can recognise a call site."""

    def matches(self, call: ast.Call) -> bool: ...


@dataclass(frozen=True)
class CallPattern:
    """Name-based call recognition.

    ``terminal`` must equal the last component of the callee's dotted
    chain exactly; every token in ``chain`` must occur as a substring of
    some *earlier* (lowercased) component.  Examples::

        CallPattern("append", frozenset({"journal"}))
            matches  self.journal.append(...), journal.append(...),
                     self._journal.append(...)
        CallPattern("fsync")
            matches  os.fsync(...), fsync(...)
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
            # f(...).close() / d[k].close(): chain tokens cannot be
            # checked against the opaque base, but the terminal can.
            pass
        else:
            return False
        parts.reverse()
        if parts[-1] != self.terminal:
            return False
        head = [part.lower() for part in parts[:-1]]
        return all(any(token in part for part in head) for token in self.chain)


def calls_in(node: ast.AST) -> list[ast.Call]:
    """Call nodes under ``node`` in evaluation (post-) order.

    Children precede parents, so in ``store.apply(journal.append(x))``
    the append is seen first -- matching the interpreter, which
    evaluates arguments before the enclosing call.  Nested function /
    class bodies and lambdas are not descended (their calls run later,
    if ever).
    """
    found: list[ast.Call] = []

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            visit(child)
        if isinstance(current, ast.Call):
            found.append(current)

    visit(node)
    return found


@dataclass(frozen=True, order=True)
class Violation:
    """One protocol breach, pinned to a source location.

    Ordered by location-then-kind so deduplicated sets of violations
    sort deterministically without a key function.
    """

    line: int
    col: int
    kind: str
    detail: str


def _matches_any(patterns: tuple[CallMatcher, ...], call: ast.Call) -> bool:
    return any(pattern.matches(call) for pattern in patterns)


def _callee_repr(call: ast.Call) -> str:
    """A printable name for a call's callee (best effort)."""
    return dotted_name(call.func) or terminal_name(call.func) or "<call>"


# ----------------------------------------------------------------------
# Flag protocols (R9 journal-before-mutate, R12 fsync-before-ack)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlagProtocol:
    """A single boolean protocol flag over one function.

    Attributes:
        flag: Name of the flag (used in messages).
        mode: :data:`~repro.analysis.dataflow.MUST` -- ``requires``
            calls need the flag set on **every** path (join =
            intersection); :data:`~repro.analysis.dataflow.MAY` --
            the flag is a hazard and ``requires`` calls need it clear
            on every path, i.e. clear even if **any** path set it
            (join = union).
        sets: Calls that raise the flag.
        clears: Calls that lower it.
        requires: The guarded calls.
        consume: Must mode only -- a satisfied guard *consumes* the
            flag, so two guarded calls need two set calls (one journal
            append blesses exactly one store mutation).
        check_returns: May mode -- also flag any ``return`` executed
            while the flag is (possibly) set: returning normally is an
            implicit ack.
    """

    flag: str
    mode: str
    sets: tuple[CallMatcher, ...]
    requires: tuple[CallMatcher, ...]
    clears: tuple[CallMatcher, ...] = ()
    consume: bool = False
    check_returns: bool = False

    def apply_stmt(
        self,
        stmt: ast.stmt,
        fact: frozenset[str],
        record: list[Violation] | None = None,
    ) -> frozenset[str]:
        """Transfer one statement; optionally record violations."""
        for call in calls_in(stmt):
            if self.clears and _matches_any(self.clears, call):
                fact = fact - {self.flag}
            if _matches_any(self.sets, call):
                fact = fact | {self.flag}
            if _matches_any(self.requires, call):
                held = self.flag in fact
                satisfied = held if self.mode == MUST else not held
                if not satisfied and record is not None:
                    record.append(
                        Violation(
                            call.lineno,
                            call.col_offset,
                            "require",
                            _callee_repr(call),
                        )
                    )
                if self.consume:
                    fact = fact - {self.flag}
        if (
            self.check_returns
            and self.mode == MAY
            and isinstance(stmt, ast.Return)
            and self.flag in fact
            and record is not None
        ):
            record.append(
                Violation(stmt.lineno, stmt.col_offset, "return", self.flag)
            )
        return fact


class _FlagAnalysis(Analysis[frozenset[str]]):
    def __init__(self, protocol: FlagProtocol) -> None:
        self.protocol = protocol
        self.mode = protocol.mode

    def initial(self, cfg: CFG) -> frozenset[str]:
        return frozenset()

    def join(self, left: frozenset[str], right: frozenset[str]) -> frozenset[str]:
        if self.protocol.mode == MUST:
            return left & right
        return left | right

    def transfer_stmt(self, stmt: ast.stmt, fact: frozenset[str]) -> frozenset[str]:
        return self.protocol.apply_stmt(stmt, fact)


def check_flag_protocol(cfg: CFG, protocol: FlagProtocol) -> list[Violation]:
    """Solve the flag dataflow and report every breached guard."""
    solution = solve(cfg, _FlagAnalysis(protocol))
    recorded: list[Violation] = []
    for _block, stmt, before, _after in solution.stmt_facts():
        protocol.apply_stmt(stmt, before, record=recorded)
    # finally bodies are instantiated once per exit kind, so the same
    # source statement can sit in several blocks; dedupe by location.
    return sorted(set(recorded))
