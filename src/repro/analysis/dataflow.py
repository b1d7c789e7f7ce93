"""A forward worklist fixpoint engine over :class:`repro.analysis.cfg.CFG`.

The engine is parameterised by an :class:`Analysis`: join flavour (may
= union over any path, must = intersection over all paths) and a
per-statement transfer function.  Facts are opaque to the engine except
for one convention: ``None`` is the *unreachable* bottom -- blocks no
path reaches keep ``None`` and their statements are never transferred,
so rules do not report on dead code.

Exceptional edges get special treatment.  The CFG builder isolates each
possibly-raising statement in its own block, so the fact flowing along
an ``exc`` edge is the source block's **entry** fact: the exception
fired mid-statement, before any effect the statement would have had.
In ::

    record = self.journal.append(cmd, args)

a raise inside the append means the command was never journaled, while
a raise in the *next* statement means it was.  Normal edges carry the
source block's exit fact as usual.

Typical use (see :mod:`repro.analysis.typestate` for real ones)::

    class Reaching(Analysis):
        def initial(self, cfg):
            return frozenset()
        def join(self, left, right):
            return left | right
        def transfer_stmt(self, stmt, fact):
            ...

    solution = solve(cfg, Reaching())
    for block, stmt, before, after in solution.stmt_facts():
        ...
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.analysis.cfg import CFG, EXC, Block, Edge

#: Join flavours (documentation-level; ``Analysis.join`` implements one).
MAY = "may"
MUST = "must"

FactT = TypeVar("FactT")


class Analysis(Generic[FactT]):
    """One forward dataflow problem: lattice and transfer.

    Subclasses override :meth:`initial`, :meth:`join` and
    :meth:`transfer_stmt` (or :meth:`transfer_block` for block-at-a-time
    transfer).  ``None`` is reserved for "unreachable" and never reaches
    the hooks.
    """

    #: :data:`MAY` or :data:`MUST`; informational (``join`` is the law).
    mode: str = MAY

    def initial(self, cfg: CFG) -> FactT:
        """The boundary fact at the function entry."""
        raise NotImplementedError

    def join(self, left: FactT, right: FactT) -> FactT:
        """Combine facts where paths meet (union for may, intersection
        for must)."""
        raise NotImplementedError

    def transfer_stmt(self, stmt: ast.stmt, fact: FactT) -> FactT:
        """Fact after executing one simple statement (identity default)."""
        return fact

    def transfer_block(self, block: Block, fact: FactT) -> FactT:
        """Fact after a whole block; default folds :meth:`transfer_stmt`."""
        for stmt in block.stmts:
            fact = self.transfer_stmt(stmt, fact)
        return fact


@dataclass
class Solution(Generic[FactT]):
    """The fixpoint: per-block entry/exit facts plus statement walking.

    ``None`` entries mark unreachable blocks.
    """

    cfg: CFG
    analysis: Analysis[FactT]
    in_facts: dict[int, FactT | None] = field(default_factory=dict)
    out_facts: dict[int, FactT | None] = field(default_factory=dict)

    def stmt_facts(self) -> Iterator[tuple[Block, ast.stmt, FactT, FactT]]:
        """Yield ``(block, stmt, fact_before, fact_after)`` per statement.

        Statements in unreachable blocks are skipped; blocks come in
        reverse postorder so diagnostics come out in execution order.
        """
        for idx in self.cfg.rpo():
            block = self.cfg.blocks[idx]
            fact = self.in_facts[idx]
            if fact is None:
                continue
            for stmt in block.stmts:
                after = self.analysis.transfer_stmt(stmt, fact)
                yield block, stmt, fact, after
                fact = after


def _edge_value(
    edge: Edge,
    in_facts: dict[int, FactT | None],
    out_facts: dict[int, FactT | None],
) -> FactT | None:
    """The fact flowing along ``edge``: the source block's entry fact
    for an exceptional edge, its exit fact otherwise."""
    return in_facts[edge.src] if edge.kind == EXC else out_facts[edge.src]


def _join_all(analysis: Analysis[FactT], values: list[FactT]) -> FactT | None:
    if not values:
        return None
    result = values[0]
    for value in values[1:]:
        result = analysis.join(result, value)
    return result


def solve(cfg: CFG, analysis: Analysis[FactT]) -> Solution[FactT]:
    """Run ``analysis`` to fixpoint over ``cfg``."""
    solution: Solution[FactT] = Solution(cfg, analysis)
    order = cfg.rpo()
    for idx in order:
        solution.in_facts[idx] = None
        solution.out_facts[idx] = None
    solution.in_facts[cfg.entry] = analysis.initial(cfg)
    solution.out_facts[cfg.entry] = analysis.transfer_block(
        cfg.blocks[cfg.entry], analysis.initial(cfg)
    )

    changed = True
    while changed:
        changed = False
        for idx in order:
            if idx == cfg.entry:
                in_fact: FactT | None = analysis.initial(cfg)
            else:
                incoming = [
                    value
                    for edge in cfg.preds(idx)
                    if (
                        value := _edge_value(
                            edge, solution.in_facts, solution.out_facts
                        )
                    )
                    is not None
                ]
                in_fact = _join_all(analysis, incoming)
            out_fact = (
                None
                if in_fact is None
                else analysis.transfer_block(cfg.blocks[idx], in_fact)
            )
            if (
                in_fact != solution.in_facts[idx]
                or out_fact != solution.out_facts[idx]
            ):
                solution.in_facts[idx] = in_fact
                solution.out_facts[idx] = out_fact
                changed = True
    return solution
