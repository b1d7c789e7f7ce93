"""The fixpoint engine: joins, loops, dead code and exceptional edges."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import CFG, EXC, build_cfg
from repro.analysis.dataflow import MAY, MUST, Analysis, solve


def cfg_of(source: str) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(func)


class AssignedNames(Analysis[frozenset]):
    """Forward analysis: which names have been assigned by this point."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def initial(self, cfg: CFG) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left & right if self.mode == MUST else left | right

    def transfer_stmt(self, stmt: ast.stmt, fact: frozenset) -> frozenset:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    fact = fact | {target.id}
        return fact


BRANCHY = """
def f(cond):
    if cond:
        a = 1
    else:
        b = 2
    return cond
"""


def test_must_join_is_intersection_may_join_is_union() -> None:
    cfg = cfg_of(BRANCHY)
    must = solve(cfg, AssignedNames(MUST)).in_facts[cfg.exit]
    may = solve(cfg, AssignedNames(MAY)).in_facts[cfg.exit]
    assert must == frozenset()  # neither name is assigned on every path
    assert may == frozenset({"a", "b"})  # each is assigned on some path


def test_loops_reach_a_fixpoint() -> None:
    cfg = cfg_of(
        """
        def f(n):
            total = 0
            while n:
                n = n - 1
                extra = 1
            return total
        """
    )
    out = solve(cfg, AssignedNames(MUST)).in_facts[cfg.exit]
    # total is assigned on every path; extra only if the loop ran.
    assert out is not None
    assert "total" in out
    assert "extra" not in out


def test_unreachable_blocks_have_no_fact() -> None:
    cfg = cfg_of(
        """
        def f(x):
            return x
            y = 1
        """
    )
    solution = solve(cfg, AssignedNames(MAY))
    dead = [
        block.idx
        for block in cfg.blocks
        if any(stmt.lineno == 4 for stmt in block.stmts)
    ]
    assert dead and all(solution.in_facts[idx] is None for idx in dead)
    # stmt_facts() skips them rather than handing checkers a None fact.
    walked = [stmt.lineno for _b, stmt, _in, _out in solution.stmt_facts()]
    assert 4 not in walked


def test_exceptional_edges_carry_the_entry_fact() -> None:
    cfg = cfg_of(
        """
        def f(x):
            try:
                y = risky(x)
            except ValueError:
                handled = 1
            return x
        """
    )
    solution = solve(cfg, AssignedNames(MAY))
    handler_in = None
    for block in cfg.blocks:
        if any(stmt.lineno == 6 for stmt in block.stmts):  # handled = 1
            handler_in = solution.in_facts[block.idx]
    # risky() raised mid-statement, before y was bound: the handler
    # sees the raising block's entry fact, not its exit fact.
    assert handler_in is not None and "y" not in handler_in
    # The normal path out of the try did bind y.
    exit_fact = solution.in_facts[cfg.exit]
    assert exit_fact is not None and {"y", "handled"} <= exit_fact
    assert any(edge.kind == EXC for edge in cfg.edges)
