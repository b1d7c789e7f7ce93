"""CFG builder: shapes, exceptional edges, finally duplication."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import (
    EXC,
    NORMAL,
    CFG,
    build_cfg,
    function_cfgs,
    stmt_can_raise,
)


def cfg_of(source: str) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(func)


def lines_in_block(cfg: CFG, idx: int) -> list[int]:
    return [stmt.lineno for stmt in cfg.blocks[idx].stmts]


def blocks_holding(cfg: CFG, line: int) -> list[int]:
    return [
        block.idx
        for block in cfg.blocks
        if any(stmt.lineno == line for stmt in block.stmts)
    ]


def reachable_lines(cfg: CFG, kinds: tuple[str, ...] = (NORMAL, EXC)) -> set[int]:
    """Line numbers reachable from the entry along the given edge kinds."""
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        idx = stack.pop()
        for edge in cfg.succs(idx):
            if edge.kind in kinds and edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return {line for idx in seen for line in lines_in_block(cfg, idx)}


def test_straight_line_is_a_single_path() -> None:
    cfg = cfg_of(
        """
        def f(x):
            a = x
            b = a
            return b
        """
    )
    assert {3, 4, 5} <= reachable_lines(cfg)
    # No branching anywhere: every block has at most one normal successor.
    for block in cfg.blocks:
        normal = [e for e in cfg.succs(block.idx) if e.kind == NORMAL]
        assert len(normal) <= 1


def test_if_else_branches_and_rejoins() -> None:
    cfg = cfg_of(
        """
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """
    )
    [then_block] = blocks_holding(cfg, 4)
    [else_block] = blocks_holding(cfg, 6)
    [join_block] = blocks_holding(cfg, 7)
    assert then_block != else_block
    assert {e.dst for e in cfg.succs(then_block)} == {join_block}
    assert {e.dst for e in cfg.succs(else_block)} == {join_block}


def test_while_loop_has_a_back_edge() -> None:
    cfg = cfg_of(
        """
        def f(n):
            while n:
                n = n - 1
            return n
        """
    )
    [body_block] = blocks_holding(cfg, 4)
    # Some successor chain from the body leads back to a block that can
    # reach the body again (the loop header).
    header_candidates = {e.dst for e in cfg.succs(body_block)}
    assert any(
        body_block in {e.dst for e in cfg.succs(h)} for h in header_candidates
    )


def test_early_return_reaches_exit_directly() -> None:
    cfg = cfg_of(
        """
        def f(x):
            if x is None:
                return None
            return x
        """
    )
    [early] = blocks_holding(cfg, 4)
    assert {e.dst for e in cfg.succs(early)} == {cfg.exit}


def test_raising_statement_gets_its_own_block_and_exc_edge() -> None:
    cfg = cfg_of(
        """
        def f(x):
            a = 1
            work(x)
            return a
        """
    )
    [call_block] = blocks_holding(cfg, 4)
    kinds = {e.kind for e in cfg.succs(call_block)}
    assert kinds == {NORMAL, EXC}
    # With no enclosing handler the exception propagates to the exit.
    exc_edges = [e for e in cfg.succs(call_block) if e.kind == EXC]
    assert {e.dst for e in exc_edges} == {cfg.exit}


def test_try_except_routes_exc_edges_into_the_handler() -> None:
    cfg = cfg_of(
        """
        def f(x):
            try:
                work(x)
            except ValueError:
                fallback()
            return x
        """
    )
    [raising] = blocks_holding(cfg, 4)
    [handler] = blocks_holding(cfg, 6)
    exc_targets: set[int] = set()
    stack = [e.dst for e in cfg.succs(raising) if e.kind == EXC]
    exc_targets.update(stack)
    # The handler body is reachable from the raising statement.
    while stack:
        idx = stack.pop()
        for edge in cfg.succs(idx):
            if edge.dst not in exc_targets:
                exc_targets.add(edge.dst)
                stack.append(edge.dst)
    assert handler in exc_targets


def test_finally_body_is_instantiated_for_each_exit_kind() -> None:
    cfg = cfg_of(
        """
        def f(x):
            try:
                work(x)
            finally:
                cleanup()
        """
    )
    # cleanup() runs on the normal path AND on the exceptional path, so
    # its statement appears in more than one block.
    assert len(blocks_holding(cfg, 6)) >= 2


def test_with_statement_body_is_linked() -> None:
    cfg = cfg_of(
        """
        def f(handle):
            with handle.attach() as lease:
                use(lease)
            return None
        """
    )
    assert {4, 5} <= reachable_lines(cfg)


def test_stmt_can_raise_classification() -> None:
    module = ast.parse(
        textwrap.dedent(
            """
            a = 1
            b = f(a)
            raise ValueError(a)
            assert a
            import os
            c = a
            """
        )
    )
    can_raise = [stmt_can_raise(stmt) for stmt in module.body]
    assert can_raise == [False, True, True, True, True, False]


def test_function_cfgs_finds_nested_and_method_functions() -> None:
    tree = ast.parse(
        textwrap.dedent(
            """
            def outer():
                def inner():
                    return 1
                return inner

            class C:
                def method(self):
                    return 2
            """
        )
    )
    names = sorted(cfg.func.name for cfg in function_cfgs(tree))
    assert names == ["inner", "method", "outer"]


def test_rpo_starts_at_entry_and_covers_every_block() -> None:
    cfg = cfg_of(
        """
        def f(x):
            if x:
                a = 1
            while a:
                a = a - 1
            return a
        """
    )
    order = cfg.rpo()
    assert order[0] == cfg.entry
    assert sorted(order) == sorted(b.idx for b in cfg.blocks)
