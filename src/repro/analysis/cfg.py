"""Intra-procedural control-flow graphs over :mod:`ast`.

The typestate rules (R9, R12) need *paths*, not nodes: "is every store
mutation preceded by a journal append on **every** path", "can a
success response go out while a write is still unflushed on **any**
path".  This module builds, per function, a CFG precise enough to
answer those questions:

* basic blocks of **simple** statements, with compound statements
  (``if``/``while``/``for``/``try``/``with``/``match``) lowered to
  blocks and edges;
* **exceptional edges**: every statement that can raise (any statement
  containing a call, plus ``raise``/``assert`` and ``with`` entry) sits
  in its own block with an ``exc`` edge to the innermost handler
  dispatch -- or to the function exit when uncaught.  Because the
  raising statement is alone in its block, a dataflow engine can
  propagate the *pre*-statement fact along the ``exc`` edge (the
  exception fired before the assignment bound);
* **``finally`` routing**: every way out of a ``try`` with a
  ``finally`` -- normal completion, ``return``, ``break``,
  ``continue``, an unhandled exception -- flows through a per-exit-kind
  copy of the ``finally`` body, the same duplication CPython's compiler
  performs.

Loop headers hold synthetic statements (the ``for`` target assignment,
the loop/branch test expression, each ``with`` item's context
expression) so a statement-folding transfer function sees every
evaluation the interpreter performs.

The graph is deliberately intra-procedural: calls are opaque events.
That is the right altitude for protocol linting -- the protocols
(journal-before-mutate, fsync-before-ack) are local contracts of one
function's body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Edge kinds.
NORMAL = "normal"
EXC = "exc"

_FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef

#: Statement types that terminate a block unconditionally.
_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

#: Handler annotations treated as catching *every* exception.
_CATCH_ALL_NAMES = frozenset({"BaseException", "Exception"})


@dataclass
class Block:
    """One basic block: straight-line simple statements."""

    idx: int
    stmts: list[ast.stmt] = field(default_factory=list)


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge.

    Attributes:
        src: Source block index.
        dst: Destination block index.
        kind: ``"normal"`` or ``"exc"`` (exception propagation; dataflow
            engines propagate the source block's *entry* fact along it).
    """

    src: int
    dst: int
    kind: str = NORMAL


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: _FunctionDef) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.edges: list[Edge] = []
        self.entry: int = -1
        self.exit: int = -1
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}

    # ------------------------------------------------------------------
    # Construction (used by _Builder)
    # ------------------------------------------------------------------

    def new_block(self) -> int:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        self._succ[block.idx] = []
        self._pred[block.idx] = []
        return block.idx

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        edge = Edge(src, dst, kind)
        if edge in self._succ[src]:
            return
        self.edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def succs(self, idx: int) -> list[Edge]:
        return self._succ[idx]

    def preds(self, idx: int) -> list[Edge]:
        return self._pred[idx]

    def rpo(self) -> list[int]:
        """Block indices in reverse postorder from the entry."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(idx: int) -> None:
            stack = [(idx, iter(self._succ[idx]))]
            seen.add(idx)
            while stack:
                node, it = stack[-1]
                advanced = False
                for edge in it:
                    if edge.dst not in seen:
                        seen.add(edge.dst)
                        stack.append((edge.dst, iter(self._succ[edge.dst])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        # Unreachable blocks (dead code islands) go last, in index order,
        # so checkers still see their statements with a bottom fact.
        for block in self.blocks:
            if block.idx not in seen:
                order.append(block.idx)
        order.reverse()
        return order


# ----------------------------------------------------------------------
# Statement classification helpers
# ----------------------------------------------------------------------


def _contains_call(node: ast.AST) -> bool:
    """True if evaluating ``node`` may invoke user code (and thus raise).

    Nested function/class definitions and lambdas are *not* descended:
    defining them executes no body code.
    """
    for child in iter_expressions(node):
        if isinstance(child, (ast.Call, ast.Await)):
            return True
    return False


def iter_expressions(node: ast.AST):  # type: ignore[no-untyped-def]
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


def stmt_can_raise(stmt: ast.stmt) -> bool:
    """Statements whose execution may raise (for exceptional edges)."""
    if isinstance(stmt, (ast.Raise, ast.Assert, ast.Import, ast.ImportFrom)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    return _contains_call(stmt)


def _const_truth(test: ast.expr) -> bool | None:
    """The constant truth value of a loop/branch test, or None."""
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return None


def _is_catch_all(handlers: list[ast.ExceptHandler]) -> bool:
    for handler in handlers:
        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Name) and handler.type.id in _CATCH_ALL_NAMES:
            return True
        if (
            isinstance(handler.type, ast.Attribute)
            and handler.type.attr in _CATCH_ALL_NAMES
        ):
            return True
    return False


def _synthetic_assign(
    target: ast.expr, value: ast.expr, origin: ast.stmt
) -> ast.stmt:
    """A location-preserving ``target = value`` stand-in statement."""
    stmt = ast.Assign(targets=[target], value=value)
    ast.copy_location(stmt, origin)
    ast.fix_missing_locations(stmt)
    return stmt


def _synthetic_expr(value: ast.expr, origin: ast.stmt) -> ast.stmt:
    stmt = ast.Expr(value=value)
    ast.copy_location(stmt, origin)
    ast.fix_missing_locations(stmt)
    return stmt


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


class _Frame:
    __slots__ = ()


class _LoopFrame(_Frame):
    __slots__ = ("header", "after")

    def __init__(self, header: int, after: int) -> None:
        self.header = header
        self.after = after


class _FinallyFrame(_Frame):
    __slots__ = ("finalbody", "cache")

    def __init__(self, finalbody: list[ast.stmt]) -> None:
        self.finalbody = finalbody
        self.cache: dict[str, int] = {}


class _HandlerFrame(_Frame):
    __slots__ = ("entries", "catch_all", "pos", "_dispatch")

    def __init__(self, entries: list[int], catch_all: bool, pos: int) -> None:
        self.entries = entries
        self.catch_all = catch_all
        self.pos = pos
        self._dispatch: int | None = None

    def dispatch(self, builder: "_Builder") -> int:
        """The (lazily created) handler-dispatch block."""
        if self._dispatch is None:
            block = builder.cfg.new_block()
            self._dispatch = block
            for entry in self.entries:
                builder.cfg.add_edge(block, entry, kind=EXC)
            if not self.catch_all:
                builder.cfg.add_edge(
                    block, builder.resolve("raise", upto=self.pos), kind=EXC
                )
        return self._dispatch


class _Builder:
    """Lowers one function body into a :class:`CFG`."""

    def __init__(self, func: _FunctionDef) -> None:
        self.cfg = CFG(func)
        self.cfg.entry = self.cfg.new_block()
        self.cfg.exit = self.cfg.new_block()
        self.frames: list[_Frame] = []
        self.current: int | None = self.cfg.entry

    def build(self) -> CFG:
        self._stmts(self.cfg.func.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, self.cfg.exit)
        return self.cfg

    # -- plumbing -------------------------------------------------------

    def _block(self) -> int:
        if self.current is None:
            # Dead code still gets blocks (no predecessors) so rules can
            # at least see the statements.
            self.current = self.cfg.new_block()
        return self.current

    def _append(self, stmt: ast.stmt) -> int:
        """Append a non-raising statement to the current block."""
        block = self._block()
        self.cfg.blocks[block].stmts.append(stmt)
        return block

    def _append_raising(self, stmt: ast.stmt) -> int:
        """Give a possibly-raising statement its own block + exc edge."""
        block = self._block()
        if self.cfg.blocks[block].stmts:
            fresh = self.cfg.new_block()
            self.cfg.add_edge(block, fresh)
            block = fresh
        self.cfg.blocks[block].stmts.append(stmt)
        self.cfg.add_edge(block, self.resolve("raise"), kind=EXC)
        nxt = self.cfg.new_block()
        self.cfg.add_edge(block, nxt)
        self.current = nxt
        return block

    def _emit(self, stmt: ast.stmt) -> int:
        if stmt_can_raise(stmt):
            return self._append_raising(stmt)
        return self._append(stmt)

    def resolve(self, key: str, upto: int | None = None) -> int:
        """Destination block for exit kind ``key`` from the current nesting.

        ``key`` is ``"raise"``, ``"return"``, ``"break"`` or
        ``"continue"``; ``upto`` limits the frame search (used when
        propagating an exception past the handler frame that failed to
        catch it).  ``finally`` bodies are instantiated (once per frame
        and exit kind) along the way.
        """
        index = (len(self.frames) if upto is None else upto) - 1
        while index >= 0:
            frame = self.frames[index]
            if isinstance(frame, _FinallyFrame):
                if key not in frame.cache:
                    entry = self.cfg.new_block()
                    frame.cache[key] = entry
                    saved_frames = self.frames
                    saved_current = self.current
                    self.frames = list(self.frames[:index])
                    self.current = entry
                    self._stmts(frame.finalbody)
                    end = self.current
                    self.frames = saved_frames
                    self.current = saved_current
                    if end is not None:
                        self.cfg.add_edge(end, self.resolve(key, upto=index))
                return frame.cache[key]
            if isinstance(frame, _HandlerFrame) and key == "raise":
                return frame.dispatch(self)
            if isinstance(frame, _LoopFrame):
                if key == "break":
                    return frame.after
                if key == "continue":
                    return frame.header
            index -= 1
        if key in ("raise", "return"):
            return self.cfg.exit
        raise AssertionError(f"{key!r} outside any loop")  # pragma: no cover

    # -- statement dispatch --------------------------------------------

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if self.current is None and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Unreachable code: park it in a floating block.
                self.current = self.cfg.new_block()
            if isinstance(stmt, (ast.Return,)):
                self._terminator(stmt, "return")
            elif isinstance(stmt, ast.Raise):
                self._terminator(stmt, "raise")
            elif isinstance(stmt, ast.Break):
                self._terminator(stmt, "break")
            elif isinstance(stmt, ast.Continue):
                self._terminator(stmt, "continue")
            elif isinstance(stmt, ast.If):
                self._if(stmt)
            elif isinstance(stmt, (ast.While,)):
                self._while(stmt)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._for(stmt)
            elif isinstance(stmt, ast.Try):
                self._try(stmt)
            elif _is_try_star(stmt):
                self._try(stmt)  # type: ignore[arg-type]
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._with(stmt)
            elif isinstance(stmt, ast.Match):
                self._match(stmt)
            else:
                self._emit(stmt)

    def _terminator(self, stmt: ast.stmt, key: str) -> None:
        block = self._block()
        if stmt_can_raise(stmt):
            # e.g. ``return f(x)`` -- the call may raise before the
            # return transfers control.  Keep the statement alone in its
            # block so the exc edge carries the pre-statement fact.
            if self.cfg.blocks[block].stmts:
                fresh = self.cfg.new_block()
                self.cfg.add_edge(block, fresh)
                block = fresh
            self.cfg.blocks[block].stmts.append(stmt)
            self.cfg.add_edge(block, self.resolve("raise"), kind=EXC)
        else:
            self.cfg.blocks[block].stmts.append(stmt)
        self.cfg.add_edge(block, self.resolve(key))
        self.current = None

    def _branch_source(self, test: ast.expr, origin: ast.stmt) -> int:
        """Emit the test expression; return the block branches leave from."""
        stmt = _synthetic_expr(test, origin)
        if stmt_can_raise(stmt):
            return self._emit_test(stmt)
        return self._append(stmt)

    def _emit_test(self, stmt: ast.stmt) -> int:
        """Raising test: own block with exc edge; branches leave from it."""
        block = self._block()
        if self.cfg.blocks[block].stmts:
            fresh = self.cfg.new_block()
            self.cfg.add_edge(block, fresh)
            block = fresh
        self.cfg.blocks[block].stmts.append(stmt)
        self.cfg.add_edge(block, self.resolve("raise"), kind=EXC)
        self.current = block
        return block

    def _if(self, node: ast.If) -> None:
        source = self._branch_source(node.test, node)
        const = _const_truth(node.test)
        after = self.cfg.new_block()

        ends: list[int] = []
        if const is not False:
            then_entry = self.cfg.new_block()
            self.cfg.add_edge(source, then_entry)
            self.current = then_entry
            self._stmts(node.body)
            if self.current is not None:
                ends.append(self.current)
        if const is not True:
            if node.orelse:
                else_entry = self.cfg.new_block()
                self.cfg.add_edge(source, else_entry)
                self.current = else_entry
                self._stmts(node.orelse)
                if self.current is not None:
                    ends.append(self.current)
            else:
                self.cfg.add_edge(source, after)
                ends.append(-1)  # placeholder: after already wired
        reachable = False
        for end in ends:
            reachable = True
            if end >= 0:
                self.cfg.add_edge(end, after)
        self.current = after if reachable else None
        if not reachable:
            # Both arms diverged; `after` stays an unreachable island.
            self.current = None

    def _while(self, node: ast.While) -> None:
        header = self.cfg.new_block()
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        self.current = header
        source = self._branch_source(node.test, node)
        const = _const_truth(node.test)
        after = self.cfg.new_block()

        body_entry = self.cfg.new_block()
        if const is not False:
            self.cfg.add_edge(source, body_entry)
        if const is not True:
            if node.orelse:
                else_entry = self.cfg.new_block()
                self.cfg.add_edge(source, else_entry)
                self.current = else_entry
                self._stmts(node.orelse)
                if self.current is not None:
                    self.cfg.add_edge(self.current, after)
            else:
                self.cfg.add_edge(source, after)

        self.frames.append(_LoopFrame(header=header, after=after))
        self.current = body_entry
        self._stmts(node.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        self.frames.pop()
        self.current = after

    def _for(self, node: ast.For | ast.AsyncFor) -> None:
        header = self.cfg.new_block()
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        # The header evaluates the iterable / advances the iterator and
        # rebinds the target on every entry.
        assign = _synthetic_assign(node.target, node.iter, node)
        self.current = header
        if stmt_can_raise(assign):
            source = self._emit_test(assign)
        else:
            source = self._append(assign)
        after = self.cfg.new_block()
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(source, body_entry)
        if node.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(source, else_entry)
            self.current = else_entry
            self._stmts(node.orelse)
            if self.current is not None:
                self.cfg.add_edge(self.current, after)
        else:
            self.cfg.add_edge(source, after)

        self.frames.append(_LoopFrame(header=header, after=after))
        self.current = body_entry
        self._stmts(node.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        self.frames.pop()
        self.current = after

    def _try(self, node: ast.Try) -> None:
        finally_frame: _FinallyFrame | None = None
        if node.finalbody:
            finally_frame = _FinallyFrame(node.finalbody)
            self.frames.append(finally_frame)

        handler_frame: _HandlerFrame | None = None
        entries: list[int] = []
        if node.handlers:
            entries = [self.cfg.new_block() for _ in node.handlers]
            handler_frame = _HandlerFrame(
                entries, _is_catch_all(node.handlers), pos=len(self.frames)
            )
            self.frames.append(handler_frame)

        self._stmts(node.body)
        if handler_frame is not None:
            self.frames.pop()
        if node.orelse:
            # Runs only after the body completed normally; its exceptions
            # skip this try's handlers (but do run the finally).
            if self.current is not None:
                self._stmts(node.orelse)
        normal_end = self.current

        handler_ends: list[int] = []
        for handler, entry in zip(node.handlers, entries):
            self.current = entry
            self._stmts(handler.body)
            if self.current is not None:
                handler_ends.append(self.current)

        ends = [e for e in [normal_end, *handler_ends] if e is not None]
        if finally_frame is not None:
            self.frames.pop()
            if ends:
                fin_entry = self.cfg.new_block()
                for end in ends:
                    self.cfg.add_edge(end, fin_entry)
                self.current = fin_entry
                self._stmts(node.finalbody)
                # current (possibly None if the finally diverges) flows on.
            else:
                self.current = None
        else:
            if not ends:
                self.current = None
            elif len(ends) == 1:
                self.current = ends[0]
            else:
                join = self.cfg.new_block()
                for end in ends:
                    self.cfg.add_edge(end, join)
                self.current = join

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                stmt = _synthetic_assign(
                    item.optional_vars, item.context_expr, node
                )
            else:
                stmt = _synthetic_expr(item.context_expr, node)
            self._emit(stmt)
        self._stmts(node.body)

    def _match(self, node: ast.Match) -> None:
        source = self._branch_source(node.subject, node)
        after = self.cfg.new_block()
        reachable = False
        for case in node.cases:
            entry = self.cfg.new_block()
            self.cfg.add_edge(source, entry)
            self.current = entry
            self._stmts(case.body)
            if self.current is not None:
                self.cfg.add_edge(self.current, after)
                reachable = True
        # No case may match: fall through.
        self.cfg.add_edge(source, after)
        self.current = after
        del reachable


def _is_try_star(stmt: ast.stmt) -> bool:
    try_star = getattr(ast, "TryStar", None)
    return try_star is not None and isinstance(stmt, try_star)


def build_cfg(func: _FunctionDef) -> CFG:
    """Build the CFG of one function definition."""
    return _Builder(func).build()


def function_cfgs(tree: ast.AST) -> list[CFG]:
    """CFGs for every function (and method) defined anywhere in ``tree``."""
    return [
        build_cfg(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
