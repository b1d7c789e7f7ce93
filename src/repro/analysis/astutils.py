"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast

#: Functions whose call result is set-like (iteration order hazard).
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains (or a bare name) as a string.

    Returns None for anything that is not a pure Name/Attribute chain,
    e.g. ``f().attr`` or ``d[k].attr``.
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_set_like(node: ast.expr) -> bool:
    """True for expressions whose iteration order is a hazard.

    Covers set displays/comprehensions, ``set(...)``/``frozenset(...)``
    calls, and ``<expr>.values()`` (dict values carry insertion order,
    which silently depends on build history -- the paper's tie-breaks
    must not).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if isinstance(node.func, ast.Name) and name in SET_CONSTRUCTORS:
            return True
        if isinstance(node.func, ast.Attribute) and name == "values":
            return True
    return False


def iter_function_defs(tree: ast.AST) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """All function definitions anywhere in ``tree``, outermost first."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
