"""Structural boundaries of the tree, checked by one AST walk.

* **Monotonic clocks.** No ``time.time()`` and no ``from time import
  time`` in ``src/repro`` or ``tests/``. The wall clock can jump
  backwards (NTP steps, DST), so a budget deadline or an elapsed time
  built on it can fire hours early or never; deadlines use
  ``time.monotonic()``, durations ``time.perf_counter()``.
* **Process pools live in** ``repro/parallel/``. No ``multiprocessing``
  ``Pool``/``Process``/``get_context``/``set_start_method`` and no
  ``ProcessPoolExecutor`` anywhere else in ``src/repro`` or ``tests/``.
  The sweep executor keeps the parent the sole checkpoint writer,
  records a dead worker's cells as failed and never mutates the global
  start method; an ad-hoc pool reopens all three holes.
* **Listeners live in** ``repro/service/``. No ``socket``,
  ``socketserver`` or ``http.server`` elsewhere in ``src/repro``. The
  service validates and journals every command before the store
  mutates; a listener outside it serves unjournaled state.

``tests/analysis/fixtures`` is skipped: the lint fixtures exist to hold
bad code.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Iterator
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
TESTS = REPO_ROOT / "tests"
LINT_FIXTURES = TESTS / "analysis" / "fixtures"

_POOL_MODULES = frozenset({"multiprocessing", "multiprocessing.pool"})
_POOL_NAMES = frozenset({"Pool", "Process", "get_context", "set_start_method"})
_LISTENER_MODULES = ("socket", "socketserver", "http.server")


def _qualified_names(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """``(line, dotted name)`` for every import and module attribute chain.

    Imports yield what they bind (``from time import time`` gives
    ``time.time``); an attribute chain on an imported name is resolved
    through the import (``mp.pool.Pool`` after ``import multiprocessing
    as mp`` gives ``multiprocessing.pool.Pool``).
    """
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    bound[top] = top
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = qualified
                yield node.lineno, qualified
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts = [node.attr]
        current = node.value
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name) and current.id in bound:
            parts.append(bound[current.id])
            yield node.lineno, ".".join(reversed(parts))


def _kind(name: str) -> str | None:
    """Which boundary a qualified name falls under, if any."""
    module, _, attr = name.rpartition(".")
    if name == "time.time":
        return "clock"
    if (module in _POOL_MODULES and attr in _POOL_NAMES) or (
        name == "concurrent.futures.ProcessPoolExecutor"
    ):
        return "pool"
    if any(name == m or name.startswith(m + ".") for m in _LISTENER_MODULES):
        return "listener"
    return None


@functools.lru_cache(maxsize=None)
def _uses() -> tuple[tuple[str, str, int, str], ...]:
    """Every ``(kind, repo-relative path, line, name)`` boundary use."""
    uses: set[tuple[str, str, int, str]] = set()
    for root in (SRC, TESTS):
        for path in sorted(root.rglob("*.py")):
            if LINT_FIXTURES in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            rel = path.relative_to(REPO_ROOT).as_posix()
            for line, name in _qualified_names(tree):
                kind = _kind(name)
                if kind is not None:
                    uses.add((kind, rel, line, name))
    return tuple(sorted(uses))


def _uses_outside(
    kind: str, roots: tuple[str, ...], home: str | None = None
) -> list[str]:
    """Uses of ``kind`` under ``roots`` but not under ``home``, rendered."""
    return [
        f"{path}:{line}: {name}"
        for use_kind, path, line, name in _uses()
        if use_kind == kind
        and path.startswith(roots)
        and not (home and path.startswith(home))
    ]


def test_no_wall_clock_time() -> None:
    assert _uses_outside("clock", ("src/", "tests/")) == []


def test_process_pools_stay_in_repro_parallel() -> None:
    assert _uses_outside("pool", ("src/", "tests/"), "src/repro/parallel/") == []


def test_listeners_stay_in_repro_service() -> None:
    assert _uses_outside("listener", ("src/",), "src/repro/service/") == []


# The boundaries above hold vacuously if the walk resolves nothing, so
# each sanctioned home must show up as a use of its kind.


def test_the_walk_sees_the_pools_in_repro_parallel() -> None:
    seen = {(kind, path) for kind, path, _line, _name in _uses()}
    assert ("pool", "src/repro/parallel/executor.py") in seen


def test_the_walk_sees_the_listeners_in_repro_service() -> None:
    seen = {(kind, path) for kind, path, _line, _name in _uses()}
    assert ("listener", "src/repro/service/http.py") in seen
