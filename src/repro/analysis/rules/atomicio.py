"""R14 -- atomic I/O: service-layer writes go through the durable helpers.

Everything the serving layer persists must survive a kill -9 at any
instruction: the journal fsyncs each record before the command is
acknowledged, and snapshots reach disk only via
:func:`repro.service.journal.atomic_write_bytes` (tmp file + fsync +
rename + directory fsync). A bare ``open(path, "w")`` in a service
module -- or a hand-rolled ``os.replace`` that skipped the tmp-file
fsync -- silently reintroduces torn writes into the one layer whose
entire contract is that torn writes cannot happen.

So inside ``src/repro/service/`` this rule flags:

* ``open(...)`` / ``Path.open(...)`` calls whose mode literal can
  write (contains any of ``w``, ``a``, ``x`` or ``+``);
* ``os.replace`` / ``os.rename`` -- renames are only atomic-durable
  after the tmp file *and* the directory are fsync'd, which is the
  helper's job;
* ``Path.write_text`` / ``Path.write_bytes`` -- convenience writers
  with no fsync anywhere.

The one module that *implements* the durable machinery --
``journal.py`` (the :class:`~repro.service.journal.FileSystem` seam,
the atomic-write helper and the append-only log the journal and the
shard manifest share) -- is exempt: the primitives have to live
somewhere. Calls
with a non-literal or absent mode are not flagged (default mode is
``"r"``; a computed mode is a refactor smell but not provably a write),
and a bare ``.replace(...)`` attribute call is ignored because it
collides with ``str.replace``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutils import dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule
from repro.analysis.registry import Rule, register_rule

#: Package directory whose modules must use the durable write path.
_SCOPE_DIR = "service"

#: The module that implements the durable primitives and may touch raw I/O.
_EXEMPT_FILES = frozenset({"journal.py"})

#: Mode-string characters that make an ``open`` call a write.
_WRITE_MODE_CHARS = frozenset("wax+")

#: ``os`` functions that rename in place (atomic only when the helper's
#: fsync discipline surrounds them).
_OS_RENAMES = frozenset({"os.replace", "os.rename"})

#: Path conveniences that write without any fsync.
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})


@register_rule
class AtomicIoRule(Rule):
    """Flag raw file writes in service modules outside the durable core."""

    rule_id = "R14"
    title = "service writes go through the atomic-write helpers"
    rationale = (
        "the serving layer's contract is crash-atomicity; a bare "
        "open(..., 'w') or os.replace outside journal.py "
        "reintroduces torn writes -- persist through the journal or "
        "repro.service.journal.atomic_write_bytes"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Diagnostic]:
        if _SCOPE_DIR not in module.relparts[:-1]:
            return
        if module.relparts[-1] in _EXEMPT_FILES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(
        self, module: ParsedModule, node: ast.Call
    ) -> Iterator[Diagnostic]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        terminal = dotted.rpartition(".")[2]
        if terminal == "open":
            mode = _literal_mode(node)
            if mode is not None and _WRITE_MODE_CHARS & set(mode):
                yield _diag(
                    module, node,
                    f"{dotted}(..., {mode!r}): raw file write in a service "
                    "module; persist through the journal or "
                    "journal.atomic_write_bytes",
                )
        elif dotted in _OS_RENAMES:
            yield _diag(
                module, node,
                f"{dotted}(): rename without the tmp-file + fsync + "
                "directory-fsync discipline; use "
                "journal.atomic_write_bytes (or the FileSystem seam)",
            )
        elif terminal in _PATH_WRITERS and "." in dotted:
            yield _diag(
                module, node,
                f"{dotted}(): convenience writer with no fsync; use "
                "journal.atomic_write_bytes",
            )


#: Every character a valid ``open`` mode string can contain.
_MODE_ALPHABET = frozenset("rwxab+tU")


def _literal_mode(node: ast.Call) -> str | None:
    """The call's mode argument, if it is a string literal.

    The mode's position differs between ``open(path, "w")`` (second)
    and ``Path.open("w")`` (first), so instead of guessing by position
    this scans the ``mode=`` keyword and the first two positionals for
    a constant string drawn entirely from the mode alphabet -- a test a
    path literal essentially never passes. Returns ``None`` when the
    mode is absent (default ``"r"``) or not a constant string.
    """
    candidates: list[ast.expr] = list(node.args[:2])
    for keyword in node.keywords:
        if keyword.arg == "mode":
            candidates.append(keyword.value)
    for expr in candidates:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, str)
            and expr.value
            and set(expr.value) <= _MODE_ALPHABET
        ):
            return expr.value
    return None


def _diag(module: ParsedModule, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        path=module.display_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id=AtomicIoRule.rule_id,
        message=message,
    )
