"""The ``geacc-lint`` engine: collect files, parse, run rules, filter.

The engine is deliberately tiny: discovery (``.py`` files under the
given roots), one :func:`ast.parse` per file, the rules' per-module
checks, and suppression filtering.  All pattern knowledge lives in the
rule classes (see :mod:`repro.analysis.registry`).
"""

from __future__ import annotations

import fnmatch
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path, PurePosixPath

import ast

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, load_rules
from repro.analysis.suppress import SuppressionIndex, parse_suppressions

#: Rule id reported for files the engine cannot parse at all.
SYNTAX_ERROR_ID = "E0"


@dataclass
class ParsedModule:
    """One parsed source file plus everything rules need to inspect it.

    Attributes:
        path: Absolute filesystem path.
        display_path: Path as shown in diagnostics (input path joined
            with the in-tree relative path).
        relpath: POSIX-style path below the file's top-level package
            (``core/model.py`` however much of ``src/repro`` was
            linted); rules use it for scoping (e.g. R2 only applies
            under ``core/`` and ``flow/``).
        tree: The parsed AST.
        lines: Raw source lines (1-based access via ``lines[i - 1]``).
        suppressions: Parsed ``# geacc-lint: disable`` directives.
    """

    path: Path
    display_path: str
    relpath: str
    tree: ast.Module
    lines: list[str]
    suppressions: SuppressionIndex

    @property
    def relparts(self) -> tuple[str, ...]:
        """Components of :attr:`relpath` (``core/model.py`` -> ``("core", "model.py")``)."""
        return PurePosixPath(self.relpath).parts


def _excluded(relpath: str, exclude: Sequence[str]) -> bool:
    """True if ``relpath`` matches any exclusion glob.

    A pattern matches the file's root-relative POSIX path, and a
    pattern naming a directory (``fixtures`` or ``fixtures/``) excludes
    the whole tree under it.
    """
    for pattern in exclude:
        if fnmatch.fnmatch(relpath, pattern):
            return True
        if fnmatch.fnmatch(relpath, pattern.rstrip("/") + "/*"):
            return True
    return False


def _package_prefix(directory: Path) -> str:
    """``directory``'s POSIX path below its top-level package, plus ``/``.

    Walks up while both the directory and its parent are packages
    (carry an ``__init__.py``): ``src/repro/core/algorithms`` gives
    ``core/algorithms/``, ``src/repro`` itself and any directory outside
    a package give ``""``.
    """
    parts: list[str] = []
    current = directory.resolve()
    while (current / "__init__.py").is_file() and (
        current.parent / "__init__.py"
    ).is_file():
        parts.append(current.name)
        current = current.parent
    return "".join(f"{part}/" for part in reversed(parts))


def _discover(
    paths: Sequence[str | Path], exclude: Sequence[str] | None = None
) -> list[tuple[Path, str, str]]:
    """Expand input paths into ``(abs_path, display_path, relpath)`` triples.

    ``exclude`` globs match the root-relative path; the returned relpath
    is prefixed with the root's own place in its package, so scoped
    rules see ``core/...`` whether ``src/repro`` or ``src/repro/core``
    was linted.
    """
    found: list[tuple[Path, str, str]] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            prefix = _package_prefix(root)
            for file_path in sorted(root.rglob("*.py")):
                rel = file_path.relative_to(root).as_posix()
                if exclude and _excluded(rel, exclude):
                    continue
                found.append((file_path, str(Path(raw) / rel), prefix + rel))
        else:
            if exclude and _excluded(root.name, exclude):
                continue
            found.append((root, str(raw), _package_prefix(root.parent) + root.name))
    return found


def _parse_one(
    file_path: Path, display: str, rel: str
) -> ParsedModule | Diagnostic:
    """Parse one file; a syntax error comes back as its ``E0`` finding."""
    source = file_path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(file_path))
    except SyntaxError as exc:
        return Diagnostic(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_ID,
            message=f"syntax error: {exc.msg}",
        )
    lines = source.splitlines()
    return ParsedModule(
        path=file_path,
        display_path=display,
        relpath=rel,
        tree=tree,
        lines=lines,
        suppressions=parse_suppressions(lines, tree),
    )


def _check_module(
    module: ParsedModule, rules: Sequence[Rule], include_suppressed: bool
) -> list[Diagnostic]:
    """Run ``rules`` over one module and filter its suppressed findings.

    Suppressed findings are dropped, or kept marked ``suppressed=True``
    when ``include_suppressed`` is set; unsuppressible rules ignore
    directives altogether.
    """
    kept: list[Diagnostic] = []
    for rule in rules:
        for diag in rule.check_module(module):
            if rule.suppressible and module.suppressions.is_suppressed(
                diag.line, diag.rule_id
            ):
                if include_suppressed:
                    kept.append(replace(diag, suppressed=True))
            else:
                kept.append(diag)
    return kept


def run_lint(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    *,
    include_suppressed: bool = False,
    exclude: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Lint ``paths`` with the registered rules; the one-call API.

    Returns the sorted, de-duplicated findings (syntax errors
    first-class among them, never filtered). Suppressed findings are
    dropped unless ``include_suppressed`` is set, in which case they
    are kept with ``suppressed=True``; callers deriving an exit code
    must look only at unsuppressed ones. ``exclude`` holds
    root-relative globs for files to skip.
    """
    rules = load_rules(select=select, ignore=ignore)
    findings: list[Diagnostic] = []
    for file_path, display, rel in _discover(paths, exclude):
        parsed = _parse_one(file_path, display, rel)
        if isinstance(parsed, Diagnostic):
            findings.append(parsed)
        else:
            findings.extend(_check_module(parsed, rules, include_suppressed))
    return sorted(set(findings))
