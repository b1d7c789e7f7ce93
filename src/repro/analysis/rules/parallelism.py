"""R7 -- parallelism: no naked multiprocessing outside ``repro.parallel``.

The parallel sweep executor (:mod:`repro.parallel`) exists so that every
worker process in the tree obeys one set of invariants: the parent is
the sole checkpoint writer, a worker that dies is detected and its
cells recorded as failed, start methods are selected (never mutated
globally), and results stay deterministic regardless of completion
order. A ``multiprocessing.Pool`` spun up anywhere else silently
re-opens every one of those holes -- two writers on one JSONL
checkpoint, a dead worker that hangs the caller forever,
fork-after-thread deadlocks -- so this rule flags process-based
parallelism primitives everywhere except under a ``parallel/`` package
directory:

* constructing ``multiprocessing.Pool`` / ``Process`` (or importing
  them from ``multiprocessing`` / ``multiprocessing.pool``);
* ``concurrent.futures.ProcessPoolExecutor`` likewise;
* ``multiprocessing.get_context(...)`` (the gateway to a pool) and
  ``set_start_method(...)`` (mutates interpreter-global state -- not
  acceptable in library code anywhere, but the parallel package selects
  contexts locally instead and never calls it).

Thread pools are untouched: they share the parent's memory and cannot
corrupt checkpoints or lose a dead worker's cells.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutils import dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule
from repro.analysis.registry import Rule, register_rule

#: Modules whose process primitives are corralled into repro.parallel.
_MP_MODULES = frozenset({"multiprocessing", "multiprocessing.pool"})
_FUTURES_MODULES = frozenset({"concurrent.futures"})

#: Attribute/function names that create or configure worker processes.
_MP_BANNED = frozenset({"Pool", "Process", "get_context", "set_start_method"})
_FUTURES_BANNED = frozenset({"ProcessPoolExecutor"})

#: Package directory whose modules own the pooling machinery.
_EXEMPT_DIR = "parallel"


@register_rule
class ParallelismRule(Rule):
    """Flag process-pool primitives used outside ``repro.parallel``."""

    rule_id = "R7"
    title = "no naked multiprocessing outside repro.parallel"
    rationale = (
        "ad-hoc pools break the sweep invariants (single checkpoint writer, "
        "dead-worker detection, deterministic merges); route process "
        "parallelism through repro.parallel.run_cell_groups"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Diagnostic]:
        if _EXEMPT_DIR in module.relparts[:-1]:
            return
        mp_aliases, futures_aliases = _module_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, mp_aliases, futures_aliases
                )

    def _check_import_from(
        self, module: ParsedModule, node: ast.ImportFrom
    ) -> Iterator[Diagnostic]:
        if node.module in _MP_MODULES:
            banned = _MP_BANNED
        elif node.module in _FUTURES_MODULES:
            banned = _FUTURES_BANNED
        else:
            return
        for alias in node.names:
            if alias.name in banned:
                bound = alias.asname or alias.name
                yield _diag(
                    module, node,
                    f"from {node.module} import {alias.name} (bound as "
                    f"{bound!r}): process pools belong to repro.parallel -- "
                    "use run_cell_groups instead",
                )

    def _check_call(
        self,
        module: ParsedModule,
        node: ast.Call,
        mp_aliases: set[str],
        futures_aliases: set[str],
    ) -> Iterator[Diagnostic]:
        dotted = dotted_name(node.func)
        if dotted is None or "." not in dotted:
            return
        prefix, _, attr = dotted.rpartition(".")
        if prefix in mp_aliases and attr in _MP_BANNED:
            yield _diag(
                module, node,
                f"{dotted}(): process parallelism outside repro.parallel; "
                "use repro.parallel.run_cell_groups (and never mutate the "
                "global start method)",
            )
        elif prefix in futures_aliases and attr in _FUTURES_BANNED:
            yield _diag(
                module, node,
                f"{dotted}(): process pools belong to repro.parallel -- "
                "use run_cell_groups instead",
            )


def _module_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names bound to multiprocessing[.pool] and concurrent.futures.

    Covers ``import multiprocessing [as mp]`` (with ``mp.pool`` also
    reachable through the bare binding) and ``from concurrent import
    futures [as cf]``.
    """
    mp: set[str] = set()
    futures: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _MP_MODULES:
                    bound = alias.asname or alias.name.partition(".")[0]
                    mp.add(bound)
                    mp.add(bound + ".pool")
                elif alias.name in _FUTURES_MODULES:
                    futures.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "concurrent":
                for alias in node.names:
                    if alias.name == "futures":
                        futures.add(alias.asname or alias.name)
    return mp, futures


def _diag(module: ParsedModule, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        path=module.display_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id=ParallelismRule.rule_id,
        message=message,
    )
