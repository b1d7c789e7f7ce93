"""R16 -- shard isolation: no cross-shard store access outside sharding.

The shard coordinator's whole correctness argument rests on one
ownership rule: a shard's :class:`~repro.service.store.ArrangementStore`,
journal and engine are mutated only through that shard's
:class:`~repro.service.frontend.ArrangementService`, which the
:class:`~repro.service.sharding.coordinator.ShardCoordinator` holds in
its ``shards`` list and drives under the shard's lock; the coordinator
is the only component allowed to look across shards (it serialises
every cross-shard mutation through the manifest). Code elsewhere that
reaches *through* the fleet -- ``coordinator.shards[i].store`` or
``fleet.shards[0].journal`` -- bypasses both the per-shard locks and
the manifest write-ahead step, so a mutation issued that way is
invisible to recovery and can interleave with a rebalance
mid-migration.

Outside a ``sharding/`` package directory this rule flags:

* attribute reach-ins ``<x>.shards[...].store`` /
  ``<x>.shards[...].journal`` (and ``.engine`` / ``.service``) -- any
  subscript of a name or attribute called ``shards`` (or ``managers``,
  the fleet list's former name) whose result is then dereferenced into
  shard internals;
* imports of the sharding *implementation* submodules
  (``repro.service.sharding.manager`` / ``.manifest``), which the
  package facade deliberately does not re-export wholesale.

The package facade stays legal everywhere: ``from
repro.service.sharding import ShardCoordinator, ShardManager`` only
exposes the coordinator command surface and the fleet's file layout
(``ShardManager.journal_path`` / ``snapshot_dir``), which is exactly
the API the CLI and load generator are meant to use.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutils import dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ParsedModule
from repro.analysis.registry import Rule, register_rule

#: Fleet collections whose elements are per-shard handles.
_FLEET_NAMES = frozenset({"shards", "managers"})

#: Per-shard internals that only the sharding package may dereference.
_SHARD_INTERNALS = frozenset({"store", "journal", "engine", "service"})

#: Implementation submodules the facade deliberately does not re-export
#: wholesale; importing them elsewhere hands out raw shard internals.
_PRIVATE_MODULES = frozenset(
    {
        "repro.service.sharding.manager",
        "repro.service.sharding.manifest",
    }
)

#: Package directory whose modules own the shard machinery.
_EXEMPT_DIR = "sharding"


@register_rule
class ShardAccessRule(Rule):
    """Flag cross-shard internal access outside the sharding package."""

    rule_id = "R16"
    title = "no cross-shard store access outside repro.service.sharding"
    rationale = (
        "reaching through .shards[...]/.managers[...] into a shard's "
        "store/journal/engine bypasses the per-shard locks and the "
        "coordinator's manifest write-ahead step; route mutations "
        "through the ShardCoordinator command surface"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Diagnostic]:
        if _EXEMPT_DIR in module.relparts[:-1]:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_reach_in(module, node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)

    def _check_reach_in(
        self, module: ParsedModule, node: ast.Attribute
    ) -> Iterator[Diagnostic]:
        if node.attr not in _SHARD_INTERNALS:
            return
        if not isinstance(node.value, ast.Subscript):
            return
        fleet = _terminal_name(node.value.value)
        if fleet in _FLEET_NAMES:
            yield _diag(
                module, node,
                f"{fleet}[...].{node.attr}: cross-shard reach-in past the "
                "coordinator; shard internals belong to "
                "repro.service.sharding -- use the ShardCoordinator "
                "command surface",
            )

    def _check_import(
        self, module: ParsedModule, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Diagnostic]:
        if isinstance(node, ast.ImportFrom):
            targets = [node.module] if node.module else []
            label = f"from {node.module} import ..."
        else:
            targets = [alias.name for alias in node.names]
            label = ""
        for target in targets:
            if target in _PRIVATE_MODULES:
                shown = label or f"import {target}"
                yield _diag(
                    module, node,
                    f"{shown}: sharding implementation submodule imported "
                    "outside the sharding package; import the "
                    "repro.service.sharding facade instead",
                )


def _terminal_name(expr: ast.expr) -> str | None:
    """The last identifier of a name/attribute chain, else ``None``.

    Catches both ``managers[0]`` (a local binding) and
    ``coordinator.managers[0]`` (a fleet attribute); anything more
    exotic -- a call result, a comprehension -- is not provably the
    fleet, so it is left alone.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    return dotted.rpartition(".")[2]


def _diag(module: ParsedModule, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        path=module.display_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id=ShardAccessRule.rule_id,
        message=message,
    )
