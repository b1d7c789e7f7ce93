"""Outside-in layer tracing for the benchmark.

The program is measured from outside: this module rebinds public
functions and methods of ``repro`` (module attributes and class
attributes) to thin wrappers, and restores the originals afterwards.
Nothing under ``src/`` is edited.

Two wrapper kinds, never installed together:

* **span** wrappers record ``(name, start_ns, end_ns, parent, request,
  note)`` per call, in memory. ``parent`` is the index of the enclosing
  span, ``request`` the id of the assignment request the benchmark's
  client is serving (None outside requests), ``note`` a small dict some
  targets read off the call's result (ladder outcome, solver nodes,
  bytes written).
* **count** wrappers only count calls. They cover the hot per-element
  calls (conflict probes, heap pushes/pops, similarity rows), which run
  millions of times per pass; spanning them would inflate every
  enclosing span, so they are counted in a pass of their own.

:func:`layer_metrics` turns the spans and counts of those passes into
the per-layer metrics of ``BENCHMARK.json``. The module was named
``tracer`` rather than ``trace`` so it does not shadow the standard
library module of that name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable, ContextManager, Iterator


def _ladder_note(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"outcome": result.outcome.value}


def _solver_note(args: tuple, kwargs: dict, result: Any) -> dict:
    budget = kwargs.get("budget")
    return {
        "pairs": len(result),
        "nodes": budget.nodes if budget is not None else 0,
    }


def _append_note(args: tuple, kwargs: dict, result: Any) -> dict:
    # Encoding here would bill the parent span; take_spans() sizes it.
    return {"record": result}


def _snapshot_note(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": Path(result).stat().st_size}


def _recover_note(args: tuple, kwargs: dict, result: Any) -> dict:
    report = result.journal.last_recovery
    return {"rung": report.rung, "rejected": len(report.snapshots_rejected)}


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module`` attribute ``attr``.

    ``attr`` is ``"name"`` for a module-level function as bound in that
    module, or ``"Class.method"`` for a method (plain or classmethod).
    """

    name: str
    module: str
    attr: str
    note: Callable[[tuple, dict, Any], dict] | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


#: The batch ladder as the engine module binds it. The online workloads
#: also rebind it (see ``workloads.ladder_outcomes``) to see ladders
#: whose every rung failed, which keep the standing arrangement silently.
LADDER = Target("harness.ladder", "repro.service.engine", "solve_with_ladder", _ladder_note)

_FACADE = "repro.service.frontend"
_COORDINATOR = "repro.service.sharding.coordinator"

SPAN_TARGETS: tuple[Target, ...] = (
    # service.frontend: the façade commands.
    Target("frontend.create", _FACADE, "ArrangementService.create"),
    Target("frontend.recover", _FACADE, "ArrangementService.recover", _recover_note),
    Target("frontend.post_event", _FACADE, "ArrangementService.post_event"),
    Target("frontend.register_user", _FACADE, "ArrangementService.register_user"),
    Target(
        "frontend.request_assignment", _FACADE, "ArrangementService.request_assignment"
    ),
    Target("frontend.freeze_event", _FACADE, "ArrangementService.freeze_event"),
    Target("frontend.commit_delta", _FACADE, "ArrangementService.commit_delta"),
    Target("frontend.compact", _FACADE, "ArrangementService.compact"),
    # service.sharding: the coordinator's commands and its manifest.
    Target("sharding.create", _COORDINATOR, "ShardCoordinator.create"),
    Target("sharding.post_event", _COORDINATOR, "ShardCoordinator.post_event"),
    Target("sharding.register_user", _COORDINATOR, "ShardCoordinator.register_user"),
    Target(
        "sharding.request_assignment",
        _COORDINATOR,
        "ShardCoordinator.request_assignment",
    ),
    Target("sharding.freeze_event", _COORDINATOR, "ShardCoordinator.freeze_event"),
    Target(
        "sharding.manifest_append",
        "repro.service.sharding.manifest",
        "ShardManifest.append",
    ),
    # service.engine and robustness.harness: one batch and its ladder.
    Target("engine.batch", "repro.service.engine", "MicroBatchEngine.run_pending_batch"),
    LADDER,
    Target("harness.run_with_budget", "repro.robustness.harness", "run_with_budget"),
    Target("harness.validate", "repro.robustness.harness", "validate_arrangement"),
    # core.algorithms and index: the solvers.
    Target(
        "greedy.solve", "repro.core.algorithms.greedy", "GreedyGEACC.solve", _solver_note
    ),
    Target(
        "mincostflow.solve",
        "repro.core.algorithms.mincostflow",
        "MinCostFlowGEACC.solve",
        _solver_note,
    ),
    Target("index.make_index", "repro.core.algorithms.neighbors", "make_index"),
    # service.store: the state machine.
    Target("store.apply", "repro.service.store", "ArrangementStore.apply"),
    Target(
        "store.validate_command", "repro.service.store", "ArrangementStore.validate_command"
    ),
    Target(
        "store.snapshot_instance",
        "repro.service.store",
        "ArrangementStore.snapshot_instance",
    ),
    Target("store.digest", "repro.service.store", "ArrangementStore.digest"),
    Target(
        "store.from_canonical", "repro.service.store", "ArrangementStore.from_canonical"
    ),
    # service.journal: appends, the device flush, replay.
    Target("journal.append", "repro.service.journal", "Journal.append", _append_note),
    Target("journal.fsync", "repro.service.journal", "FileSystem.fsync"),
    Target("journal.replay", "repro.service.journal", "replay"),
    Target("journal.replay", "repro.service.snapshot", "replay"),
    # service.snapshot: snapshot files and the journal rewrite.
    Target("snapshot.write", "repro.service.snapshot", "write_snapshot", _snapshot_note),
    Target("snapshot.load", "repro.service.snapshot", "load_snapshot"),
    Target("snapshot.rewrite_tail", "repro.service.journal", "Journal.rewrite_tail"),
)

COUNT_TARGETS: tuple[Target, ...] = (
    Target("store.conflict_probes", "repro.service.store", "ArrangementStore.conflicts_with_any"),
    Target("store.sim_row_calls", "repro.service.store", "ArrangementStore.sim_row"),
    Target("greedy.conflict_probes", "repro.core.conflicts", "ConflictGraph.conflicts_with_any"),
    Target("greedy.heap_pushes", "repro.index.pairheap", "CandidatePairHeap.push"),
    Target("greedy.heap_pops", "repro.index.pairheap", "CandidatePairHeap.pop"),
)


def rebind(target: Target, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``target`` with ``make(original)``; returns the undo."""
    module = importlib.import_module(target.module)
    if "." not in target.attr:
        original = getattr(module, target.attr)
        setattr(module, target.attr, make(original))
        return lambda: setattr(module, target.attr, original)
    class_name, method = target.attr.split(".")
    owner = getattr(module, class_name)
    raw = owner.__dict__[method]
    if isinstance(raw, classmethod):
        wrapped: object = classmethod(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(owner, method, wrapped)
    return lambda: setattr(owner, method, raw)


class Tracer:
    """Span recorder and call counter for one benchmark process.

    Use :meth:`spans_installed` / :meth:`counts_installed` as context
    managers around one pass; the wrappers are removed on exit, so plain
    passes run the unmodified program.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        #: Id of the assignment request being served, set by the client.
        self.request: int | None = None
        #: False while the benchmark runs its own checks inside a pass.
        self.active = True
        # Every workload runs on one thread (threaded=False), so one
        # stack of open spans serves the whole process.
        self._stack: list[int] = []

    def _span_wrapper(self, target: Target) -> Callable[[Callable], Callable]:
        tracer = self
        name, note = target.name, target.note

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                parent = stack[-1] if stack else -1
                index = len(tracer.spans)
                tracer.spans.append(None)
                stack.append(index)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.request, None)
                if note is not None:
                    tracer.spans[index] = tracer.spans[index][:5] + (note(args, kwargs, result),)
                return result

            return wrapped

        return make

    def _count_wrapper(self, target: Target) -> Callable[[Callable], Callable]:
        tracer, counts, name = self, self.counts, target.name

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                if tracer.active:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        return make

    @contextmanager
    def _installed(self, targets: tuple[Target, ...], wrapper: Callable) -> Iterator[None]:
        with ExitStack() as undo:
            for target in targets:
                undo.callback(rebind(target, wrapper(target)))
            yield

    def spans_installed(self) -> ContextManager[None]:
        return self._installed(SPAN_TARGETS, self._span_wrapper)

    def counts_installed(self) -> ContextManager[None]:
        return self._installed(COUNT_TARGETS, self._count_wrapper)

    def take_spans(self) -> list[tuple]:
        """Return and clear the recorded spans (journal records sized)."""
        spans, self.spans = self.spans, []
        for index, span in enumerate(spans):
            note = span[5]
            if note is not None and "record" in note:
                encoded = json.dumps(note["record"], sort_keys=True, separators=(",", ":"))
                spans[index] = span[:5] + ({"bytes": len(encoded.encode("utf-8")) + 1},)
        return spans

    def take_counts(self) -> Counter[str]:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts


def write_spans(path: Path, spans: list[tuple]) -> None:
    """Write spans as JSON lines (one span per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, request, note in spans:
            record = {
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "request": request,
            }
            if note is not None:
                record["note"] = note
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

#: Layers with a ``<layer>.self_pct`` metric (self time, % of pass time).
LAYERS = (
    "frontend",
    "sharding",
    "engine",
    "harness",
    "greedy",
    "index",
    "mincostflow",
    "store",
    "journal",
    "snapshot",
)

#: Span names with their own self-time share, metric name -> span name.
SPAN_SHARES = {
    "store.apply_pct": "store.apply",
    "store.validate_pct": "store.validate_command",
    "store.snapshot_instance_pct": "store.snapshot_instance",
    "store.digest_pct": "store.digest",
    "store.from_canonical_pct": "store.from_canonical",
    "journal.append_pct": "journal.append",
    "journal.fsync_pct": "journal.fsync",
    "journal.replay_pct": "journal.replay",
    "snapshot.write_pct": "snapshot.write",
    "snapshot.load_pct": "snapshot.load",
    "snapshot.rewrite_tail_pct": "snapshot.rewrite_tail",
    "harness.validate_pct": "harness.validate",
    "index.build_pct": "index.make_index",
}


@dataclass
class SpanPass:
    """Per-layer aggregates of one traced pass (times in ns)."""

    wall_ns: int
    self_by_layer: Counter[str]
    self_by_name: Counter[str]
    calls: Counter[str]
    batch_ns: int = 0
    remainder_ns: int = 0
    keep_better_ns: int = 0
    ladder_ns: int = 0
    batches: int = 0
    commits: int = 0
    ladders: int = 0
    rungs: int = 0
    timeouts: int = 0
    greedy_nodes: int = 0
    greedy_pairs: int = 0
    greedy_ns: int = 0
    mincostflow_nodes: int = 0
    journal_bytes: int = 0
    snapshot_bytes: int = 0
    snapshots_rejected: int = 0
    records_replayed: int = 0
    manifest_fsyncs: int = 0


def analyse_spans(spans: list[tuple], wall_ns: int) -> SpanPass:
    """Self times per layer and the engine's batch phases for one pass.

    A span's self time is its duration minus the durations of its direct
    children (spans nest on one thread, so children never overlap).
    """
    child_ns = [0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent].append(index)
    result = SpanPass(
        wall_ns=wall_ns, self_by_layer=Counter(), self_by_name=Counter(), calls=Counter()
    )
    for index, (name, start, end, parent, _, note) in enumerate(spans):
        own = end - start - child_ns[index]
        result.self_by_layer[name.split(".", 1)[0]] += own
        result.self_by_name[name] += own
        result.calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "greedy.solve":
            result.greedy_nodes += note["nodes"]
            result.greedy_pairs += note["pairs"]
            result.greedy_ns += end - start
        elif name == "mincostflow.solve":
            result.mincostflow_nodes += note["nodes"]
        elif name == "journal.append":
            result.journal_bytes += note["bytes"]
        elif name == "snapshot.write":
            result.snapshot_bytes += note["bytes"]
        elif name == "frontend.recover":
            result.snapshots_rejected += note["rejected"]
        elif name == "store.apply" and parent_name == "journal.replay":
            result.records_replayed += 1
        elif name == "journal.fsync" and parent_name == "sharding.manifest_append":
            result.manifest_fsyncs += 1
        elif name == "harness.run_with_budget" and parent_name == "harness.ladder":
            result.rungs += 1
        elif name == "harness.ladder":
            result.ladders += 1
            result.timeouts += note["outcome"] == "feasible-timeout"
        elif name == "engine.batch":
            _batch_phases(result, spans, index, children[index])
    return result


def _batch_phases(
    result: SpanPass, spans: list[tuple], index: int, kids: list[int]
) -> None:
    """Split one batch: remainder build, ladder, keep-better, commit."""
    _, start, end, _, _, _ = spans[index]
    ladder = next((k for k in kids if spans[k][0] == "harness.ladder"), None)
    if ladder is None:
        return  # empty queue, nothing solved
    ladder_start, ladder_end = spans[ladder][1], spans[ladder][2]
    commit = next(
        (k for k in kids if spans[k][0] == "journal.append" and spans[k][1] >= ladder_end),
        None,
    )
    keep_better_end = spans[commit][1] if commit is not None else end
    result.batches += 1
    result.commits += commit is not None
    result.batch_ns += end - start
    result.remainder_ns += ladder_start - start
    result.ladder_ns += ladder_end - ladder_start
    result.keep_better_ns += keep_better_end - ladder_end


def breakdown(span_passes: list[SpanPass], top: int = 14) -> list[str]:
    """Human-readable self time per layer and per span name, ms per pass."""
    n = len(span_passes)
    by_layer, by_name = _merged(span_passes, "self_by_layer"), _merged(span_passes, "self_by_name")
    calls = _merged(span_passes, "calls")
    wall_ms = sum(p.wall_ns for p in span_passes) / n / 1e6
    lines = [f"  traced pass: {wall_ms:.1f} ms; self time per layer (ms/pass):"]
    lines += [f"    {layer:14s} {ns / n / 1e6:10.2f}" for layer, ns in by_layer.most_common()]
    lines.append(f"    {'client':14s} {wall_ms - sum(by_layer.values()) / n / 1e6:10.2f}")
    lines.append("  self time per span (ms/pass, calls/pass):")
    lines += [
        f"    {name:28s} {ns / n / 1e6:10.2f} {calls[name] / n:10.0f}"
        for name, ns in by_name.most_common(top)
    ]
    return lines


def _merged(span_passes: list[SpanPass], field: str) -> Counter[str]:
    merged: Counter[str] = Counter()
    for p in span_passes:
        merged.update(getattr(p, field))
    return merged


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    span_passes: list[SpanPass],
    count_passes: list[Counter[str]],
    plain_wall_s: list[float],
    span_wall_s: list[float],
    rebalances: float,
    quality_ratio: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: ``name -> (value, unit)``.

    Counts are per pass (averaged over passes of that kind); shares are
    of the summed wall time of the traced passes, except the three
    ``engine.*`` batch phases, which are shares of batch time. The i-th
    plain and span passes drove the same input, so the tracing overhead
    is the median of their pairwise ratios.
    """
    wall = sum(p.wall_ns for p in span_passes)
    n_span = len(span_passes)
    n_count = len(count_passes)

    def total(field: str) -> int:
        return sum(getattr(p, field) for p in span_passes)

    def calls(name: str) -> float:
        return calls_total[name] / n_span

    def counted(name: str) -> float:
        return sum(c[name] for c in count_passes) / n_count

    self_by_layer = _merged(span_passes, "self_by_layer")
    self_by_name = _merged(span_passes, "self_by_name")
    calls_total = _merged(span_passes, "calls")

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (_pct(self_by_layer[layer], wall), "%")
    metrics["client.self_pct"] = (
        _pct(wall - sum(self_by_layer.values()), wall),
        "%",
    )
    for metric, name in SPAN_SHARES.items():
        metrics[metric] = (_pct(self_by_name[name], wall), "%")

    frontend_calls = sum(n for name, n in calls_total.items() if name.startswith("frontend."))
    pops = counted("greedy.heap_pops")
    appends = calls_total["journal.append"]
    overhead = median(t / p for p, t in zip(plain_wall_s, span_wall_s)) - 1.0
    metrics.update(
        {
            "frontend.commands": (frontend_calls / n_span, "count"),
            "sharding.manifest_fsyncs": (total("manifest_fsyncs") / n_span, "count"),
            "sharding.rebalances": (rebalances, "count"),
            "engine.batches": (total("batches") / n_span, "count"),
            "engine.remainder_pct": (_pct(total("remainder_ns"), total("batch_ns")), "%"),
            "engine.ladder_pct": (_pct(total("ladder_ns"), total("batch_ns")), "%"),
            "engine.keep_better_pct": (
                _pct(total("keep_better_ns"), total("batch_ns")),
                "%",
            ),
            "engine.commit_frac": (_ratio(total("commits"), total("batches")), "ratio"),
            "engine.ladder_timeouts": (total("timeouts") / n_span, "count"),
            "harness.rungs_per_batch": (_ratio(total("rungs"), total("ladders")), "ratio"),
            "greedy.solves": (calls("greedy.solve"), "count"),
            "greedy.nodes": (total("greedy_nodes") / n_span, "count"),
            "greedy.nodes_per_ms": (
                _ratio(total("greedy_nodes"), total("greedy_ns") / 1e6),
                "1/ms",
            ),
            "greedy.heap_pushes": (counted("greedy.heap_pushes"), "count"),
            "greedy.heap_pops": (pops, "count"),
            "greedy.conflict_probes": (counted("greedy.conflict_probes"), "count"),
            "greedy.accept_frac": (_ratio(total("greedy_pairs") / n_span, pops), "ratio"),
            "index.builds": (calls("index.make_index"), "count"),
            "mincostflow.solves": (calls("mincostflow.solve"), "count"),
            "mincostflow.nodes": (total("mincostflow_nodes") / n_span, "count"),
            "store.conflict_probes": (counted("store.conflict_probes"), "count"),
            "store.sim_row_calls": (counted("store.sim_row_calls"), "count"),
            "journal.appends": (appends / n_span, "count"),
            "journal.fsyncs": (calls("journal.fsync"), "count"),
            "journal.bytes_per_command": (_ratio(total("journal_bytes"), appends), "B"),
            "journal.records_replayed": (total("records_replayed") / n_span, "count"),
            "snapshot.bytes": (total("snapshot_bytes") / n_span, "B"),
            "snapshot.rejected": (total("snapshots_rejected") / n_span, "count"),
            "trace.overhead_pct": (100.0 * overhead, "%"),
            "quality_ratio": (quality_ratio, "ratio"),
        }
    )
    return metrics
