"""Generic sweep runner shared by all figure drivers.

A sweep varies one workload parameter over a grid, generates ``repeats``
instances per grid point (different seeds), runs each requested solver,
validates feasibility of every arrangement, and averages MaxSum / time /
memory. :class:`Sweep` renders the same rows the paper's figures plot.

Crash safety
------------
Long sweeps die for boring reasons (OOM killers, preempted machines,
Ctrl-C). The runner therefore treats every (grid point, seed, solver)
triple as an isolated *cell*:

* a cell that raises is caught, classified (:func:`~repro.robustness.
  outcome.is_transient`), retried a bounded number of times with a fresh
  instance seed when transient, and finally recorded as a structured
  failure instead of killing the sweep;
* with ``checkpoint_path`` set, every finished cell is appended to a
  JSONL file (header line + one :class:`CellResult` per line, flushed
  and fsynced) the moment it completes;
* ``resume=True`` reloads that file and skips every successfully
  completed cell -- previously written lines are never rewritten, so a
  killed sweep resumed later produces the identical file and tables
  while re-running zero finished cells.

``KeyboardInterrupt`` is deliberately *not* caught: it kills the sweep
between cells, which is exactly the crash the checkpoint protects
against.

Parallelism
-----------
Cells are grouped by (grid point, seed): :func:`run_groups` builds the
group's instance -- similarity matrix included -- **once** and runs
every solver of the group on it. ``jobs > 1`` hands whole groups to
:func:`repro.parallel.run_cell_groups`, whose worker processes each call
:func:`run_groups` on one group; the parent stays the sole checkpoint
writer, cells keep their stable :func:`cell_key` identities, and the
final tables are merged in grid order -- so only the *line order* of
the checkpoint depends on scheduling, and
:func:`canonical_checkpoint_lines` of a ``jobs=1`` and a ``jobs=4`` run
of the same grid are identical.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from repro.core.model import Instance
from repro.exceptions import JournalError
from repro.experiments.metrics import measure
from repro.experiments.reporting import format_table
from repro.robustness.budget import Budget
from repro.robustness.harness import run_with_budget
from repro.robustness.outcome import FailureRecord, Outcome, is_transient
from repro.service.journal import REAL_FS, FileSystem, JsonlLog, encode_line

#: The algorithm set of Fig. 3 / Fig. 4.
DEFAULT_SOLVERS = ("greedy", "mincostflow", "random-v", "random-u")

#: First line of every sweep checkpoint file (plus the sweep name).
CHECKPOINT_FORMAT = "geacc-sweep-v2"

#: The previous format (cell lines without the ``n`` counter). Resuming
#: one is refused; a run without ``resume`` overwrites it.
LEGACY_FORMAT = "geacc-sweep-v1"

#: Instance-seed stride for transient-failure retries. Large and prime so
#: retry seeds never collide with the sweep's own ``range(repeats)`` seeds.
RETRY_SEED_STRIDE = 1_000_003

#: One (grid point, seed) group of cells: all its solvers share one instance.
CellGroup = tuple[object, int, tuple[str, ...]]

#: Above this many (|V|, |U|) matrix cells a sweep group keeps the
#: similarity matrix unmaterialised and solvers stream through the NN
#: index instead -- the same threshold
#: :func:`repro.core.algorithms.neighbors.neighbor_orders_for` uses to
#: pick its backend, so sharing never forces an allocation the solver
#: itself would have refused.
SHARED_SIMS_CELL_LIMIT = 20_000_000


def want_shared_sims(instance: Instance) -> bool:
    """Should a sweep group materialise + share this instance's matrix?

    :func:`run_groups` consults this for every group, serial or in a
    worker, so whether a cell's solver sees ``has_matrix`` is a property
    of the instance, never of ``--jobs`` -- keeping checkpoints
    canonically identical across modes.
    """
    if instance.has_matrix:
        return True
    return instance.n_events * instance.n_users <= SHARED_SIMS_CELL_LIMIT


@dataclass(frozen=True)
class Record:
    """Averaged result of one (grid point, solver) cell."""

    x: object
    solver: str
    max_sum: float
    seconds: float
    peak_mb: float
    n_pairs: float


def cell_key(x: object, seed: int, solver: str) -> str:
    """Canonical JSON key of one sweep cell.

    JSON serialisation makes tuples and lists identical, so a key
    computed from the live grid matches one reloaded from a checkpoint.
    """
    return json.dumps([x, seed, solver], sort_keys=True)


@dataclass(frozen=True)
class CellResult:
    """One finished (grid point, seed, solver) cell -- the checkpoint unit."""

    x: object
    seed: int
    solver: str
    status: str  # "ok" | "failed"
    outcome: str  # an Outcome value
    max_sum: float
    seconds: float
    peak_mb: float
    n_pairs: float
    attempts: int = 1
    failures: tuple[FailureRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def key(self) -> str:
        return cell_key(self.x, self.seed, self.solver)

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "seed": self.seed,
            "solver": self.solver,
            "status": self.status,
            "outcome": self.outcome,
            "max_sum": self.max_sum,
            "seconds": self.seconds,
            "peak_mb": self.peak_mb,
            "n_pairs": self.n_pairs,
            "attempts": self.attempts,
            "failures": [f.to_json() for f in self.failures],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CellResult":
        return cls(
            x=data["x"],
            seed=int(data["seed"]),
            solver=data["solver"],
            status=data["status"],
            outcome=data["outcome"],
            max_sum=float(data["max_sum"]),
            seconds=float(data["seconds"]),
            peak_mb=float(data["peak_mb"]),
            n_pairs=float(data["n_pairs"]),
            attempts=int(data.get("attempts", 1)),
            failures=tuple(
                FailureRecord.from_json(f) for f in data.get("failures", ())
            ),
        )


class SweepCheckpoint(JsonlLog):
    """Append-only JSONL checkpoint of a sweep's finished cells.

    A :class:`~repro.service.journal.JsonlLog` with the journal's
    durability contract. Line 1 is a header naming the format and the
    sweep; every further line is one fsync'd :class:`CellResult` plus
    its counter ``n``. A torn final line is re-run; anything else wrong
    raises :class:`~repro.exceptions.JournalError`.
    """

    FORMAT = CHECKPOINT_FORMAT
    COUNTER = "n"
    NOUN = "sweep checkpoint"

    def __init__(
        self, path: str | Path, name: str, *, fs: FileSystem = REAL_FS
    ) -> None:
        super().__init__(Path(path), None, size_bytes=0, fs=fs)
        self.name = name
        self.n = 0  # cell lines so far: the last line's ``n``
        #: Length of the durable prefix :meth:`load` read (None before).
        self._durable_bytes: int | None = None

    @classmethod
    def _parse_header(cls, header: object, path: Path) -> tuple[object, int]:
        if isinstance(header, dict) and header.get("format") == LEGACY_FORMAT:
            raise JournalError(
                f"{path} is a {LEGACY_FORMAT} checkpoint; only "
                f"{CHECKPOINT_FORMAT} checkpoints can be resumed (run without "
                f"--resume to start the sweep over)"
            )
        return cls._check_format(header, path), 1

    def exists(self) -> bool:
        return self._fs.exists(self.path)

    def reset(self) -> None:
        """Start a fresh checkpoint file containing only the header.

        The header is written atomically: a crash mid-reset leaves the
        previous file (or none), never an empty or torn header that
        :meth:`load` would refuse on every later ``--resume``.
        """
        self._fs.mkdir(self.path.parent)
        self._replace(encode_line({"format": CHECKPOINT_FORMAT, "name": self.name}))
        self.n = 0

    def load(self) -> dict[str, CellResult]:
        """Completed cells keyed by :func:`cell_key`; {} when absent.

        Raises:
            JournalError: The file exists but is not a checkpoint of this
                sweep, or is corrupt before its final line -- resuming
                into it would silently mix unrelated experiments.
        """
        if not self.exists():
            return {}
        lines = self.scan(self.path, self._fs)
        first = next(lines, None)
        if first is None:
            raise JournalError(
                f"{self.path} is not a sweep checkpoint (no complete header line)"
            )
        header: dict = first[0]  # type: ignore[assignment]
        self._durable_bytes = first[1]
        if header.get("name") != self.name:
            raise JournalError(
                f"{self.path} belongs to sweep {header.get('name')!r}, "
                f"not {self.name!r}"
            )
        cells: dict[str, CellResult] = {}
        self.n = 0
        for record, self._durable_bytes in lines:
            try:
                cell = CellResult.from_json(record)  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalError(
                    f"{self.path}:{self.n + 2}: malformed cell: {exc!r}"
                ) from exc
            cells[cell.key()] = cell
            self.n += 1
        return cells

    def truncate_torn_tail(self) -> None:
        """Cut a torn final line and open the file for :meth:`append`.

        Must run after :meth:`load` and before the first :meth:`append`
        of a resumed sweep: appending straight after a torn fragment
        would glue the fragment and the new cell into one corrupt line.
        """
        if self._durable_bytes is None:
            raise JournalError(f"{self.path}: load the checkpoint before reopening it")
        self._handle = self._reopen(self.path, self._durable_bytes, self._fs)
        self.size_bytes = self._durable_bytes

    def append(self, cell: CellResult) -> None:
        """Durably record one finished cell."""
        self._write_record({"n": self.n + 1, **cell.to_json()})
        self.n += 1


@dataclass
class Sweep:
    """Results of one parameter sweep (one figure column)."""

    name: str
    x_label: str
    records: list[Record] = field(default_factory=list)
    failures: list[CellResult] = field(default_factory=list)

    def solvers(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record.solver not in seen:
                seen.append(record.solver)
        return seen

    def series(self, solver: str, metric: str) -> list[tuple[object, float]]:
        """(x, value) pairs for one solver and metric column."""
        return [
            (r.x, getattr(r, metric)) for r in self.records if r.solver == solver
        ]

    def render(self) -> str:
        """The figure's three panels (MaxSum, seconds, MB) as tables."""
        blocks = [f"== {self.name} =="]
        for metric, title in (
            ("max_sum", "MaxSum"),
            ("seconds", "running time (s)"),
            ("peak_mb", "peak memory (MB)"),
        ):
            solvers = self.solvers()
            xs = []
            for record in self.records:
                if record.x not in xs:
                    xs.append(record.x)
            rows = []
            for x in xs:
                row: list[object] = [x]
                for solver in solvers:
                    values = dict(self.series(solver, metric))
                    row.append(values.get(x))
                rows.append(row)
            blocks.append(f"-- {title} --")
            blocks.append(format_table([self.x_label, *solvers], rows))
        if self.failures:
            blocks.append(f"-- failed cells ({len(self.failures)}) --")
            rows = [
                [
                    cell.x,
                    cell.seed,
                    cell.solver,
                    cell.attempts,
                    "; ".join(
                        f"{f.error_type}: {f.message}" for f in cell.failures
                    ),
                ]
                for cell in self.failures
            ]
            blocks.append(
                format_table([self.x_label, "seed", "solver", "attempts", "errors"], rows)
            )
        return "\n".join(blocks)


def run_cell(
    instance_factory: Callable[[object, int], Instance],
    x: object,
    seed: int,
    solver_name: str,
    *,
    memory: bool = True,
    solver_kwargs: dict | None = None,
    timeout: float | None = None,
    node_limit: int | None = None,
    max_attempts: int = 2,
    instance: Instance | None = None,
) -> CellResult:
    """Run one sweep cell in isolation; never raises (except BaseException).

    Failures are classified with :func:`is_transient`; transient ones
    are retried up to ``max_attempts`` times total, each retry
    regenerating the instance with seed ``seed + RETRY_SEED_STRIDE *
    attempt`` so a poisoned instance draw cannot wedge the sweep.

    Args:
        instance: Pre-materialised instance for the *first* attempt --
            how a (grid point, seed) group shares one instance (and one
            similarity matrix) across its solvers. Retries always
            regenerate through the factory: a shared instance that
            provoked a transient failure must not be resampled into
            every retry.
    """
    failures: list[FailureRecord] = []
    attempts = 0
    for attempt in range(max(1, max_attempts)):
        attempts += 1
        instance_seed = seed + RETRY_SEED_STRIDE * attempt
        if attempt == 0 and instance is not None:
            attempt_instance = instance
        else:
            try:
                attempt_instance = instance_factory(x, instance_seed)
            except Exception as exc:
                record = FailureRecord(
                    solver=solver_name,
                    error_type=type(exc).__name__,
                    message=f"instance generation failed: {exc}",
                    transient=is_transient(exc),
                    attempt=attempt,
                )
                failures.append(record)
                if not record.transient:
                    break
                continue
        run = measure(
            lambda: run_with_budget(
                solver_name,
                attempt_instance,
                timeout=timeout,
                node_limit=node_limit,
                solver_kwargs=solver_kwargs,
            ),
            memory=memory,
        )
        result = run.result
        if result.ok:
            return CellResult(
                x=x,
                seed=seed,
                solver=solver_name,
                status="ok",
                outcome=result.outcome.value,
                max_sum=result.max_sum(),
                seconds=result.seconds,
                peak_mb=run.peak_mb if run.peak_mb is not None else 0.0,
                n_pairs=float(len(result.arrangement)),
                attempts=attempts,
                failures=tuple(failures) + result.failures,
            )
        failures.extend(
            FailureRecord(
                solver=f.solver,
                error_type=f.error_type,
                message=f.message,
                transient=f.transient,
                attempt=attempt,
            )
            for f in result.failures
        )
        if not any(f.transient for f in result.failures):
            break
    return CellResult(
        x=x,
        seed=seed,
        solver=solver_name,
        status="failed",
        outcome=Outcome.FAILED.value,
        max_sum=0.0,
        seconds=0.0,
        peak_mb=0.0,
        n_pairs=0.0,
        attempts=attempts,
        failures=tuple(failures),
    )


def _effective_timeout(timeout: float | None, budget: Budget | None) -> float | None:
    """Per-cell timeout with the sweep budget's remaining deadline capped in."""
    if budget is None or budget.deadline is None:
        return timeout
    remaining = budget.remaining_seconds() or 0.0
    return remaining if timeout is None else min(timeout, remaining)


def run_groups(
    instance_factory: Callable[[object, int], Instance],
    groups: Sequence[CellGroup],
    *,
    memory: bool,
    solver_kwargs: dict[str, dict],
    timeout: float | None,
    node_limit: int | None,
    max_attempts: int,
    budget: Budget | None = None,
    on_cell: Callable[[CellResult], None] | None = None,
) -> dict[str, CellResult]:
    """Run each (grid point, seed) group's cells in this process, in order.

    The one group runner: serial sweeps call it on every group, and each
    :func:`repro.parallel.run_cell_groups` worker calls it on one. A
    group's instance is built once and shared by all its solvers; cells
    not started before ``budget`` expires are simply absent from the
    returned mapping; ``on_cell`` is invoked per finished cell.
    """
    results: dict[str, CellResult] = {}
    if budget is not None:
        budget.start()
    for x, seed, group_solvers in groups:
        if budget is not None and budget.expired():
            break
        try:
            shared: Instance | None = instance_factory(x, seed)
        except Exception:
            # Leave generation (and its classify/retry treatment) to
            # run_cell; only Exception is absorbed -- a KeyboardInterrupt
            # here kills the sweep exactly like the per-cell path would.
            shared = None
        if shared is not None and want_shared_sims(shared):
            shared.sims  # materialise once; every solver in the group reuses it
        for solver_name in group_solvers:
            if budget is not None and budget.expired():
                break
            cell = run_cell(
                instance_factory,
                x,
                seed,
                solver_name,
                memory=memory,
                solver_kwargs=solver_kwargs.get(solver_name),
                timeout=_effective_timeout(timeout, budget),
                node_limit=node_limit,
                max_attempts=max_attempts,
                instance=shared,
            )
            results[cell.key()] = cell
            if on_cell is not None:
                on_cell(cell)
    if budget is not None and budget.expired():
        budget.mark_exhausted("sweep deadline exhausted")
    return results


def canonical_checkpoint_lines(path: str | Path) -> list[str]:
    """A checkpoint's cell lines in scheduling-independent form.

    Parallel sweeps append cells in completion order and timings are
    never reproducible, so raw files differ run to run. This drops the
    line counter ``n``, zeroes the two nondeterministic fields
    (``seconds``, ``peak_mb``), re-serialises with sorted keys and sorts
    the lines -- two runs of the same grid are equivalent iff their
    canonical lines are equal, whatever ``jobs`` was.
    """
    canonical = []
    for record, _ in islice(SweepCheckpoint.scan(path), 1, None):  # skip the header
        data = {**record, "seconds": 0.0, "peak_mb": 0.0}  # type: ignore[dict-item]
        del data["n"]
        canonical.append(json.dumps(data, sort_keys=True))
    return sorted(canonical)


def sweep_parameter(
    name: str,
    x_label: str,
    grid: Sequence[object],
    instance_factory: Callable[[object, int], Instance],
    solvers: Sequence[str] = DEFAULT_SOLVERS,
    repeats: int = 3,
    memory: bool = True,
    solver_kwargs: dict[str, dict] | None = None,
    *,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    timeout: float | None = None,
    node_limit: int | None = None,
    max_attempts: int = 2,
    jobs: int = 1,
    budget: Budget | None = None,
) -> Sweep:
    """Run ``solvers`` over ``grid``, averaging ``repeats`` seeds per point.

    Args:
        instance_factory: ``(grid value, seed) -> Instance``. A fresh
            instance per (point, seed); all solvers at a point share it
            (materialised once, similarity matrix included).
        solver_kwargs: Optional per-solver constructor arguments.
        checkpoint_path: JSONL file to append each finished cell to
            (a :class:`SweepCheckpoint`: a header line, then one fsync'd
            line per cell, numbered by its ``n`` counter). The file stays
            open for appending until the sweep returns or raises.
        resume: Reload ``checkpoint_path``, cut a torn final line, and
            skip every cell already completed successfully; a file that
            is no ``geacc-sweep-v2`` checkpoint of this sweep, or is
            corrupt before its final line, raises
            :class:`~repro.exceptions.JournalError` and is left as it
            was. Without ``resume`` an existing file is overwritten.
        timeout / node_limit: Per-cell budget forwarded to
            :func:`~repro.robustness.harness.run_with_budget`; timed-out
            cells report their anytime best-so-far with outcome
            ``feasible-timeout`` and still average into the tables.
        max_attempts: Total tries per cell when failures are transient.
        jobs: ``1`` (default) runs every cell serially in this process.
            ``N > 1`` runs up to ``N`` (grid point, seed) groups at once
            in worker processes via :func:`repro.parallel.
            run_cell_groups` (``0`` = all cores); if the platform cannot
            run them the sweep degrades to serial. Either way the tables
            and the canonically-sorted checkpoint are identical.
        budget: Optional sweep-wide :class:`~repro.robustness.budget.
            Budget`. Its remaining deadline caps every cell's timeout;
            once it expires, not-yet-run cells are skipped (parallel:
            running groups are cancelled) and are simply absent from
            the tables -- resume later to finish them.

    Cells are visited in deterministic order (grid, then seed, then
    solver); per (point, solver) the averages cover the successful
    cells, and cells that exhausted their retries are collected in
    :attr:`Sweep.failures` instead of poisoning the whole sweep.
    """
    solver_kwargs = solver_kwargs or {}
    checkpoint: SweepCheckpoint | None = None
    completed: dict[str, CellResult] = {}
    if checkpoint_path is not None:
        checkpoint = SweepCheckpoint(checkpoint_path, name)
        if resume and checkpoint.exists():
            completed = checkpoint.load()
            checkpoint.truncate_torn_tail()
        else:
            checkpoint.reset()

    # The work list: one group per (grid point, seed), carrying only the
    # solvers whose cell is not already completed successfully.
    groups: list[CellGroup] = []
    for x in grid:
        for seed in range(repeats):
            missing = tuple(
                s
                for s in solvers
                if not (prior := completed.get(cell_key(x, seed, s))) or not prior.ok
            )
            if missing:
                groups.append((x, seed, missing))

    on_cell = checkpoint.append if checkpoint is not None else None
    run_serial = jobs == 1
    fresh: dict[str, CellResult] = {}
    try:
        if not run_serial and groups:
            from repro.parallel import ParallelUnavailableError, run_cell_groups

            try:
                fresh = run_cell_groups(
                    instance_factory,
                    groups,
                    jobs=jobs,
                    memory=memory,
                    solver_kwargs=solver_kwargs,
                    timeout=timeout,
                    node_limit=node_limit,
                    max_attempts=max_attempts,
                    budget=budget,
                    on_cell=on_cell,
                )
            except ParallelUnavailableError:
                run_serial = True
        if run_serial and groups:
            fresh = run_groups(
                instance_factory,
                groups,
                memory=memory,
                solver_kwargs=solver_kwargs,
                timeout=timeout,
                node_limit=node_limit,
                max_attempts=max_attempts,
                budget=budget,
                on_cell=on_cell,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    merged = dict(completed)
    merged.update(fresh)

    # Deterministic grid-order aggregation: completion order of a
    # parallel run cannot leak into the tables.
    sweep = Sweep(name=name, x_label=x_label)
    for x in grid:
        for solver_name in solvers:
            cells = [
                cell
                for seed in range(repeats)
                if (cell := merged.get(cell_key(x, seed, solver_name))) is not None
            ]
            ok_cells = [c for c in cells if c.ok]
            sweep.failures.extend(c for c in cells if not c.ok)
            if not ok_cells:
                continue
            n = len(ok_cells)
            sweep.records.append(
                Record(
                    x=x,
                    solver=solver_name,
                    max_sum=sum(c.max_sum for c in ok_cells) / n,
                    seconds=sum(c.seconds for c in ok_cells) / n,
                    peak_mb=sum(c.peak_mb for c in ok_cells) / n,
                    n_pairs=sum(c.n_pairs for c in ok_cells) / n,
                )
            )
    return sweep
