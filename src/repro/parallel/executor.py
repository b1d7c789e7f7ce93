"""The process-level sweep executor.

:func:`run_cell_groups` runs a sweep's (grid point, seed) groups in
worker processes while keeping every guarantee of the serial sweep path
(:mod:`repro.experiments.runner`), because each worker *is* the serial
path: it calls :func:`~repro.experiments.runner.run_groups` on its one
group, so the instance -- similarity matrix included -- is built once,
inside the worker, and every solver of the group reuses it.

* **the parent is the sole checkpoint writer** -- a worker sends each
  :class:`~repro.experiments.runner.CellResult` back over a pipe as soon
  as it finishes; the parent appends it (via ``on_cell``) to the
  fsynced JSONL checkpoint, so a finished cell survives a later worker
  death, budget expiry or kill of the parent, and ``--resume`` skips it;
* **determinism regardless of completion order** -- cells carry stable
  :func:`~repro.experiments.runner.cell_key` identities and the caller
  merges the returned ``{key: CellResult}`` mapping in grid order, so
  only the *file line order* of the checkpoint varies with scheduling
  (canonical sort makes jobs=1 and jobs=N byte-identical);
* **global budget** -- each worker gets the sweep's remaining deadline
  as its own :class:`~repro.robustness.budget.Budget`, and once the
  sweep's deadline passes the parent starts no more groups and kills
  the running ones; the cells they were still running are absent from
  the result (a serial sweep would record its in-flight cell as a
  ``feasible-timeout``), and ``--resume`` runs them;
* **worker death** -- when a worker dies (``os._exit``, an OOM kill, a
  segfault), the cell it was running is recorded as a failed cell,
  which ``--resume`` re-runs like any other, and the group's remaining
  solvers go to a new worker.

Each group gets a fresh process, so a fork-context worker inherits the
instance factory -- lambdas and all -- without pickling it. On
platforms without ``fork`` a spawn context is used instead, which
*does* require a picklable factory -- checked up front, raising
:class:`ParallelUnavailableError` so callers can fall back to serial.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from collections.abc import Callable, Sequence
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess

from repro.core.model import Instance
from repro.experiments.runner import CellGroup, CellResult, run_groups
from repro.robustness.budget import Budget
from repro.robustness.outcome import FailureRecord, Outcome


class ParallelUnavailableError(RuntimeError):
    """Process-level parallelism cannot run in this configuration.

    Raised up front (before any work starts) so callers can degrade to
    the serial path instead of failing halfway through.
    """


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` ("all cores")."""
    return os.cpu_count() or 1


def make_context(func: Callable[..., object]):  # type: ignore[no-untyped-def]
    """The multiprocessing context workers running ``func`` start from.

    ``fork`` wherever it exists. Spawn re-imports and unpickles ``func``
    in each worker, so it must survive a pickle round-trip; that is
    verified now, so callers can degrade to serial before any work ran.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    try:
        pickle.dumps(func)
    except Exception as exc:
        raise ParallelUnavailableError(
            f"no fork start method and {func!r} is not picklable for "
            f"spawn workers: {exc}"
        ) from exc
    return multiprocessing.get_context("spawn")


def _run_group(
    conn: Connection,
    instance_factory: Callable[[object, int], Instance],
    group: CellGroup,
    deadline: float | None,
    options: dict,
) -> None:
    """Worker entry point: run one group, sending each cell as it finishes."""
    budget = None if deadline is None else Budget(deadline=deadline)
    run_groups(instance_factory, [group], budget=budget, on_cell=conn.send, **options)
    conn.close()


def _worker_died(x: object, seed: int, solver: str, exitcode: int | None) -> CellResult:
    """The failed cell of the solver that was running when its worker died."""
    return CellResult(
        x=x,
        seed=seed,
        solver=solver,
        status="failed",
        outcome=Outcome.FAILED.value,
        max_sum=0.0,
        seconds=0.0,
        peak_mb=0.0,
        n_pairs=0.0,
        failures=(
            FailureRecord(
                solver=solver,
                error_type="WorkerDied",
                message=f"worker died (exit code {exitcode}) while running "
                "this cell",
                # Most deaths are resource kills (OOM), worth a retry.
                transient=True,
            ),
        ),
    )


def run_cell_groups(
    instance_factory: Callable[[object, int], Instance],
    groups: Sequence[CellGroup],
    *,
    jobs: int,
    memory: bool = True,
    solver_kwargs: dict[str, dict] | None = None,
    timeout: float | None = None,
    node_limit: int | None = None,
    max_attempts: int = 2,
    budget: Budget | None = None,
    on_cell: Callable[[CellResult], None] | None = None,
) -> dict[str, CellResult]:
    """Run every cell of ``groups``, up to ``jobs`` groups at a time.

    Args:
        groups: ``(x, seed, solvers)`` triples; each runs in its own
            worker process, where its solvers share one instance.
        jobs: Worker process count; ``0`` means :func:`default_jobs`.
        budget: Optional sweep-wide budget. Its remaining deadline
            becomes each worker's budget when the worker starts, and on
            exhaustion the parent kills every running worker -- the
            cells they were still running are simply absent from the
            returned mapping.
        on_cell: Called in the parent for each finished cell, in
            completion order -- the checkpoint-append hook. The parent
            stays the sole writer.

    Returns:
        Finished cells keyed by :func:`~repro.experiments.runner.
        cell_key`. Completion order does not affect the mapping.

    Raises:
        ParallelUnavailableError: This platform cannot run the workers
            (no fork, and the factory cannot be pickled for spawn).
    """
    if jobs == 0:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    results: dict[str, CellResult] = {}
    if not groups:
        return results
    ctx = make_context(instance_factory)
    if budget is not None:
        budget.start()
    options = {
        "memory": memory,
        "solver_kwargs": solver_kwargs or {},
        "timeout": timeout,
        "node_limit": node_limit,
        "max_attempts": max_attempts,
    }
    waiting = deque(groups)
    #: read end of a worker's result pipe -> (worker, its group's
    #: unreported solvers, in run order)
    running: dict[Connection, tuple[BaseProcess, CellGroup]] = {}
    try:
        while waiting or running:
            if budget is not None and budget.expired():
                break
            while waiting and len(running) < jobs:
                group = waiting.popleft()
                reader, writer = ctx.Pipe(duplex=False)
                worker = ctx.Process(
                    target=_run_group,
                    args=(writer, instance_factory, group,
                          None if budget is None else budget.remaining_seconds(),
                          options),
                    daemon=True,
                )
                worker.start()
                # Only the worker may hold the write end: its exit then
                # reads as EOF here even when it dies without reporting.
                writer.close()
                running[reader] = (worker, group)
            remaining = None if budget is None else budget.remaining_seconds()
            for reader in wait(list(running), timeout=remaining):
                worker, (x, seed, solvers) = running[reader]
                try:
                    cell = reader.recv()
                except EOFError:
                    del running[reader]
                    reader.close()
                    worker.join()
                    if worker.exitcode != 0 and solvers:
                        # Solvers run in group order, so the first one
                        # still unreported is the one that killed the
                        # worker: it fails, and the rest get a new one.
                        cell = _worker_died(x, seed, solvers[0], worker.exitcode)
                        if solvers[1:]:
                            waiting.appendleft((x, seed, solvers[1:]))
                    else:
                        continue  # done, or out of budget
                else:
                    running[reader] = (worker, (x, seed, solvers[1:]))
                results[cell.key()] = cell
                if on_cell is not None:
                    on_cell(cell)
    finally:
        # Budget expiry (or an exception in the parent): cancel every
        # group still running. Their cells re-run on resume.
        for reader, (worker, _group) in running.items():
            worker.kill()
            worker.join()
            reader.close()
    if budget is not None and budget.expired():
        budget.mark_exhausted("sweep deadline exhausted")
    return results
