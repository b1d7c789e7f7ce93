"""The sanctioned process-level parallelism layer.

Everything in this repository that fans work out to multiple processes
goes through this package -- ``tests/test_boundaries.py`` fails on a
``multiprocessing`` pool, process, context or start-method call, or a
``ProcessPoolExecutor``, anywhere else, so budgets
(:mod:`repro.robustness.budget`) and the crash-safe sweep checkpoint
(:mod:`repro.experiments.runner`) cannot be bypassed by ad-hoc pools.

One public piece, :mod:`repro.parallel.executor`, the sweep executor:
it runs each (grid point, seed) group of a sweep in a worker process
through the serial group runner, keeps the *parent* the sole writer of
the fsynced JSONL checkpoint, records the cells of a worker that died as
failed, and cancels running groups when a global
:class:`~repro.robustness.budget.Budget` deadline is exhausted.
In-process thread fan-out (the shard coordinator's per-shard recovery)
uses :class:`concurrent.futures.ThreadPoolExecutor` directly.
"""

from repro.parallel.executor import (
    ParallelUnavailableError,
    default_jobs,
    run_cell_groups,
)

__all__ = [
    "ParallelUnavailableError",
    "default_jobs",
    "run_cell_groups",
]
