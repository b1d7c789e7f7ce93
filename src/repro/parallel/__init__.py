"""The sanctioned process-level parallelism layer.

Everything in this repository that fans work out to multiple processes
goes through this package -- ``tests/test_boundaries.py`` fails on a
``multiprocessing`` pool, process, context or start-method call, or a
``ProcessPoolExecutor``, anywhere else, so budgets
(:mod:`repro.robustness.budget`) and the crash-safe sweep checkpoint
(:mod:`repro.experiments.runner`) cannot be bypassed by ad-hoc pools.

Two public pieces:

* :mod:`repro.parallel.executor` -- the sweep executor: runs each
  (grid point, seed) group of a sweep in a worker process through the
  serial group runner, keeps the *parent* the sole writer of the
  fsynced JSONL checkpoint, records the cells of a worker that died as
  failed, and cancels running groups when a global
  :class:`~repro.robustness.budget.Budget` deadline is exhausted.
* :mod:`repro.parallel.maplib` -- ``thread_map``, an order-preserving
  map over threads for work that shares parent state (used by the
  shard coordinator).
"""

from repro.parallel.executor import (
    ParallelUnavailableError,
    default_jobs,
    run_cell_groups,
)
from repro.parallel.maplib import thread_map

__all__ = [
    "ParallelUnavailableError",
    "default_jobs",
    "run_cell_groups",
    "thread_map",
]
