"""The sanctioned process-level parallelism layer.

Everything in this repository that fans work out to multiple processes
goes through this package -- ``geacc-lint`` rule R7 bans naked
``multiprocessing.Pool`` / ``fork`` start-method selection everywhere
else, so budgets (:mod:`repro.robustness.budget`) and the crash-safe
sweep checkpoint (:mod:`repro.experiments.runner`) cannot be bypassed
by ad-hoc pools.

Two public pieces:

* :mod:`repro.parallel.executor` -- the sweep executor: runs each
  (grid point, seed) group of a sweep in a worker process through the
  serial group runner, keeps the *parent* the sole writer of the
  fsynced JSONL checkpoint, records the cells of a worker that died as
  failed, and cancels running groups when a global
  :class:`~repro.robustness.budget.Budget` deadline is exhausted.
* :mod:`repro.parallel.maplib` -- an order-preserving ``parallel_map``
  for coarse-grained picklable tasks that need the same fork-preferred,
  parent-aggregates conventions without the sweep machinery (used by
  ``geacc-lint --jobs``), and its in-process sibling ``thread_map``
  (used by the shard coordinator).
"""

from repro.parallel.executor import (
    ParallelUnavailableError,
    default_jobs,
    run_cell_groups,
)
from repro.parallel.maplib import parallel_map, thread_map

__all__ = [
    "ParallelUnavailableError",
    "default_jobs",
    "parallel_map",
    "run_cell_groups",
    "thread_map",
]
