"""The sanctioned process-level parallelism layer.

Everything in this repository that fans work out to multiple processes
goes through this package -- ``geacc-lint`` rule R7 bans naked
``multiprocessing.Pool`` / ``fork`` start-method selection everywhere
else, so budgets (:mod:`repro.robustness.budget`) and the crash-safe
sweep checkpoint (:mod:`repro.experiments.runner`) cannot be bypassed
by ad-hoc pools.

Three public pieces:

* :mod:`repro.parallel.sharedmem` -- zero-copy sharing of an
  :class:`~repro.core.model.Instance`'s numeric payload (similarity
  matrix, attributes, capacities, conflict edges) across worker
  processes via ``multiprocessing.shared_memory``.
* :mod:`repro.parallel.executor` -- the process-pool sweep executor:
  fans (grid point, seed, solver) cells out to workers, keeps the
  *parent* the sole writer of the fsynced JSONL checkpoint, and cancels
  outstanding cells when a global :class:`~repro.robustness.budget.
  Budget` deadline is exhausted.
* :mod:`repro.parallel.maplib` -- an order-preserving ``parallel_map``
  for coarse-grained picklable tasks that need the same fork-preferred,
  parent-aggregates conventions without the sweep machinery (used by
  ``geacc-lint --jobs``).
"""

from repro.parallel.executor import (
    ParallelUnavailableError,
    default_jobs,
    run_cell_groups,
)
from repro.parallel.maplib import parallel_map, thread_map
from repro.parallel.sharedmem import (
    SharedInstanceArchive,
    SharedInstanceHandle,
    SharedInstanceLease,
)

__all__ = [
    "ParallelUnavailableError",
    "SharedInstanceArchive",
    "SharedInstanceHandle",
    "SharedInstanceLease",
    "default_jobs",
    "parallel_map",
    "run_cell_groups",
    "thread_map",
]
