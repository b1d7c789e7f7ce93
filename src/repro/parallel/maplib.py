"""Order-preserving parallel map over picklable tasks.

The sweep executor (:mod:`repro.parallel.executor`) is built around
sweep groups, budgets and checkpoint journaling; some callers just
need a plain "run *f* over these items in N processes" primitive with
the same process conventions:

* **fork-preferred start method** -- the callable (closures and all) is
  inherited at fork time; under spawn its picklability is verified up
  front so failure happens before any work starts;
* **parent-only aggregation** -- workers only *return* values over the
  pool's result channel, they never write shared state, so callers keep
  the "parent is the sole writer" property of the serial path;
* **deterministic ordering** -- results come back in input order
  regardless of worker scheduling, so ``jobs=1`` and ``jobs=N`` are
  indistinguishable to the caller.

``geacc-lint --jobs`` uses this to fan per-file parsing and per-module
rule checks out across cores.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.parallel.executor import default_jobs, make_context

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def parallel_map(
    func: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: int,
) -> list[ResultT]:
    """Apply ``func`` to every item across ``jobs`` worker processes.

    Args:
        func: A picklable callable (module-level function or a
            :func:`functools.partial` of one). Must be pure with respect
            to shared state: its only output channel is its return
            value.
        items: The work items; materialised up front. Items and results
            cross the process boundary, so both must pickle.
        jobs: Worker count. ``0`` means all cores
            (:func:`~repro.parallel.executor.default_jobs`); ``1`` (or a
            single item) runs serially in-process with no pool at all.

    Returns:
        The results in input order, exactly as ``[func(i) for i in
        items]`` would produce.

    Raises:
        ParallelUnavailableError: No usable start method for this
            callable (no ``fork``, and it cannot be pickled for
            ``spawn``). Raised before any item runs, so callers can
            fall back to the serial path.
        ValueError: ``jobs`` is negative.
    """
    work = list(items)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(work) <= 1:
        return [func(item) for item in work]
    ctx = make_context(func)
    # Coarse chunks amortise per-task pickling without starving workers.
    chunksize = max(1, len(work) // (jobs * 4))
    with ctx.Pool(processes=min(jobs, len(work))) as pool:
        return pool.map(func, work, chunksize=chunksize)


def thread_map(
    func: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: int = 0,
) -> list[ResultT]:
    """Apply ``func`` to every item across ``jobs`` *threads*, in order.

    The in-process sibling of :func:`parallel_map` for work that must
    share mutable parent state (shard services, journals, sockets) and
    is either I/O-bound or releases the GIL. Nothing is pickled and no
    processes are forked, so arbitrary closures are fine. ``jobs=0``
    sizes the pool to all cores; ``jobs<=1`` or a single item degrades
    to a plain serial loop. The first exception (in input order) is
    re-raised after all threads finish, so no thread is abandoned
    mid-mutation.

    The shard coordinator fans per-shard recovery and drains through
    this so one slow shard overlaps the others instead of serialising
    behind them.
    """
    work = list(items)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(work) <= 1:
        return [func(item) for item in work]
    import threading

    results: list[ResultT | None] = [None] * len(work)
    errors: list[Exception | None] = [None] * len(work)
    cursor_lock = threading.Lock()
    cursor = 0

    def _worker() -> None:
        nonlocal cursor
        while True:
            with cursor_lock:
                index = cursor
                if index >= len(work):
                    return
                cursor += 1
            try:
                results[index] = func(work[index])
            except Exception as exc:  # re-raised in the parent below
                errors[index] = exc

    threads = [
        threading.Thread(target=_worker, name=f"geacc-thread-map-{i}")
        for i in range(min(jobs, len(work)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return [result for result in results]  # type: ignore[misc]
