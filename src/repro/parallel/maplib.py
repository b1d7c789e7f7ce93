"""Order-preserving thread map for work that shares parent state.

Process-level fan-out goes through the sweep executor
(:mod:`repro.parallel.executor`); :func:`thread_map` is the in-process
primitive for callers whose work must mutate the parent's own objects
(shard services, journals, sockets). Results come back in input order
regardless of thread scheduling, so ``jobs=1`` and ``jobs=N`` are
indistinguishable to the caller.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.parallel.executor import default_jobs

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def thread_map(
    func: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: int = 0,
) -> list[ResultT]:
    """Apply ``func`` to every item across ``jobs`` *threads*, in order.

    For work that must share mutable parent state (shard services,
    journals, sockets) and is either I/O-bound or releases the GIL.
    Nothing is pickled and no
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
