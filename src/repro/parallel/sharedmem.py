"""Zero-copy instance sharing via ``multiprocessing.shared_memory``.

A sweep cell needs the instance's numeric payload -- the ``(|V|, |U|)``
similarity matrix above all -- and re-materialising it per (seed,
solver) cell is the single largest redundant cost of a parallel sweep.
:class:`SharedInstanceArchive` packs an :class:`~repro.core.model.
Instance`'s arrays into **one** shared-memory segment; the picklable
:class:`SharedInstanceHandle` it hands out is a few hundred bytes, and
:func:`SharedInstanceHandle.attach` rebuilds the instance in a worker
as *views* over the mapped segment -- zero copies of the big arrays.

Lifecycle contract (documented in ``docs/performance.md``):

* the **parent** creates the segment (one per (grid point, seed) cell
  group) and is the only process that ever ``unlink``\\ s it -- after
  the last cell of the group returned, or in the executor's teardown;
* each **worker** attaches per cell and ``close``\\ s its mapping when
  the cell finishes (:class:`SharedInstanceLease` is a context
  manager); workers never unlink;
* platforms without POSIX shared memory (or with ``/dev/shm`` mounted
  too small) make :meth:`SharedInstanceArchive.from_instance` return
  ``None``, and callers fall back to per-worker materialisation.

Rehydrated arrays are marked read-only: solvers share one physical
matrix, so an accidental in-place write in one worker would corrupt
every concurrently running cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.conflicts import ConflictGraph
from repro.core.model import Instance

#: Field names an archive may carry, in fixed packing order.
_FIELDS = (
    "event_capacities",
    "user_capacities",
    "conflict_pairs",
    "event_attributes",
    "user_attributes",
    "sims",
)


@dataclass(frozen=True)
class _ArraySpec:
    """Placement of one array inside the shared segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


def _attach_segment(name: str, in_creator: bool):  # type: ignore[no-untyped-def]
    """Open an existing segment without resource-tracker ownership.

    Before Python 3.13 an attaching process registers the segment with
    its resource tracker, which then complains (and double-unlinks) at
    exit because the *parent* owns the unlink. Use ``track=False``
    where available and fall back to unregistering by hand -- except in
    the creating process itself, where the tracker entry belongs to the
    creation and ``unlink`` will retire it; unregistering there would
    leave the eventual unlink without an entry to remove.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        segment = shared_memory.SharedMemory(name=name)
        if not in_creator:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:  # best effort; a spurious warning is harmless
                pass
        return segment


@dataclass(frozen=True)
class SharedInstanceHandle:
    """Picklable description of an archived instance.

    Everything a worker needs to rebuild the instance: the segment name,
    where each array lives inside it, and the scalar metadata
    (``t``, ``metric``) that is not worth a buffer.
    """

    segment_name: str
    n_events: int
    n_users: int
    t: float
    metric: str
    specs: tuple[tuple[str, _ArraySpec], ...]
    creator_pid: int = field(default=-1)

    def attach(self) -> "SharedInstanceLease":
        """Map the segment and rebuild the instance (zero-copy views)."""
        segment = _attach_segment(
            self.segment_name, in_creator=os.getpid() == self.creator_pid
        )
        return SharedInstanceLease(self, segment)


class SharedInstanceLease:
    """One worker's mapping of an archived instance.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory`
    mapping alive for as long as the rebuilt :attr:`instance` is in
    use; :meth:`close` drops the mapping (never the segment itself --
    unlinking is the parent's job).
    """

    def __init__(self, handle: SharedInstanceHandle, segment) -> None:  # type: ignore[no-untyped-def]
        self._segment = segment
        self._handle = handle
        self.instance = _rehydrate(handle, segment)

    def __enter__(self) -> Instance:
        return self.instance

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._segment is not None:
            # Views over the buffer must be released before close();
            # dropping the Instance reference is the caller's side.
            self.instance = None  # type: ignore[assignment]
            self._segment.close()
            self._segment = None


def _view(segment, spec: _ArraySpec, writeable: bool = False) -> np.ndarray:  # type: ignore[no-untyped-def]
    array: np.ndarray = np.ndarray(
        spec.shape,
        dtype=np.dtype(spec.dtype),
        buffer=segment.buf,
        offset=spec.offset,
    )
    array.flags.writeable = writeable
    return array


def _rehydrate(handle: SharedInstanceHandle, segment) -> Instance:  # type: ignore[no-untyped-def]
    specs = dict(handle.specs)
    arrays = {name: _view(segment, spec) for name, spec in specs.items()}
    pairs = arrays["conflict_pairs"]
    conflicts = ConflictGraph(
        handle.n_events, ((int(i), int(j)) for i, j in pairs)
    )
    return Instance(
        arrays["event_capacities"],
        arrays["user_capacities"],
        conflicts,
        sims=arrays.get("sims"),
        event_attributes=arrays.get("event_attributes"),
        user_attributes=arrays.get("user_attributes"),
        t=handle.t,
        metric=handle.metric,
        validate=False,  # the parent validated when it built the instance
    )


class SharedInstanceArchive:
    """Parent-side owner of one instance's shared-memory segment."""

    def __init__(self, handle: SharedInstanceHandle, segment) -> None:  # type: ignore[no-untyped-def]
        self.handle = handle
        self._segment = segment

    @classmethod
    def from_instance(
        cls,
        instance: Instance,
        include_sims: bool = True,
    ) -> "SharedInstanceArchive | None":
        """Pack ``instance`` into a fresh segment; None when unsupported.

        Args:
            include_sims: Also materialise (via :attr:`Instance.sims`,
                once, in the parent) and pack the similarity matrix.
                Pass False for scalability-scale instances that solvers
                stream through matrix-free index providers.
        """
        arrays: dict[str, np.ndarray] = {
            "event_capacities": np.ascontiguousarray(
                instance.event_capacities, dtype=np.int64
            ),
            "user_capacities": np.ascontiguousarray(
                instance.user_capacities, dtype=np.int64
            ),
            "conflict_pairs": _conflict_array(instance.conflicts),
        }
        if instance.event_attributes is not None:
            arrays["event_attributes"] = np.ascontiguousarray(
                instance.event_attributes, dtype=np.float64
            )
        if instance.user_attributes is not None:
            arrays["user_attributes"] = np.ascontiguousarray(
                instance.user_attributes, dtype=np.float64
            )
        if include_sims or instance.has_matrix:
            arrays["sims"] = np.ascontiguousarray(instance.sims, dtype=np.float64)

        specs: list[tuple[str, _ArraySpec]] = []
        offset = 0
        for name in _FIELDS:
            if name not in arrays:
                continue
            array = arrays[name]
            spec = _ArraySpec(dtype=array.dtype.str, shape=array.shape, offset=offset)
            specs.append((name, spec))
            offset += spec.nbytes

        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        except (ImportError, OSError, ValueError):
            return None  # no POSIX shm here; callers materialise per worker

        # Everything between acquisition and the hand-off to the archive
        # lives under the cleanup guard: a raise anywhere in the window
        # (view fill, handle construction) must retire the segment, or
        # it stays pinned in /dev/shm until reboot (R10).
        try:
            for name, spec in specs:
                _view(segment, spec, writeable=True)[...] = arrays[name]
            handle = SharedInstanceHandle(
                segment_name=segment.name,
                n_events=instance.n_events,
                n_users=instance.n_users,
                t=instance.t,
                metric=instance.metric,
                specs=tuple(specs),
                creator_pid=os.getpid(),
            )
            return cls(handle, segment)
        except BaseException:
            segment.close()
            segment.unlink()
            raise

    def destroy(self) -> None:
        """Close the parent mapping and unlink the segment (idempotent)."""
        if self._segment is not None:
            self._segment.close()
            try:
                self._segment.unlink()
            except FileNotFoundError:  # already gone (e.g. double teardown)
                pass
            self._segment = None


def _conflict_array(conflicts: ConflictGraph) -> np.ndarray:
    """The conflict set CF as a dense ``(|CF|, 2)`` int64 array."""
    pairs = sorted(conflicts.pairs)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)
