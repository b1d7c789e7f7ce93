"""Crash-point enumeration over a sweep checkpoint.

The method of ``test_faultfs.py`` applied to :class:`SweepCheckpoint`:
a reference run over an in-memory :class:`FaultFS` counts every
durability-relevant operation of a scripted checkpoint (``reset``, then
one ``append`` per cell); the sweep re-runs the script crashing before
each one (writes also torn), materialises the **durable** and the
**cached** post-crash world, and requires, in both:

* ``load`` returns exactly a prefix of the appended cells, holding every
  acknowledged cell (one whose ``append`` returned);
* resuming -- what ``sweep_parameter(resume=True)`` does -- appends the
  rest;
* a second ``load`` returns all cells, and the file has no torn tail.
"""

from pathlib import Path

import pytest

from repro.experiments.runner import CellResult, SweepCheckpoint
from repro.robustness.faultfs import FaultFS, SimulatedCrash

#: The virtual root every FaultFS run mounts; nothing real lives here.
ROOT = Path("/faultfs-virtual")

NAME = "faultfs-sweep"

#: Five finished cells, one per seed: distinct keys, in append order.
CELLS = [
    CellResult(
        x=4,
        seed=seed,
        solver="greedy",
        status="ok",
        outcome="optimal",
        max_sum=1.5 + seed,
        seconds=0.25,
        peak_mb=0.0,
        n_pairs=3.0,
    )
    for seed in range(5)
]


def drive(fs: FaultFS, acked: list[str]) -> None:
    """The script: a fresh checkpoint, then one append per cell.

    ``acked`` collects each cell's key as soon as ``append`` returns.
    """
    checkpoint = SweepCheckpoint(ROOT / "sweeps" / "ckpt.jsonl", NAME, fs=fs)
    checkpoint.reset()
    for cell in CELLS:
        checkpoint.append(cell)
        acked.append(cell.key())
    checkpoint.close()


def resume(path: Path) -> list[CellResult]:
    """Open the checkpoint as a resumed sweep does; append what is missing.

    Returns the cells the first ``load`` found.
    """
    with SweepCheckpoint(path, NAME) as checkpoint:
        found: dict[str, CellResult] = {}
        if checkpoint.exists():
            found = checkpoint.load()
            checkpoint.truncate_torn_tail()
        else:
            checkpoint.reset()
        for cell in CELLS:
            if cell.key() not in found:
                checkpoint.append(cell)
    return list(found.values())


def test_reference_run_covers_every_operation_kind() -> None:
    fs = FaultFS(ROOT)
    drive(fs, [])
    assert {"create", "write", "flush", "fsync", "replace", "fsync_dir"} <= set(
        fs.ops
    ), fs.ops


def test_crash_sweep_keeps_an_acknowledged_prefix(tmp_path: Path) -> None:
    reference = FaultFS(ROOT)
    drive(reference, [])
    keys = [cell.key() for cell in CELLS]

    checked = 0
    torn_tails = 0
    for crash_at in range(1, reference.op_count + 1):
        variants = [False]
        if reference.ops[crash_at - 1] == "write":
            variants.append(True)  # the torn-write case
        for torn in variants:
            fs = FaultFS(ROOT, crash_at=crash_at, torn=torn)
            acked: list[str] = []
            with pytest.raises(SimulatedCrash):
                drive(fs, acked)
            for world in ("durable", "cached"):
                label = f"k{crash_at}-{'torn' if torn else 'clean'}-{world}"
                target = tmp_path / label
                fs.materialise(target, world)
                path = target / "sweeps" / "ckpt.jsonl"
                if path.exists() and not path.read_bytes().endswith(b"\n"):
                    torn_tails += 1

                found = [cell.key() for cell in resume(path)]
                assert found == keys[: len(found)], f"{label}: not a prefix"
                assert len(found) >= len(acked), (
                    f"{label}: lost acknowledged cells ({found} < {acked})"
                )

                reloaded = SweepCheckpoint(path, NAME).load()
                assert list(reloaded.values()) == CELLS, label
                blob = path.read_bytes()
                assert blob.endswith(b"\n"), label
                assert len(blob.splitlines()) == 1 + len(CELLS), label
                checked += 1
    # Every operation was a crash point (plus the torn variants), and
    # some crashes really left a torn final line for the reopen to cut.
    assert checked >= 2 * reference.op_count
    assert torn_tails > 0
