"""Crash-safe sweeps: checkpointing, resume, retry, cell isolation."""

from __future__ import annotations

import builtins
import json
import os
from pathlib import Path

import pytest

from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import ReproError
from repro.experiments.runner import (
    CellResult,
    SweepCheckpoint,
    cell_key,
    run_cell,
    sweep_parameter,
)

GRID = (4, 6)
SOLVERS = ("greedy", "random-u")
REPEATS = 2


class CountingFactory:
    """Instance factory that counts calls and can inject faults."""

    def __init__(self, explode_on_call: int | None = None,
                 error: BaseException | None = None):
        self.calls = 0
        self.explode_on_call = explode_on_call
        self.error = error

    def __call__(self, x, seed):
        self.calls += 1
        if self.explode_on_call is not None and self.calls == self.explode_on_call:
            raise self.error if self.error is not None else RuntimeError("boom")
        config = SyntheticConfig(n_events=x, n_users=15, cv_high=4, cu_high=3)
        return generate_instance(config, seed)


def run_sweep(factory, path=None, resume=False, **kwargs):
    return sweep_parameter(
        "resume-test", "|V|", GRID, factory, solvers=SOLVERS,
        repeats=REPEATS, memory=False, checkpoint_path=path, resume=resume,
        **kwargs,
    )


def maxsum_table(sweep):
    return [(r.x, r.solver, r.max_sum, r.n_pairs) for r in sweep.records]


class TestCheckpointFile:
    def test_header_then_one_line_per_cell(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "geacc-sweep-v2"
        assert header["name"] == "resume-test"
        assert len(lines) == 1 + len(GRID) * REPEATS * len(SOLVERS)
        cell = CellResult.from_json(json.loads(lines[1]))
        assert cell.ok
        assert cell.key() == cell_key(GRID[0], 0, SOLVERS[0])

    def test_wrong_sweep_name_refuses_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        with pytest.raises(ReproError, match="belongs to sweep"):
            sweep_parameter(
                "a-different-sweep", "|V|", GRID, CountingFactory(),
                solvers=SOLVERS, repeats=REPEATS, memory=False,
                checkpoint_path=path, resume=True,
            )

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ReproError, match="not a sweep checkpoint"):
            SweepCheckpoint(path, "resume-test").load()

    def test_crash_while_writing_the_header_does_not_block_resume(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ckpt.jsonl"
        real_open = builtins.open

        def crash_mid_header(file, mode="r", *args, **kwargs):
            # Any file written under the checkpoint's name (the file
            # itself or a temporary sibling) gets a torn header, then
            # the process "dies".
            if isinstance(file, (str, os.PathLike)) and "w" in mode and (
                Path(file).name.startswith(path.name)
            ):
                torn = '{"format": "geacc-sweep-v1", "na'
                with real_open(file, mode, *args, **kwargs) as handle:
                    handle.write(torn.encode() if "b" in mode else torn)
                raise OSError("simulated crash while writing the header")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", crash_mid_header)
        with pytest.raises(OSError, match="simulated crash"):
            run_sweep(CountingFactory(), path)
        monkeypatch.undo()

        resumed = run_sweep(CountingFactory(), path, resume=True)
        assert not resumed.failures
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "resume-test"
        assert len(lines) == 1 + len(GRID) * REPEATS * len(SOLVERS)


class TestResume:
    def test_resume_skips_completed_cells_byte_for_byte(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        reference = run_sweep(CountingFactory(), path)
        full_lines = path.read_text().splitlines(keepends=True)

        # Simulate a crash after 3 finished cells (header + 3 lines).
        killed = tmp_path / "killed.jsonl"
        killed.write_text("".join(full_lines[:4]))

        factory = CountingFactory()
        resumed = run_sweep(factory, killed, resume=True)

        # Previously-written lines are untouched, the rest was appended.
        assert killed.read_text().splitlines(keepends=True)[:4] == full_lines[:4]
        assert len(killed.read_text().splitlines()) == len(full_lines)
        # One instance per (x, seed) group that still has missing cells:
        # (4, seed 1) lost only its random-u cell, (6, seed 0) and
        # (6, seed 1) lost everything -> 3 regenerated instances.
        assert factory.calls == 3
        # Deterministic metrics agree with the uninterrupted run.
        assert maxsum_table(resumed) == maxsum_table(reference)

    def test_resume_of_complete_checkpoint_runs_zero_cells(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        before = path.read_bytes()
        factory = CountingFactory()
        run_sweep(factory, path, resume=True)
        assert factory.calls == 0
        assert path.read_bytes() == before

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        text = path.read_text()
        # Crash mid-append: the last line is half-written.
        path.write_text(text[: len(text) - 20])
        factory = CountingFactory()
        resumed = run_sweep(factory, path, resume=True)
        assert factory.calls == 1  # only the torn cell re-ran
        assert maxsum_table(resumed) == maxsum_table(run_sweep(CountingFactory()))
        # The torn fragment was truncated before appending, so the healed
        # file is wholly parseable again (no fragment+cell glued line)
        # and a second resume trusts every line.
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(GRID) * REPEATS * len(SOLVERS)
        for line in lines:
            json.loads(line)
        factory = CountingFactory()
        run_sweep(factory, path, resume=True)
        assert factory.calls == 0

    def test_corrupt_middle_line_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        lines = path.read_bytes().splitlines(keepends=True)
        # Damage the 2nd of 8 cell lines: no crash of an append can do
        # that, so resuming must not guess which cells to trust.
        lines[2] = b'{"n": 2, "x": 4, "seed": 0, "sol\n'
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        factory = CountingFactory()
        with pytest.raises(ReproError, match="ckpt.jsonl:3: corrupt record"):
            run_sweep(factory, path, resume=True)
        assert factory.calls == 0
        assert path.read_bytes() == damaged

    def test_v1_checkpoint_is_refused_on_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        legacy = (
            b'{"format": "geacc-sweep-v1", "name": "resume-test"}\n'
            b'{"x": 4, "seed": 0, "solver": "greedy"}\n'
        )
        path.write_bytes(legacy)
        with pytest.raises(ReproError, match="geacc-sweep-v1.*geacc-sweep-v2"):
            run_sweep(CountingFactory(), path, resume=True)
        assert path.read_bytes() == legacy
        # Without resume the file is overwritten, as any checkpoint is.
        run_sweep(CountingFactory(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "geacc-sweep-v2"

    def test_keyboard_interrupt_is_not_swallowed(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        factory = CountingFactory(
            explode_on_call=4, error=KeyboardInterrupt()
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep(factory, path)
        # Factory call 4 is the fourth (x, seed) group's instance, so the
        # three finished groups (2 cells each) reached disk beforehand...
        assert len(path.read_text().splitlines()) == 1 + 6
        # ...and a resume finishes the job with identical tables.
        resumed = run_sweep(CountingFactory(), path, resume=True)
        assert maxsum_table(resumed) == maxsum_table(run_sweep(CountingFactory()))

    def test_without_resume_existing_checkpoint_is_overwritten(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(CountingFactory(), path)
        factory = CountingFactory()
        run_sweep(factory, path)
        # One instance per (x, seed) group, shared by all its solvers.
        assert factory.calls == len(GRID) * REPEATS


class TestCellIsolation:
    def test_transient_failure_retries_with_fresh_seed(self):
        factory = CountingFactory(explode_on_call=1, error=MemoryError("oom"))
        cell = run_cell(factory, 4, 0, "greedy", memory=False)
        assert cell.ok
        assert cell.attempts == 2
        assert cell.failures[0].error_type == "MemoryError"
        assert cell.failures[0].transient

    def test_deterministic_failure_does_not_retry(self):
        factory = CountingFactory(explode_on_call=1, error=ValueError("bad config"))
        cell = run_cell(factory, 4, 0, "greedy", memory=False, max_attempts=3)
        assert not cell.ok
        assert cell.attempts == 1
        assert not cell.failures[0].transient

    def test_exhausted_retries_record_every_attempt(self):
        class AlwaysOOM:
            def __call__(self, x, seed):
                raise MemoryError("oom forever")

        cell = run_cell(AlwaysOOM(), 4, 0, "greedy", memory=False, max_attempts=3)
        assert not cell.ok
        assert cell.attempts == 3
        assert [f.attempt for f in cell.failures] == [0, 1, 2]

    def test_failed_cells_do_not_poison_the_sweep(self, tmp_path):
        # The (4, seed 1) instance draw fails deterministically -- at the
        # group level *and* at run_cell's own attempt -- so both of its
        # cells fail; the other cells still average.
        class BadDraw(CountingFactory):
            def __call__(self, x, seed):
                if (x, seed) == (4, 1):
                    self.calls += 1
                    raise ValueError("bad draw")
                return super().__call__(x, seed)

        factory = BadDraw()
        sweep = run_sweep(factory, tmp_path / "ckpt.jsonl")
        assert len(sweep.failures) == len(SOLVERS)
        assert all(cell.status == "failed" for cell in sweep.failures)
        ok_records = {(r.x, r.solver) for r in sweep.records}
        assert len(ok_records) == len(GRID) * len(SOLVERS)
        # 4 group draws + one per-cell re-draw for each cell of the
        # poisoned group (non-transient: no retries).
        assert factory.calls == len(GRID) * REPEATS + len(SOLVERS)
        assert "failed cells" in sweep.render()

    def test_transient_group_generation_heals_per_cell(self, tmp_path):
        # The shared (x, seed) group draw OOMs once; each cell falls back
        # to drawing its own instance and the sweep stays clean.
        factory = CountingFactory(explode_on_call=2, error=MemoryError("oom"))
        sweep = run_sweep(factory, tmp_path / "ckpt.jsonl")
        assert not sweep.failures
        assert len(sweep.records) == len(GRID) * len(SOLVERS)
        # 4 group draws (one exploded) + 2 per-cell fallback draws.
        assert factory.calls == len(GRID) * REPEATS + len(SOLVERS)

    def test_budgeted_sweep_tags_timeouts_but_still_averages(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sweep = sweep_parameter(
            "budgeted", "|V|", (6,), CountingFactory(), solvers=("prune",),
            repeats=1, memory=False, checkpoint_path=path, node_limit=5,
        )
        assert not sweep.failures
        assert len(sweep.records) == 1
        cells = SweepCheckpoint(path, "budgeted").load()
        (cell,) = cells.values()
        assert cell.outcome == "feasible-timeout"
