"""Worker death and budget expiry in a parallel sweep.

A worker process that dies mid-group must not hang the sweep, and must
cost only the cell it was running. The sweep runs in a subprocess with a
timeout, so a regression fails the suite instead of hanging it. The
``dies`` solver kills its worker with ``os._exit`` on every ``|V| = 6``
instance when the script is run with ``die``; run with ``resume`` it
behaves like ``greedy``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.algorithms.base import SOLVERS, Solver, get_solver
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.parallel import run_cell_groups
from repro.robustness.budget import Budget

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = '''
import os
import sys

from repro.core.algorithms.base import Solver, get_solver, register_solver
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.experiments.runner import sweep_parameter

DIE = sys.argv[2] == "die"


@register_solver("dies")
class Dies(Solver):
    def solve(self, instance, budget=None):
        if DIE and instance.n_events == 6:
            os._exit(3)
        return get_solver("greedy").solve(instance, budget)


def factory(x, seed):
    config = SyntheticConfig(n_events=x, n_users=15, cv_high=4, cu_high=3)
    return generate_instance(config, seed)


sweep = sweep_parameter(
    "die", "|V|", [4, 6], factory, solvers=("greedy", "dies", "random-u"),
    repeats=2,
    memory=False, jobs=2, checkpoint_path=sys.argv[1],
    resume=sys.argv[2] == "resume",
)
for cell in sweep.failures:
    print("FAILED", cell.x, cell.seed, cell.solver, cell.failures[0].message)
'''


def run_script(script: Path, checkpoint: Path, mode: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(script), str(checkpoint), mode],
        capture_output=True,
        text=True,
        timeout=90,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return [line for line in done.stdout.splitlines() if line.startswith("FAILED")]


def test_dead_worker_fails_only_its_cell_and_resume_reruns_it(tmp_path: Path) -> None:
    script = tmp_path / "die.py"
    script.write_text(SCRIPT, encoding="utf-8")
    checkpoint = tmp_path / "die.jsonl"

    failed = run_script(script, checkpoint, "die")
    # greedy reported before the death and random-u ran in a new worker.
    assert sorted(tuple(line.split()[1:4]) for line in failed) == [
        ("6", "0", "dies"), ("6", "1", "dies"),
    ]
    assert all("worker died (exit code 3)" in line for line in failed)

    assert run_script(script, checkpoint, "resume") == []
    cells = [
        json.loads(line)
        for line in checkpoint.read_text(encoding="utf-8").splitlines()[1:]
    ]
    latest = {(c["x"], c["seed"], c["solver"]): c["status"] for c in cells}
    assert len(latest) == 12
    assert set(latest.values()) == {"ok"}


class Sleeps(Solver):
    """Ignores its budget: only killing its worker stops it."""

    name = "sleeps"

    def solve(self, instance, budget=None):
        time.sleep(30)
        return get_solver("greedy").solve(instance, budget)


def factory(x, seed):
    return generate_instance(SyntheticConfig(n_events=x, n_users=15), seed)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the test-only solver registration through fork",
)
def test_cells_finished_before_the_deadline_reach_the_checkpoint(monkeypatch) -> None:
    monkeypatch.setitem(SOLVERS, "sleeps", Sleeps)
    checkpointed = []
    budget = Budget(deadline=2.0)
    started = time.perf_counter()
    results = run_cell_groups(
        factory,
        [(4, 0, ("greedy", "sleeps"))],
        jobs=2,
        memory=False,
        budget=budget,
        on_cell=checkpointed.append,
    )
    assert time.perf_counter() - started < 10
    assert budget.exhausted
    assert [(c.solver, c.status) for c in checkpointed] == [("greedy", "ok")]
    assert list(results) == [checkpointed[0].key()]
