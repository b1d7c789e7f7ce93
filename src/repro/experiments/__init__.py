"""Experiment harness regenerating every figure of the paper.

Each row of the ``SWEEPS`` table in :mod:`repro.experiments.figures`
reproduces one figure (or one column of a multi-column figure): it sweeps
the same parameter the paper sweeps with the same algorithms, and
``run_sweep(name, scale)`` returns a :class:`repro.experiments.runner.Sweep`
whose ``render()`` prints the series the paper plots (MaxSum, running
time, peak memory per algorithm).

Two parameter scales exist (:mod:`repro.experiments.config`): ``scaled``
(default; minutes on a laptop, same shapes) and ``paper`` (the literal
Table III grids; hours in pure Python). Select with the ``REPRO_SCALE``
environment variable or an explicit argument.
"""

from repro.experiments.config import SCALES, ExperimentScale, get_scale
from repro.experiments.metrics import MeasuredRun, measure
from repro.experiments.runner import Record, Sweep, sweep_parameter

__all__ = [
    "SCALES",
    "ExperimentScale",
    "get_scale",
    "MeasuredRun",
    "measure",
    "Record",
    "Sweep",
    "sweep_parameter",
]
