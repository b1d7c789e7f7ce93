"""Kernel-vs-reference fuzz of the dense min-cost-flow kernel.

Drives :class:`~repro.flow.dense_bipartite.DenseBipartiteMinCostFlow` and
:class:`~repro.flow.reference.ReferenceBipartiteMinCostFlow` side by side
over the two tie-heavy recipes of ``test_dense_bipartite.tie_heavy_draws``
(seed 1: tenths or quarters, capacities 0-3; seed 2: tenths, capacities
1-3), with ``+inf`` arcs ("no arc") on about a quarter of the draws, in
the three driving modes :class:`~repro.core.algorithms.mincostflow.
MinCostFlowGEACC` and the property suite use: ``max`` (to exhaustion),
``stop`` (at the marginal cost 1 - 1e-12) and ``unit`` (one augment at a
time, comparing each unit's path cost). After each draw the two must
agree bit for bit on ``flow``, ``total_flow``, ``total_cost``,
``exhausted`` and the potentials. The reference runs every search's
sweeps to fixpoint, so this checks every cut the kernel takes.

The name keeps pytest from collecting it (about 30 s). Run from the repo
root::

    PYTHONPATH=src python -m tests.flow.fuzz_kernel [--draws N] [--seeds 1 2]

Exit status 1 and one line per differing (seed, draw, mode) if any differ.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow
from repro.flow.reference import ReferenceBipartiteMinCostFlow
from tests.flow.test_dense_bipartite import tie_heavy_draws

#: (grids, min_capacity) of each recipe seed, as the tier-1 test draws them.
RECIPES = {1: ((10, 4), 0), 2: ((10,), 1)}
MODES = ("max", "stop", "unit")
STOP_COST = 1.0 - 1e-12


def with_missing_arcs(costs: np.ndarray, seed: int, draw: int) -> np.ndarray:
    """``costs`` with about a fifth of the arcs set to ``+inf`` on about a
    quarter of the draws; a generator of its own leaves the recipe's
    draws as the tier-1 test sees them."""
    rng = np.random.default_rng([seed, draw])
    if rng.random() >= 0.25:
        return costs
    return np.where(rng.random(costs.shape) < 0.2, np.inf, costs)


def drive(flow: DenseBipartiteMinCostFlow | ReferenceBipartiteMinCostFlow, mode: str) -> list:
    """Run ``flow`` in ``mode``; the per-unit path costs in ``unit`` mode."""
    if mode == "max":
        flow.run()
        return []
    if mode == "stop":
        flow.run(stop_cost=STOP_COST)
        return []
    costs = []
    while (cost := flow.augment()) is not None:
        costs.append(cost)
    return costs


def differences(costs: np.ndarray, cv: np.ndarray, cu: np.ndarray, mode: str) -> list[str]:
    """The fields on which kernel and reference disagree after ``mode``."""
    kernel = DenseBipartiteMinCostFlow(costs, cv, cu)
    reference = ReferenceBipartiteMinCostFlow(costs, cv, cu)
    units = (drive(kernel, mode), drive(reference, mode))
    checks = {
        "unit costs": units[0] == units[1],
        "flow": np.array_equal(kernel.flow, reference.flow),
        "total_flow": kernel.total_flow == reference.total_flow,
        "total_cost": kernel.total_cost == reference.total_cost,
        "exhausted": kernel.exhausted == reference.exhausted,
        "_pot_v": np.array_equal(kernel._pot_v, np.asarray(reference._pot_v)),
        "_pot_u": np.array_equal(kernel._pot_u, np.asarray(reference._pot_u)),
        "_pot_t": kernel._pot_t == reference._pot_t,
    }
    return [field for field, same in checks.items() if not same]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=3000, help="draws per recipe seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=sorted(RECIPES), choices=sorted(RECIPES))
    args = parser.parse_args(argv)
    cases = failures = 0
    for seed in args.seeds:
        grids, min_capacity = RECIPES[seed]
        for draw, (costs, cv, cu) in enumerate(tie_heavy_draws(seed, grids, min_capacity, args.draws)):
            costs = with_missing_arcs(costs, seed, draw)
            for mode in MODES:
                cases += 1
                fields = differences(costs, cv, cu, mode)
                if fields:
                    failures += 1
                    print(f"seed {seed} draw {draw} mode {mode}: {', '.join(fields)} differ")
    print(f"fuzz_kernel: {cases} cases, {failures} with differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
