"""Fig. 5c-d: approximate solutions vs the exact optimum.

Paper shapes: MinCostFlow equals the optimum at CF = 0; Greedy stays
within a few percent of the optimum across conflict ratios (far above its
1/(1 + max c_u) worst case); the approximations are much faster than the
exact solver. The exact oracle is the MILP solver (see EXPERIMENTS.md for
why the literal Prune-GEACC cannot play this role in pure Python;
Prune-GEACC's own behaviour is measured in Fig. 6 and the bound
ablation).
"""

import pytest

from repro.experiments.figures import run_sweep


def test_fig5_effectiveness(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig5-effectiveness", scale), rounds=1, iterations=1
    )
    record_series("fig5cd_effectiveness", sweep.render())
    optimum = dict(sweep.series("ilp", "max_sum"))
    greedy = dict(sweep.series("greedy", "max_sum"))
    mcf = dict(sweep.series("mincostflow", "max_sum"))
    assert mcf[0.0] == pytest.approx(optimum[0.0], abs=1e-6)  # exact at CF=0
    for ratio in optimum:
        assert optimum[ratio] >= greedy[ratio] - 1e-6
        assert optimum[ratio] >= mcf[ratio] - 1e-6
        assert greedy[ratio] >= 0.5 * optimum[ratio]  # far above worst case
    greedy_time = dict(sweep.series("greedy", "seconds"))
    exact_time = dict(sweep.series("ilp", "seconds"))
    assert sum(exact_time.values()) > sum(greedy_time.values())