"""Fig. 3 column 4: effect of the conflict-set size |CF|.

Paper shapes: MaxSum decreases as the conflict ratio grows; at CF = 0
MinCostFlow-GEACC is (optimal, hence) at least as good as Greedy; |CF|
barely affects running time.
"""

from repro.experiments.figures import run_sweep


def test_fig3_effect_of_conflicts(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig3-conflicts", scale), rounds=1, iterations=1
    )
    record_series("fig3_col4_conflicts", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    mcf = dict(sweep.series("mincostflow", "max_sum"))
    ratios = sorted(greedy)
    assert greedy[ratios[0]] > greedy[ratios[-1]]      # MaxSum falls with |CF|
    assert mcf[0.0] >= greedy[0.0] - 1e-9              # MCF optimal at CF=0
    # With conflicts present, greedy overtakes MCF (the paper's headline).
    assert greedy[ratios[-1]] > mcf[ratios[-1]]
