"""Fig. 3 column 3: effect of attribute dimensionality d.

Paper shape: MaxSum decreases as d grows (the attribute space gets
sparser, average pairwise distance grows); d barely affects time/memory.
"""

from repro.experiments.figures import run_sweep


def test_fig3_effect_of_dimension(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig3-dimension", scale), rounds=1, iterations=1
    )
    record_series("fig3_col3_dimension", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(greedy)
    assert greedy[xs[0]] > greedy[xs[-1]]  # MaxSum falls with d
