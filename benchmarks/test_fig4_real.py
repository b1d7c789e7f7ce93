"""Fig. 4 column 4: the real dataset (simulated Auckland, Table II).

Paper shape: the real-data curves mirror the synthetic ones -- MaxSum
falls as the conflict ratio rises, Greedy dominates.
"""

from repro.experiments.figures import run_sweep


def test_fig4_real_auckland(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig4-real", scale), rounds=1, iterations=1
    )
    record_series("fig4_col4_real_auckland", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    random_u = dict(sweep.series("random-u", "max_sum"))
    ratios = sorted(greedy)
    assert greedy[ratios[0]] >= greedy[ratios[-1]]
    for ratio in ratios:
        assert greedy[ratio] > random_u[ratio]
