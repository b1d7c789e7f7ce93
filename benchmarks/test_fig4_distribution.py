"""Fig. 4 column 3: effect of attribute/capacity distributions.

Paper shape: trends are similar across Uniform/Normal/Zipf attribute and
Uniform/Normal capacity generation -- the algorithm ordering (Greedy
first, MinCostFlow second, baselines last) is distribution-independent.
"""

from repro.experiments.figures import run_sweep


def test_fig4_effect_of_distribution(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig4-distributions", scale), rounds=1, iterations=1
    )
    record_series("fig4_col3_distribution", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    random_v = dict(sweep.series("random-v", "max_sum"))
    random_u = dict(sweep.series("random-u", "max_sum"))
    for combo in greedy:
        assert greedy[combo] > random_v[combo]
        assert greedy[combo] > random_u[combo]
