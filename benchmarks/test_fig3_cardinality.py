"""Fig. 3 columns 1-2: effect of |V| and |U| on all four algorithms.

Regenerates the MaxSum / running time / memory series. Expected shapes
(paper): Greedy wins MaxSum everywhere and is fastest; MinCostFlow beats
the random baselines on MaxSum but costs far more time; MaxSum grows
with |V| and |U| with diminishing returns as capacities saturate.
"""

from repro.experiments.figures import run_sweep


def test_fig3_effect_of_events(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig3-events", scale), rounds=1, iterations=1
    )
    record_series("fig3_col1_events", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    random_v = dict(sweep.series("random-v", "max_sum"))
    xs = sorted(greedy)
    # Shape checks from the paper's discussion.
    assert greedy[xs[-1]] > greedy[xs[0]]          # MaxSum grows with |V|
    for x in xs:
        assert greedy[x] > random_v[x]             # greedy beats baselines
    greedy_time = dict(sweep.series("greedy", "seconds"))
    mcf_time = dict(sweep.series("mincostflow", "seconds"))
    assert mcf_time[xs[-1]] > greedy_time[xs[-1]]  # MCF much slower


def test_fig3_effect_of_users(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig3-users", scale), rounds=1, iterations=1
    )
    record_series("fig3_col2_users", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(greedy)
    assert greedy[xs[-1]] > greedy[xs[0]]
