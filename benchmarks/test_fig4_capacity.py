"""Fig. 4 columns 1-2: effect of event and user capacities.

Paper shapes: MaxSum grows with max c_v (events accommodate more
interested users) and with max c_u; growing c_v inflates MinCostFlow's
time (more flow to sweep) but leaves Greedy and the baselines flat.
"""

from repro.experiments.figures import run_sweep


def test_fig4_effect_of_event_capacity(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig4-event-capacity", scale), rounds=1, iterations=1
    )
    record_series("fig4_col1_event_capacity", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(greedy)
    assert greedy[xs[-1]] > greedy[xs[0]]
    mcf_time = dict(sweep.series("mincostflow", "seconds"))
    assert mcf_time[xs[-1]] > mcf_time[xs[0]]  # flow amount grows with c_v


def test_fig4_effect_of_user_capacity(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig4-user-capacity", scale), rounds=1, iterations=1
    )
    record_series("fig4_col2_user_capacity", sweep.render())
    greedy = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(greedy)
    assert greedy[xs[-1]] > greedy[xs[0]]
