"""Fig. 5a-b: Greedy-GEACC scalability over large |V| x |U| grids.

Paper shape: Greedy's time and memory grow (near) linearly with data
size. Verified here by checking that time grows sub-quadratically when
|U| is scaled up at fixed |V|.
"""

from repro.experiments.figures import run_sweep


def test_fig5_greedy_scalability(benchmark, scale, record_series):
    sweep = benchmark.pedantic(
        lambda: run_sweep("fig5-scalability", scale), rounds=1, iterations=1
    )
    record_series("fig5ab_scalability", sweep.render())
    times = dict(sweep.series("greedy", "seconds"))
    for v in scale.scalability_v_grid:
        u_small = scale.scalability_u_grid[0]
        u_large = scale.scalability_u_grid[-1]
        growth = times[(v, u_large)] / max(times[(v, u_small)], 1e-9)
        size_ratio = u_large / u_small
        # Near-linear: time growth bounded by a quadratic blowup with slack.
        assert growth < size_ratio**2 * 5, (
            f"time grew x{growth:.1f} for a x{size_ratio} size increase at |V|={v}"
        )
