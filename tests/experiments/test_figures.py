"""Smoke-scale runs of every figure (the sweep table and Fig. 6).

These validate that each figure regenerates end-to-end (instances build,
solvers run, arrangements validate, series render) and that the *shape*
results the paper reports hold qualitatively even at smoke scale where
cheap to check.
"""

import pytest

from repro.experiments import figures


@pytest.fixture(scope="module")
def fig3_conflicts():
    return figures.run_sweep("fig3-conflicts", "smoke", memory=False)


def test_fig3_vary_events_runs():
    sweep = figures.run_sweep("fig3-events", "smoke", memory=False)
    assert len(sweep.records) == 3 * 4  # 3 grid points x 4 solvers
    # MaxSum grows with |V| for greedy (more options for users).
    series = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(series)
    assert series[xs[-1]] > series[xs[0]]


def test_fig3_vary_users_runs():
    sweep = figures.run_sweep("fig3-users", "smoke", memory=False)
    series = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(series)
    assert series[xs[-1]] > series[xs[0]]


def test_fig3_dimension_decreases_maxsum():
    """Paper: MaxSum decreases as d increases (space gets sparser)."""
    sweep = figures.run_sweep("fig3-dimension", "smoke", memory=False)
    series = dict(sweep.series("greedy", "max_sum"))
    assert series[2] > series[20]


def test_fig3_conflicts_greedy_wins_and_maxsum_drops(fig3_conflicts):
    sweep = fig3_conflicts
    greedy = dict(sweep.series("greedy", "max_sum"))
    mcf = dict(sweep.series("mincostflow", "max_sum"))
    rand_v = dict(sweep.series("random-v", "max_sum"))
    # MaxSum decreases in conflict density (fewer feasible pairs).
    assert greedy[0.0] >= greedy[1.0]
    # At cf = 0 MinCostFlow is optimal, so >= greedy there.
    assert mcf[0.0] >= greedy[0.0] - 1e-9
    # Both principled algorithms beat the random baseline everywhere.
    for ratio in greedy:
        assert greedy[ratio] > rand_v[ratio]


def test_fig4_event_capacity_increases_maxsum():
    sweep = figures.run_sweep("fig4-event-capacity", "smoke", memory=False)
    series = dict(sweep.series("greedy", "max_sum"))
    xs = sorted(series)
    assert series[xs[-1]] > series[xs[0]]


def test_fig4_user_capacity_runs():
    sweep = figures.run_sweep("fig4-user-capacity", "smoke", memory=False)
    assert len(sweep.solvers()) == 4


def test_fig4_distributions_all_combos():
    sweep = figures.run_sweep("fig4-distributions", "smoke", memory=False)
    xs = {x for x, _ in sweep.series("greedy", "max_sum")}
    assert xs == set(figures.DISTRIBUTION_GRID)


def test_fig4_real_runs_on_auckland():
    sweep = figures.run_sweep(
        "fig4-real", "smoke", solvers=("greedy", "random-v"), memory=False
    )
    greedy = dict(sweep.series("greedy", "max_sum"))
    rand = dict(sweep.series("random-v", "max_sum"))
    for ratio in greedy:
        assert greedy[ratio] > rand[ratio]


def test_fig5_scalability_greedy_only():
    sweep = figures.run_sweep("fig5-scalability", "smoke", memory=False)
    assert sweep.solvers() == ["greedy"]
    assert len(sweep.records) == 4  # 2 x 2 grid


def test_fig5_effectiveness_exact_dominates():
    sweep = figures.run_sweep("fig5-effectiveness", "smoke")
    exact = dict(sweep.series("ilp", "max_sum"))
    greedy = dict(sweep.series("greedy", "max_sum"))
    mcf = dict(sweep.series("mincostflow", "max_sum"))
    for ratio, optimum in exact.items():
        assert optimum >= greedy[ratio] - 1e-6
        assert optimum >= mcf[ratio] - 1e-6
    # Paper: at cf = 0, MinCostFlow-GEACC returns the optimum.
    assert mcf[0.0] == pytest.approx(exact[0.0], abs=1e-6)


def test_fig6_prune_beats_exhaustive():
    result = figures.ALL_FIGURES["fig6-pruning"]("smoke")
    by_key = {}
    for record in result.records:
        by_key[(record.cf_ratio, record.n_users, record.algorithm)] = record
    exhaustive_points = [k for k in by_key if k[2] == "exhaustive"]
    assert exhaustive_points
    for cf_ratio, n_users, _ in exhaustive_points:
        prune = by_key[(cf_ratio, n_users, "prune")]
        exhaustive = by_key[(cf_ratio, n_users, "exhaustive")]
        assert prune.invocations < exhaustive.invocations
        assert prune.complete_searches <= exhaustive.complete_searches
        # Identical optima despite pruning.
        assert prune.max_sum == pytest.approx(exhaustive.max_sum)
    assert "Fig. 6" in result.render()


def test_all_figures_registry():
    assert set(figures.ALL_FIGURES) == {
        "fig3-events", "fig3-users", "fig3-dimension", "fig3-conflicts",
        "fig4-event-capacity", "fig4-user-capacity", "fig4-distributions",
        "fig4-real", "fig5-scalability", "fig5-effectiveness", "fig6-pruning",
    }


def test_sweep_titles_are_pinned():
    """A title is the checkpoint header's sweep name: ``--resume`` refuses
    a file whose name differs, so renaming one orphans old checkpoints."""
    assert {name: spec.title for name, spec in figures.SWEEPS.items()} == {
        "fig3-events": "Fig. 3 col 1: effect of |V|",
        "fig3-users": "Fig. 3 col 2: effect of |U|",
        "fig3-dimension": "Fig. 3 col 3: effect of d",
        "fig3-conflicts": "Fig. 3 col 4: effect of |CF|",
        "fig4-event-capacity": "Fig. 4 col 1: effect of c_v",
        "fig4-user-capacity": "Fig. 4 col 2: effect of c_u",
        "fig4-distributions": "Fig. 4 col 3: effect of distribution",
        "fig4-real": "Fig. 4 col 4: real dataset (auckland)",
        "fig5-scalability": "Fig. 5a-b: Greedy-GEACC scalability",
        "fig5-effectiveness": "Fig. 5c-d: approximate vs exact",
    }


def test_fixed_solver_set_refuses_an_override():
    with pytest.raises(ValueError, match="fixed solver set"):
        figures.run_sweep("fig5-scalability", "smoke", solvers=("greedy",))
