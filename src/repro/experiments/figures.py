"""Per-figure experiment drivers.

Each sweep figure -- one figure, or one column of a multi-column figure,
of the paper's evaluation section -- is one :class:`SweepSpec` row of
:data:`SWEEPS`, and :func:`run_sweep` runs any row through
:func:`repro.experiments.runner.sweep_parameter`, returning a
:class:`~repro.experiments.runner.Sweep`. Fig. 6 instruments Prune-GEACC
instead of sweeping solvers, so :func:`fig6_pruning` returns its own
richer result type. Every result's ``render()`` prints the plotted
series; :data:`ALL_FIGURES` maps every name to a ``driver(scale)``.

The mapping to the paper:

=====================  ====================================================
Name                   Paper figure
=====================  ====================================================
fig3-events            Fig. 3 column 1 (effect of |V|)
fig3-users             Fig. 3 column 2 (effect of |U|)
fig3-dimension         Fig. 3 column 3 (effect of d)
fig3-conflicts         Fig. 3 column 4 (effect of |CF|)
fig4-event-capacity    Fig. 4 column 1 (effect of c_v)
fig4-user-capacity     Fig. 4 column 2 (effect of c_u)
fig4-distributions     Fig. 4 column 3 (effect of distribution)
fig4-real              Fig. 4 column 4 (real dataset, Auckland)
fig5-scalability       Fig. 5a-b (Greedy scalability)
fig5-effectiveness     Fig. 5c-d (approximate vs exact)
fig6-pruning           Fig. 6a-d (Prune-GEACC instrumentation)
=====================  ====================================================
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any

from repro.core.algorithms import ExhaustiveGEACC, PruneGEACC
from repro.core.model import Instance
from repro.core.validation import validate_arrangement
from repro.datagen.synthetic import generate_instance
from repro.datasets.meetup import MeetupCityConfig, meetup_city
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.metrics import measure
from repro.experiments.reporting import format_table
from repro.experiments.runner import DEFAULT_SOLVERS, Sweep, sweep_parameter
from repro.robustness.budget import Budget


def _resolve(scale: ExperimentScale | str | None) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    return get_scale(scale)


#: ``(scale, grid value, seed) -> Instance``.
InstanceFactory = Callable[[ExperimentScale, Any, int], Instance]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep figure: the grid it walks and the instances it solves.

    Attributes:
        title: The sweep's name. It heads the rendered tables and the
            checkpoint header, and ``--resume`` refuses a checkpoint whose
            name differs, so a changed title orphans old checkpoints.
        x_label: Heading of the swept parameter's column.
        grid: The x-axis values at a scale.
        instance: One instance per (scale, grid value, seed).
        solvers: A fixed solver set, or ``None`` for
            :data:`~repro.experiments.runner.DEFAULT_SOLVERS`, which the
            caller may override.
        repeats_offset: Added to ``scale.repeats`` (one seed at least).
        memory: Whether peak memory is measured unless the caller says.
    """

    title: str
    x_label: str
    grid: Callable[[ExperimentScale], Sequence[object]]
    instance: InstanceFactory
    solvers: tuple[str, ...] | None = None
    repeats_offset: int = 0
    memory: bool = True


def _vary(name: str) -> InstanceFactory:
    """Synthetic instances at the scale's defaults with field ``name`` = x."""
    return lambda scale, x, seed: generate_instance(
        scale.default.with_(**{name: x}), seed
    )


#: Distribution combinations swept by Fig. 4 col 3 (the paper presents
#: Zipf attributes + Normal capacities and reports the others as similar).
DISTRIBUTION_GRID = (
    "uniform/uniform",
    "normal/uniform",
    "zipf/uniform",
    "zipf/normal",
    "uniform/normal",
)


def _distributions(scale: ExperimentScale, combo: str, seed: int) -> Instance:
    attr_dist, cap_dist = combo.split("/")
    config = scale.default.with_(
        attr_distribution=attr_dist,
        cv_distribution=cap_dist,
        cu_distribution=cap_dist,
    )
    return generate_instance(config, seed)


#: The Meetup city of Fig. 4 col 4 (Table II).
REAL_CITY = "auckland"


def _real_city(scale: ExperimentScale, ratio: float, seed: int) -> Instance:
    return meetup_city(MeetupCityConfig(city=REAL_CITY, conflict_ratio=ratio), seed)


def _scalability_grid(scale: ExperimentScale) -> list[tuple[int, int]]:
    return [(v, u) for v in scale.scalability_v_grid for u in scale.scalability_u_grid]


def _scalability(scale: ExperimentScale, point: tuple[int, int], seed: int) -> Instance:
    v, u = point
    config = scale.default.with_(
        n_events=v, n_users=u, cv_high=scale.scalability_cv_max
    )
    return generate_instance(config, seed)


def _effectiveness(scale: ExperimentScale, ratio: float, seed: int) -> Instance:
    config = scale.effectiveness_config.with_(conflict_ratio=ratio)
    return generate_instance(config, seed)


#: Every sweep figure by name. Fig. 3 and Fig. 4 cols 1-3 vary one
#: Table III parameter, the others at the scale's defaults.
SWEEPS: dict[str, SweepSpec] = {
    "fig3-events": SweepSpec(
        "Fig. 3 col 1: effect of |V|", "|V|", attrgetter("v_grid"), _vary("n_events")
    ),
    "fig3-users": SweepSpec(
        "Fig. 3 col 2: effect of |U|", "|U|", attrgetter("u_grid"), _vary("n_users")
    ),
    "fig3-dimension": SweepSpec(
        "Fig. 3 col 3: effect of d", "d", attrgetter("d_grid"), _vary("d")
    ),
    # |CF| / (|V|(|V|-1)/2) from 0 to 1.
    "fig3-conflicts": SweepSpec(
        "Fig. 3 col 4: effect of |CF|",
        "cf_ratio",
        attrgetter("cf_grid"),
        _vary("conflict_ratio"),
    ),
    # c_v ~ Uniform[1, max c_v], sweeping max c_v; likewise c_u.
    "fig4-event-capacity": SweepSpec(
        "Fig. 4 col 1: effect of c_v",
        "max c_v",
        attrgetter("cv_max_grid"),
        _vary("cv_high"),
    ),
    "fig4-user-capacity": SweepSpec(
        "Fig. 4 col 2: effect of c_u",
        "max c_u",
        attrgetter("cu_max_grid"),
        _vary("cu_high"),
    ),
    "fig4-distributions": SweepSpec(
        "Fig. 4 col 3: effect of distribution",
        "attrs/caps",
        lambda scale: DISTRIBUTION_GRID,
        _distributions,
    ),
    # One repeat fewer than synthetic sweeps: the city sizes are fixed
    # (Table II) and MinCostFlow's Delta sweep dominates wall time.
    "fig4-real": SweepSpec(
        f"Fig. 4 col 4: real dataset ({REAL_CITY})",
        "cf_ratio",
        attrgetter("cf_grid"),
        _real_city,
        repeats_offset=-1,
    ),
    # Follows the paper: only Greedy (MinCostFlow is not scalable), over
    # a |V| x |U| grid through the index streams, max c_v raised because
    # |U| is large.
    "fig5-scalability": SweepSpec(
        "Fig. 5a-b: Greedy-GEACC scalability",
        "(|V|, |U|)",
        _scalability_grid,
        _scalability,
        solvers=("greedy",),
        repeats_offset=-1,
    ),
    # The paper's configuration: |V|=5, |U|=15, c_v ~ U[1, 10], Table III
    # defaults otherwise, sweeping the conflict ratio. The ``ilp`` series
    # is the exact optimum the paper plots as OPT: the MILP solver, not
    # Prune-GEACC, whose Lemma 6 search needs >10^7 nodes on some seeds
    # of these instances in pure Python (a deviation; see EXPERIMENTS.md).
    "fig5-effectiveness": SweepSpec(
        "Fig. 5c-d: approximate vs exact",
        "cf_ratio",
        attrgetter("cf_grid"),
        _effectiveness,
        solvers=("mincostflow", "greedy", "ilp"),
        memory=False,
    ),
}


def run_sweep(
    name: str,
    scale: ExperimentScale | str | None = None,
    *,
    solvers: Sequence[str] | None = None,
    memory: bool | None = None,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    jobs: int = 1,
    budget: Budget | None = None,
) -> Sweep:
    """Run the sweep figure ``name`` (a key of :data:`SWEEPS`) at ``scale``.

    ``solvers`` replaces the default solver set; a figure with a fixed
    set refuses it (``ValueError``). ``memory`` defaults to the spec's.
    The other keywords go to :func:`sweep_parameter` unchanged.
    """
    spec = SWEEPS[name]
    if spec.solvers is not None:
        if solvers is not None:
            raise ValueError(f"figure {name} has a fixed solver set")
        solvers = spec.solvers
    elif solvers is None:
        solvers = DEFAULT_SOLVERS
    scale = _resolve(scale)
    return sweep_parameter(
        spec.title,
        spec.x_label,
        spec.grid(scale),
        functools.partial(spec.instance, scale),
        solvers=solvers,
        repeats=max(1, scale.repeats + spec.repeats_offset),
        memory=spec.memory if memory is None else memory,
        checkpoint_path=checkpoint_path,
        resume=resume,
        jobs=jobs,
        budget=budget,
    )


# ----------------------------------------------------------------------
# Fig. 6: pruning instrumentation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig6Record:
    """One (cf_ratio, |U|, algorithm) instrumentation row."""

    cf_ratio: float
    n_users: int
    algorithm: str
    seconds: float
    invocations: float
    complete_searches: float
    average_prune_depth: float
    max_depth: float
    max_sum: float


@dataclass
class Fig6Result:
    """All four panels of Fig. 6."""

    records: list[Fig6Record] = field(default_factory=list)

    def render(self) -> str:
        headers = [
            "cf_ratio", "|U|", "algorithm", "seconds", "invocations",
            "complete", "avg prune depth", "max depth",
        ]
        rows = [
            [
                r.cf_ratio, r.n_users, r.algorithm, r.seconds, r.invocations,
                r.complete_searches, r.average_prune_depth, r.max_depth,
            ]
            for r in self.records
        ]
        return "== Fig. 6: Prune-GEACC vs exhaustive ==\n" + format_table(
            headers, rows
        )


def fig6_pruning(scale=None) -> Fig6Result:
    """Fig. 6a-d: prune depth, time, complete searches, invocations.

    Panel (a) runs Prune-GEACC at every (cf_ratio, |U|) point; panels
    (b)-(d) additionally run the exhaustive baseline at the smaller |U|
    (the paper uses |V|=5, |U|=10; the ``scaled`` grid keeps c_u = 1 so
    the exhaustive tree stays enumerable -- see EXPERIMENTS.md).
    """
    scale = _resolve(scale)
    result = Fig6Result()
    base = scale.default.with_(
        n_events=scale.fig6_n_events,
        cv_high=10,
        cu_high=scale.fig6_cu_high,
    )
    repeats = scale.repeats
    for cf_ratio in scale.cf_grid:
        for n_users in scale.fig6_u_values:
            config = base.with_(n_users=n_users, conflict_ratio=cf_ratio)
            algorithms = [("prune", PruneGEACC)]
            if n_users == scale.fig6_exhaustive_users:
                algorithms.append(("exhaustive", ExhaustiveGEACC))
            for name, cls in algorithms:
                totals = [0.0] * 6
                for seed in range(repeats):
                    instance = generate_instance(config, seed)
                    solver = cls()
                    run = measure(lambda: solver.solve(instance), memory=False)
                    validate_arrangement(run.result)
                    stats = solver.stats
                    totals[0] += run.seconds
                    totals[1] += stats.invocations
                    totals[2] += stats.complete_searches
                    totals[3] += stats.average_prune_depth
                    totals[4] += stats.max_depth
                    totals[5] += run.result.max_sum()
                result.records.append(
                    Fig6Record(
                        cf_ratio=cf_ratio,
                        n_users=n_users,
                        algorithm=name,
                        seconds=totals[0] / repeats,
                        invocations=totals[1] / repeats,
                        complete_searches=totals[2] / repeats,
                        average_prune_depth=totals[3] / repeats,
                        max_depth=totals[4] / repeats,
                        max_sum=totals[5] / repeats,
                    )
                )
    return result


ALL_FIGURES: dict[str, Callable[..., Sweep | Fig6Result]] = {
    **{name: functools.partial(run_sweep, name) for name in SWEEPS},
    "fig6-pruning": fig6_pruning,
}
