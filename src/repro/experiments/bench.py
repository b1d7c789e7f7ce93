"""Tracked solver benchmark: the repo's machine-readable perf trajectory.

``geacc bench`` times every headline solver on fixed reference workloads
and writes ``BENCH_solvers.json``: per-solver wall-clock, nodes
expanded, MaxSum and outcome. The file is committed, so any change's
perf impact is one ``geacc bench --compare BENCH_solvers.json`` away --
CI runs exactly that and fails when a solver slows down more than the
tolerated factor.

The report is **tiered** (format ``geacc-bench-v2``): each tier is one
named workload set, and the committed file carries every tier that has
been benchmarked. Running one tier rewrites only that tier's section and
preserves the others, so adding a large tier can never mask a
seed-scale regression -- the gate diffs tier against same-named tier,
solver against solver, and a workload shape change inside a tier is a
comparison *error*, never a silent pass.

Tiers:

* every :data:`~repro.experiments.config.SCALES` name is a one-workload
  tier over that scale's default synthetic instance (matrix
  materialised before timing) -- ``scaled`` is the committed default;
* ``xl`` is the kernel stress tier: Greedy and the random baselines
  stream a 1000 x 100000 instance **matrix-free** (the 10^8-cell
  similarity matrix is never materialised; Greedy goes through the
  index provider exactly as the Fig. 5 scalability runs do), while
  MinCostFlow-GEACC runs on a 200 x 10000 materialised instance --
  large enough that the dense block kernel dominates, small enough to
  finish in about a minute per repeat.

Comparability rules:

* ``--quick`` (the CI mode) changes only the number of timing repeats,
  never any instance -- a quick run is directly comparable against a
  full baseline;
* comparisons use the *minimum* wall-clock over repeats, the standard
  low-noise estimator for single-process benchmarks;
* the collector runs with the cyclic GC disabled (and a collect()
  fence before each solver) so allocation-heavy solvers are not
  charged for other code's garbage;
* a baseline recorded on a different instance shape is a comparison
  error, not a pass -- regenerate the baseline when a reference
  workload changes.
"""

from __future__ import annotations

import gc
import json
import platform
from dataclasses import dataclass
from pathlib import Path

from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import ReproError
from repro.experiments.config import SCALES, get_scale
from repro.experiments.reporting import format_table
from repro.robustness.harness import run_with_budget

#: Format marker of BENCH_*.json reports (v1 reports are still readable).
BENCH_FORMAT = "geacc-bench-v2"
_BENCH_FORMAT_V1 = "geacc-bench-v1"

#: The Fig. 3/4 algorithm set -- the solvers whose speed the paper plots.
DEFAULT_BENCH_SOLVERS = ("greedy", "mincostflow", "random-v", "random-u")

#: Timing repeats of a full run; ``--quick`` drops to 1.
DEFAULT_REPEATS = 5

#: The fixed instance seed; one workload, comparable across commits.
BENCH_SEED = 0

#: xl streaming workload: 10^3 x 10^5 (10^8 similarity cells, ~800 MB if
#: materialised -- so it never is; solvers must stream). ``cv_high=200``
#: keeps total event capacity around |U| so Greedy does real matching
#: work instead of saturating instantly.
XL_STREAM_CONFIG = SyntheticConfig(n_events=1000, n_users=100_000, cv_high=200)

#: xl flow workload: 200 x 10^4 with the matrix materialised (16 MB) --
#: sized so the dense min-cost-flow kernel, not instance handling, is
#: what the clock sees.
XL_FLOW_CONFIG = SyntheticConfig(n_events=200, n_users=10_000)

#: One xl pass is minutes of wall-clock; min-of-N buys little at that
#: duration, so the xl tier always times a single repeat.
XL_REPEATS = 1

#: Tier names accepted by ``geacc bench --scale`` beyond the SCALES set.
EXTRA_TIERS = ("xl",)


@dataclass(frozen=True)
class _Workload:
    """One instance shape plus the solvers timed on it."""

    config: SyntheticConfig
    solvers: tuple[str, ...]
    materialise_sims: bool


@dataclass(frozen=True)
class SolverBench:
    """One solver's timings on one reference workload."""

    solver: str
    n_events: int
    n_users: int
    repeats: int
    seconds_min: float
    seconds_mean: float
    nodes: float
    max_sum: float
    n_pairs: float
    outcome: str

    def to_json(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_users": self.n_users,
            "repeats": self.repeats,
            "seconds_min": self.seconds_min,
            "seconds_mean": self.seconds_mean,
            "nodes": self.nodes,
            "max_sum": self.max_sum,
            "n_pairs": self.n_pairs,
            "outcome": self.outcome,
        }

    @classmethod
    def from_json(cls, solver: str, data: dict) -> "SolverBench":
        return cls(
            solver=solver,
            n_events=int(data["n_events"]),
            n_users=int(data["n_users"]),
            repeats=int(data["repeats"]),
            seconds_min=float(data["seconds_min"]),
            seconds_mean=float(data["seconds_mean"]),
            nodes=float(data["nodes"]),
            max_sum=float(data["max_sum"]),
            n_pairs=float(data["n_pairs"]),
            outcome=str(data["outcome"]),
        )


@dataclass(frozen=True)
class TierReport:
    """All solvers' timings for one tier."""

    tier: str
    seed: int
    repeats: int
    results: tuple[SolverBench, ...]

    def result_for(self, solver: str) -> SolverBench | None:
        for result in self.results:
            if result.solver == solver:
                return result
        return None

    def render(self) -> str:
        headers = [
            "solver", "|V|", "|U|", "min s", "mean s", "nodes", "MaxSum",
            "|M|", "outcome",
        ]
        rows = [
            [
                r.solver,
                r.n_events,
                r.n_users,
                round(r.seconds_min, 4),
                round(r.seconds_mean, 4),
                r.nodes,
                round(r.max_sum, 3),
                r.n_pairs,
                r.outcome,
            ]
            for r in self.results
        ]
        title = (
            f"== solver bench: tier={self.tier} seed={self.seed} "
            f"repeats={self.repeats} =="
        )
        return title + "\n" + format_table(headers, rows)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "repeats": self.repeats,
            "solvers": {r.solver: r.to_json() for r in self.results},
        }

    @classmethod
    def from_json(cls, tier: str, data: dict) -> "TierReport":
        # Older reports may also carry ``service`` / ``sharded_service``
        # sections; only the solver timings are read.
        return cls(
            tier=tier,
            seed=int(data["seed"]),
            repeats=int(data["repeats"]),
            results=tuple(
                SolverBench.from_json(name, entry)
                for name, entry in sorted(data["solvers"].items())
            ),
        )


@dataclass(frozen=True)
class BenchReport:
    """Every benchmarked tier plus the interpreter that produced them."""

    python: str
    tiers: tuple[TierReport, ...]

    def tier_for(self, name: str) -> TierReport | None:
        for tier in self.tiers:
            if tier.tier == name:
                return tier
        return None

    def render(self) -> str:
        return "\n\n".join(tier.render() for tier in self.tiers)

    def to_json(self) -> dict:
        return {
            "format": BENCH_FORMAT,
            "python": self.python,
            "tiers": {tier.tier: tier.to_json() for tier in self.tiers},
        }

    @classmethod
    def from_json(cls, data: dict) -> "BenchReport":
        if not isinstance(data, dict):
            raise ReproError(f"not a {BENCH_FORMAT} report")
        if data.get("format") == _BENCH_FORMAT_V1:
            return cls._from_json_v1(data)
        if data.get("format") != BENCH_FORMAT:
            raise ReproError(f"not a {BENCH_FORMAT} report")
        return cls(
            python=str(data.get("python", "")),
            tiers=tuple(
                TierReport.from_json(name, entry)
                for name, entry in sorted(data["tiers"].items())
            ),
        )

    @classmethod
    def _from_json_v1(cls, data: dict) -> "BenchReport":
        """Read a v1 report as a single tier named after its scale.

        v1 kept one workload shape at the report level; v2 pushes it
        down to each solver, so the shared shape is copied into every
        solver entry during the lift.
        """
        shape = {
            "n_events": int(data["n_events"]),
            "n_users": int(data["n_users"]),
        }
        tier = TierReport(
            tier=str(data["scale"]),
            seed=int(data["seed"]),
            repeats=int(data["repeats"]),
            results=tuple(
                SolverBench.from_json(name, {**shape, **entry})
                for name, entry in sorted(data["solvers"].items())
            ),
        )
        return cls(python=str(data.get("python", "")), tiers=(tier,))


def merge_reports(base: BenchReport, update: BenchReport) -> BenchReport:
    """``base`` with ``update``'s tiers replacing same-named ones.

    This is what makes single-tier runs safe against the committed
    multi-tier baseline: benchmarking one tier rewrites that tier's
    section and carries every other tier through untouched.
    """
    merged = {tier.tier: tier for tier in base.tiers}
    merged.update({tier.tier: tier for tier in update.tiers})
    return BenchReport(
        python=update.python or base.python,
        tiers=tuple(merged[name] for name in sorted(merged)),
    )


def _tier_workloads(name: str) -> tuple[_Workload, ...]:
    if name == "xl":
        return (
            _Workload(
                config=XL_STREAM_CONFIG,
                solvers=("greedy", "random-v", "random-u"),
                materialise_sims=False,
            ),
            _Workload(
                config=XL_FLOW_CONFIG,
                solvers=("mincostflow",),
                materialise_sims=True,
            ),
        )
    resolved = get_scale(name if name in SCALES else None)
    return (
        _Workload(
            config=resolved.default,
            solvers=DEFAULT_BENCH_SOLVERS,
            materialise_sims=True,
        ),
    )


def run_bench(
    solvers: tuple[str, ...] | None = None,
    repeats: int | None = None,
    quick: bool = False,
    scale: str | None = None,
    seed: int = BENCH_SEED,
) -> BenchReport:
    """Time one tier's workloads and return a single-tier report.

    ``scale`` selects the tier: a :data:`~repro.experiments.config.
    SCALES` name (or None for the active scale) times the Fig. 3/4
    solver set on that scale's reference instance; ``"xl"`` times the
    kernel stress workloads. Similarity matrices are materialised before
    any timing wherever the tier says so -- and never for the xl
    streaming workload, whose whole point is staying matrix-free.
    """
    is_xl = scale == "xl"
    tier_name = "xl" if is_xl else get_scale(scale).name
    workloads = _tier_workloads(tier_name)
    if repeats is None:
        repeats = 1 if quick or is_xl else DEFAULT_REPEATS
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    results = []
    for workload in workloads:
        names = (
            workload.solvers
            if solvers is None
            else tuple(s for s in workload.solvers if s in solvers)
        )
        if not names:
            continue
        instance = generate_instance(workload.config, seed)
        if workload.materialise_sims:
            instance.sims  # materialise outside the timed region
        results.extend(
            _time_solvers(names, instance, repeats)
        )
    return BenchReport(
        python=platform.python_version(),
        tiers=(
            TierReport(
                tier=tier_name,
                seed=seed,
                repeats=repeats,
                results=tuple(results),
            ),
        ),
    )


def _time_solvers(
    names: tuple[str, ...], instance, repeats: int  # type: ignore[no-untyped-def]
) -> list[SolverBench]:
    """Time each solver on ``instance`` with the cyclic GC parked."""
    results = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in names:
            gc.collect()
            seconds = []
            nodes = []
            last = None
            for _ in range(repeats):
                last = run_with_budget(name, instance)
                if not last.ok:
                    errors = "; ".join(
                        f"{f.error_type}: {f.message}" for f in last.failures
                    )
                    raise ReproError(f"bench solver {name!r} failed: {errors}")
                seconds.append(last.seconds)
                nodes.append(float(last.nodes))
            assert last is not None and last.arrangement is not None
            results.append(
                SolverBench(
                    solver=name,
                    n_events=instance.n_events,
                    n_users=instance.n_users,
                    repeats=repeats,
                    seconds_min=min(seconds),
                    seconds_mean=sum(seconds) / len(seconds),
                    nodes=sum(nodes) / len(nodes),
                    max_sum=last.max_sum(),
                    n_pairs=float(len(last.arrangement)),
                    outcome=last.outcome.value,
                )
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return results


def write_report(
    report: BenchReport, path: str | Path, preserve_other_tiers: bool = True
) -> None:
    """Write ``report``, merging over any tiers already at ``path``.

    A single-tier run against a multi-tier file updates only its own
    tier; pass ``preserve_other_tiers=False`` to overwrite outright.
    An existing file that does not parse as a bench report is
    overwritten rather than propagated as an error -- the output path
    is this run's to claim.
    """
    target = Path(path)
    if preserve_other_tiers and target.exists():
        try:
            existing = load_report(target)
        except ReproError:
            existing = None
        if existing is not None:
            report = merge_reports(existing, report)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    target.write_text(text, encoding="utf-8")


def load_report(path: str | Path) -> BenchReport:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}") from exc
    return BenchReport.from_json(data)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    max_regression: float = 2.0,
) -> list[str]:
    """Regression messages; empty when ``current`` is acceptable.

    Tiers diff by name; a tier present in only one report is ignored
    (new tier / baseline not yet regenerated), which is exactly why the
    gate runs per tier -- a freshly added xl section can never absorb or
    excuse a seed-scale slowdown, because the seed-scale tier is still
    compared entry by entry.

    Within a tier, a solver regresses when its minimum wall-clock
    exceeds the baseline's by more than ``max_regression`` times.
    Solvers present in only one report are ignored (new solver /
    retired solver), but a baseline from a different workload shape is
    itself a finding -- timings from different instances must never be
    ratioed.
    """
    if max_regression <= 0:
        raise ValueError(f"max_regression must be > 0, got {max_regression}")
    messages = []
    for tier in current.tiers:
        base_tier = baseline.tier_for(tier.tier)
        if base_tier is None:
            continue
        messages.extend(
            _compare_tier(tier, base_tier, max_regression)
        )
    return messages


def _compare_tier(
    tier: TierReport, base_tier: TierReport, max_regression: float
) -> list[str]:
    messages = []
    if tier.seed != base_tier.seed:
        return [
            f"{tier.tier}: baseline seed mismatch (baseline seed="
            f"{base_tier.seed}, current seed={tier.seed}) -- "
            "regenerate the baseline"
        ]
    for result in tier.results:
        base = base_tier.result_for(result.solver)
        if base is None:
            continue
        if (result.n_events, result.n_users) != (base.n_events, base.n_users):
            messages.append(
                f"{tier.tier}/{result.solver}: baseline workload mismatch "
                f"(baseline |V|={base.n_events} |U|={base.n_users}, current "
                f"|V|={result.n_events} |U|={result.n_users}) -- "
                "regenerate the baseline"
            )
            continue
        if base.seconds_min <= 0:
            continue
        ratio = result.seconds_min / base.seconds_min
        if ratio > max_regression:
            messages.append(
                f"{tier.tier}/{result.solver}: {result.seconds_min:.4f}s vs "
                f"baseline {base.seconds_min:.4f}s "
                f"({ratio:.2f}x > {max_regression:g}x)"
            )
    return messages


def speedup_summary(current: BenchReport, baseline: BenchReport) -> list[str]:
    """One line per (tier, solver) pair shared with ``baseline``.

    The human-readable counterpart to :func:`compare_reports`: instead
    of gating, it states each solver's speed relative to the committed
    baseline (min wall-clock over repeats, same estimator the gate
    uses). Pairs whose workload shapes differ are skipped -- a ratio of
    timings from different instances would be noise dressed as signal.
    """
    lines = []
    for tier in current.tiers:
        base_tier = baseline.tier_for(tier.tier)
        if base_tier is None or tier.seed != base_tier.seed:
            continue
        for result in tier.results:
            base = base_tier.result_for(result.solver)
            if (
                base is None
                or (result.n_events, result.n_users)
                != (base.n_events, base.n_users)
                or base.seconds_min <= 0
                or result.seconds_min <= 0
            ):
                continue
            ratio = base.seconds_min / result.seconds_min
            verdict = (
                f"{ratio:.2f}x faster" if ratio >= 1.0
                else f"{1.0 / ratio:.2f}x slower"
            )
            lines.append(
                f"{tier.tier}/{result.solver}: {result.seconds_min:.4f}s vs "
                f"{base.seconds_min:.4f}s baseline ({verdict})"
            )
    return lines
