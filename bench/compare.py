"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 bench/compare.py CHANGE.json... --against BASE.json...

Each file is a run file written by ``bench/run.py`` (``--out``, or the
``bench/out/run-seed<N>.json`` of an all-workloads run). Files are
paired in the order given: the i-th change run against the i-th base
run, so alternate the two commits when producing them.

For every (workload, metric) it prints both medians and quartiles, the
relative difference of the medians, the median of the per-pair
relative differences (which cancels the machine's drift when the two
commits' runs alternate), the wider of the two spreads, the metric's
bound from ``BENCHMARK.json``, the fraction of paired runs the change
won (ties count for neither side), and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over its
  median) is wider than the bound, and the change did not beat every
  base run;
* ``REGRESSION`` -- the change's median is worse than the base's by
  more than the bound;
* ``gain`` -- the change won at least 9 in 10 pairs and the medians
  differ by more than the base's own quartile distance;
* ``ok`` -- none of the above.

Per-layer metrics have no bound and get no verdict. The exit code is 1
when any run failed its checks or any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: list[str]) -> tuple[dict[tuple[str, str], list[float]], int]:
    """``(workload, metric) -> values`` in file order, and failed-run count."""
    values: dict[tuple[str, str], list[float]] = {}
    void = 0
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, result in record["workloads"].items():
            if not result["correct"] or result["failed"]:
                void += 1
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(float(entry["value"]))
    return values, void


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def compare(
    base: list[float], change: list[float], better: str, bound: float | None
) -> dict:
    """Statistics and verdict for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    mid_base, mid_change = median(base), median(change)
    rel = (mid_change - mid_base) / abs(mid_base) if mid_base else 0.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    paired = median(c / b - 1.0 for b, c in pairs) if all(b for b, _ in pairs) else 0.0
    win_frac = wins / len(pairs) if pairs else 0.0
    q1, q3 = quartiles(base)
    verdict = "-"
    if bound is not None:
        worse = -sign * rel
        all_better = min(sign * c for c in change) > max(sign * b for b in base)
        if max(spread(base), spread(change)) > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
        elif win_frac >= 0.9 and sign * (mid_change - mid_base) > q3 - q1:
            verdict = "gain"
        else:
            verdict = "ok"
    return {
        "base": (mid_base, *quartiles(base)),
        "change": (mid_change, *quartiles(change)),
        "spread": max(spread(base), spread(change)),
        "rel": rel,
        "paired": paired,
        "win_frac": win_frac,
        "verdict": verdict,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("change", nargs="+", help="run files of the change")
    parser.add_argument("--against", nargs="+", required=True, help="run files of the base")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"), help="metric declarations"
    )
    args = parser.parse_args(argv)
    declared = json.loads(Path(args.benchmark).read_text())
    meta = {
        entry["name"]: entry
        for entry in declared["end_to_end"] + declared["per_layer"]
    }
    base, base_void = load_runs(args.against)
    change, change_void = load_runs(args.change)
    print(
        f"{'workload':20s} {'metric':28s} {'base med [q1,q3]':>32s} "
        f"{'change med [q1,q3]':>32s} {'rel':>8s} {'paired':>8s} {'spread':>7s} "
        f"{'bound':>6s} {'wins':>5s}  verdict"
    )
    regressions = 0
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        entry = meta.get(metric, {})
        bound = entry.get("bound")
        row = compare(base[key], change[key], entry.get("better", "lower"), bound)
        regressions += row["verdict"] == "REGRESSION"
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(
            f"{workload:20s} {metric:28s} {_stat(row['base']):>32s} "
            f"{_stat(row['change']):>32s} {row['rel']:+8.2%} {row['paired']:+8.2%} "
            f"{row['spread']:7.2%} {bound_text:>6s} {row['win_frac']:5.0%}  {row['verdict']}"
        )
    if base_void or change_void:
        print(f"void runs (failed checks or operations): base={base_void} change={change_void}")
    return 1 if regressions or base_void or change_void else 0


def _stat(triple: tuple[float, float, float]) -> str:
    mid, q1, q3 = triple
    return f"{mid:.6g} [{q1:.4g},{q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
