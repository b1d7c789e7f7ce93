"""One command for the benchmark: every workload, every metric, checked.

Usage (from the repository root)::

    python3 bench/run.py --seed 0                 # all workloads, end-to-end
    python3 bench/run.py --seed 0 --trace         # all workloads, per-layer
    python3 bench/run.py --workload recovery --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs in its own child process,
one at a time, and the combined results go to ``bench/out/``. With
``--workload`` the workload runs in this process. Either way the last
line of standard output is one JSON object; for a single workload it is
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``). A failed correctness check prints ``"correct": false``
and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Default measuring time per workload run (``run_seconds`` in
#: ``BENCHMARK.json``).
DEFAULT_SECONDS = 25


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install needed).

    Also keeps numpy's BLAS to one thread, so the load is the client's
    one thread (set before numpy is first imported).
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload for about ``seconds``; returns the result object.

    The workload sets up :data:`~workloads.SETUPS` times, and once more
    after every measured pass, so the ``setup_s`` samples span the run
    as the passes do (a trace run sets up once). The first pass warms
    caches and lazy imports up and is checked but not measured.
    Measured cycles follow until the next one would end
    past ``seconds`` (and at least ``min_cycles`` of them). A cycle
    drives every scenario of the workload once; in a trace run it drives
    each scenario three times in a row, as a plain, a span and a count
    pass, so all three kinds of pass see the same inputs. A speedometer
    samples the host's speed throughout, and every timed stretch is
    normalised with it (``speed.py``).
    """
    import numpy as np

    from speed import NOMINAL_NS, Speedometer
    from tracer import Tracer, analyse_spans, breakdown, layer_metrics, write_spans
    from workloads import SETUPS, WORKLOADS, CheckFailed

    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    speedometer = Speedometer()
    modes = ("plain", "spans", "counts") if trace else ("plain",)
    passes, span_passes, count_passes = [], [], []
    by_mode: dict[str, list] = {mode: [] for mode in modes}
    try:
        workload = WORKLOADS[name](seed, smoke, workdir)
        minimum = 1 if trace else workload.min_cycles
        with speedometer.running():
            setups = [workload.set_up(k) for k in range(1 if trace else SETUPS)]
            started = time.perf_counter()
            warmup = workload.run_pass(0, 0, None)
            workload.verify(warmup)
            cycles = 0
            while True:
                cycle_started = time.perf_counter()
                for scenario in range(workload.n_scenarios):
                    for mode in modes:
                        if mode == "spans":
                            context = tracer.spans_installed()
                        elif mode == "counts":
                            context = tracer.counts_installed()
                        else:
                            context = nullcontext()
                        with context:
                            result = workload.run_pass(
                                len(passes) + 1, scenario, tracer if mode == "spans" else None
                            )
                        if mode == "spans":
                            spans = tracer.take_spans()
                            if not span_passes:
                                write_spans(OUT / f"trace-{name}.jsonl", spans)
                            span_passes.append(analyse_spans(spans, result.wall_ns))
                        elif mode == "counts":
                            count_passes.append(tracer.take_counts())
                        workload.verify(result)
                        passes.append(result)
                        by_mode[mode].append(result)
                    if not trace:
                        setups.append(workload.set_up(len(setups)))
                cycles += 1
                now = time.perf_counter()
                if cycles >= minimum and (now - started) + (now - cycle_started) > seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        quality = workload.quality_ratio(passes) if trace else None
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", flush=True)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    canary = workload.canary()
    if canary:
        print(canary)

    def seconds_of(stretches: list) -> float:
        return sum(speedometer.normalised_ns(*s) for s in stretches) / 1e9

    walls = {mode: [seconds_of(p.timed) for p in done] for mode, done in by_mode.items()}
    ops_ms = [speedometer.normalised_ns(*op) / 1e6 for p in passes for op in p.ops]
    raw_ms = [(end - start) / 1e6 for p in passes for start, end in p.ops]
    print(
        f"{name}: warm-up + {cycles} cycles of {len(passes) // cycles} passes in "
        f"{now - started:.1f}s; {len(ops_ms)} operations, p50 {median(raw_ms):.4g} ms "
        f"and p99 {np.percentile(raw_ms, 99.0):.4g} ms as measured, "
        f"{median(ops_ms):.4g} and {np.percentile(ops_ms, 99.0):.4g} ms normalised; "
        f"reference unit {median(speedometer.durations) / 1e3:.1f} us "
        f"(nominal {NOMINAL_NS / 1e3:.0f} us) over {len(speedometer.durations)} samples"
    )
    if trace:
        print("\n".join(breakdown(span_passes)))
        values = layer_metrics(
            span_passes,
            count_passes,
            walls["plain"],
            walls["spans"],
            rebalances=median(p.rebalances for p in passes),
            quality_ratio=quality,
        )
    else:
        # Mean pass of each cycle, so every input weighs the same.
        per_cycle = len(passes) // cycles
        cycle_means = [
            sum(walls["plain"][c * per_cycle : (c + 1) * per_cycle]) / per_cycle
            for c in range(cycles)
        ]
        values = {
            "setup_s": (median(seconds_of([s]) for s in setups), "s"),
            "op_p50_ms": (median(ops_ms), "ms"),
            "pass_s": (median(cycle_means), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    everything = [warmup] + passes
    return {
        "correct": True,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in values.items()
        },
    }


def _table(name: str, result: dict) -> str:
    lines = [f"== {name}: attempted={result['attempted']} failed={result['failed']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    return "\n".join(lines)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one at a time."""
    from workloads import WORKLOADS

    combined: dict[str, dict] = {}
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"{name}: run failed (exit {child.returncode})")
            return 1
        combined[name] = json.loads(lines[-1])
    out = Path(args.out) if args.out else OUT / (
        f"run-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    _write_run(out, args, combined)
    print(json.dumps({"seed": args.seed, "trace": args.trace, "workloads": combined}))
    return 0


def _write_run(path: Path, args: argparse.Namespace, workloads: dict[str, dict]) -> None:
    """A run file for ``bench/compare.py``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "workloads": workloads,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from a traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--out", help="also write a run file for bench/compare.py")
    args = parser.parse_args(argv)
    use_source_tree()
    if args.workload is None:
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if result["correct"]:
        print(_table(args.workload, result))
    if args.out:
        _write_run(Path(args.out), args, {args.workload: result})
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
