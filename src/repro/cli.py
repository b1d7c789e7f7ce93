"""Command-line interface: ``geacc``.

Subcommands:

* ``geacc solve`` -- generate (or load) an instance and solve it with one
  or more algorithms, printing MaxSum / |M| / timing; optionally writes
  the best arrangement to a JSON file.
* ``geacc generate`` -- generate a synthetic or simulated-city instance
  and save it (``.json`` or ``.npz``) for later ``solve --input`` runs.
* ``geacc experiment`` -- run one of the paper's figure drivers and print
  its series (see ``repro.experiments.figures``).
* ``geacc sweep`` -- run a figure driver with crash-safe JSONL
  checkpointing; ``--resume`` continues a killed sweep without
  re-running finished cells (see ``docs/robustness.md``), ``--jobs N``
  fans cells out to N worker processes (see ``docs/performance.md``),
  and ``--timeout`` bounds the whole sweep's wall clock.
* ``geacc bench`` -- time every solver on the reference instance and
  write a machine-readable ``BENCH_solvers.json``; ``--compare``
  against a committed baseline gates perf regressions in CI.
* ``geacc info`` -- list registered solvers, figures and scales.

``geacc solve`` accepts ``--timeout`` / ``--node-budget``: solvers then
run under the anytime harness and report their outcome (``optimal`` /
``feasible-timeout`` / ``failed``). Exit codes follow the usual Unix
conventions: 0 on success, 1 when a solver failed outright, 124 (the GNU
``timeout`` convention) when every solver answered but at least one only
reached its budget-limited best-so-far.
* ``geacc lint`` -- run the GEACC-aware static-analysis pass (also
  available as the ``geacc-lint`` console script; see
  ``docs/static-analysis.md``).
* ``geacc serve`` -- run the journaled online arrangement service: a
  JSON-over-HTTP front-end over a shard fleet (one shard unless
  ``--shards`` says otherwise), each shard a write-ahead journal and a
  micro-batching solve engine (``--journal``, ``--batch-ms``,
  ``--timeout``; see ``docs/service.md``). ``--journal`` names the
  fleet's root directory; restarting on an existing root recovers the
  exact pre-crash state -- each shard via its newest intact snapshot
  plus its journal tail -- and ``--compact-bytes`` arms automatic
  journal compaction on growth.
* ``geacc compact`` -- offline snapshot + journal-trim of every shard of
  a fleet (the same operation ``POST /compact`` runs on a live server).
* ``geacc replay`` -- drive a simulated timeline through a synchronous
  fleet as a load generator; reports request-latency percentiles and
  achieved MaxSum versus the offline clairvoyant bound, next to the
  first-come-first-served baseline.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.algorithms import SOLVERS, get_solver
from repro.core.similarity import TILEABLE_METRICS
from repro.exceptions import ReproError
from repro.core.validation import validate_arrangement
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.datasets.meetup import CITIES, MeetupCityConfig, meetup_city
from repro.datasets.scenarios import SCENARIOS, build_scenario
from repro.experiments.config import SCALES
from repro.experiments.figures import ALL_FIGURES, SWEEPS, run_sweep
from repro.experiments.metrics import measure
from repro.robustness import Outcome, run_with_budget

#: Exit code when a budgeted solve only reached its anytime best-so-far
#: (mirrors GNU ``timeout``).
EXIT_TIMEOUT = 124


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events", type=int, default=100, help="|V| (synthetic)")
    parser.add_argument("--users", type=int, default=1000, help="|U| (synthetic)")
    parser.add_argument("--dimension", type=int, default=20, help="attribute d")
    parser.add_argument(
        "--conflict-ratio", type=float, default=0.25, help="|CF| / all event pairs"
    )
    parser.add_argument("--cv-max", type=int, default=50, help="max event capacity")
    parser.add_argument("--cu-max", type=int, default=4, help="max user capacity")
    parser.add_argument(
        "--attr-distribution",
        choices=["uniform", "normal", "zipf"],
        default="uniform",
    )
    parser.add_argument(
        "--city",
        choices=sorted(CITIES),
        default=None,
        help="use a simulated Meetup city instead of synthetic data",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default=None,
        help="use a structured scenario workload instead of synthetic data",
    )
    parser.add_argument("--seed", type=int, default=0)


def _job_count(text: str) -> int:
    """argparse type of ``--jobs``: a worker count, 0 meaning all cores."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {value}"
        )
    return value


def _build_instance(args: argparse.Namespace):
    if getattr(args, "scenario", None):
        return build_scenario(args.scenario, seed=args.seed).instance
    if args.city:
        config = MeetupCityConfig(city=args.city, conflict_ratio=args.conflict_ratio)
        return meetup_city(config, args.seed)
    config = SyntheticConfig(
        n_events=args.events,
        n_users=args.users,
        d=args.dimension,
        conflict_ratio=args.conflict_ratio,
        cv_high=args.cv_max,
        cu_high=args.cu_max,
        attr_distribution=args.attr_distribution,
    )
    return generate_instance(config, args.seed)


def _load_instance(path: str):
    from repro.io import load_instance_json, load_instance_npz

    if path.endswith(".npz"):
        return load_instance_npz(path)
    return load_instance_json(path)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.input:
        instance = _load_instance(args.input)
    else:
        instance = _build_instance(args)
    print(instance)
    budgeted = args.timeout is not None or args.node_budget is not None
    best = None
    timed_out = False
    failed = False
    for name in args.algorithms:
        if budgeted:
            run = measure(
                lambda: run_with_budget(
                    name,
                    instance,
                    timeout=args.timeout,
                    node_limit=args.node_budget,
                ),
                memory=args.memory,
            )
            result = run.result
            if result.outcome is Outcome.FAILED:
                failed = True
                errors = "; ".join(
                    f"{f.error_type}: {f.message}" for f in result.failures
                )
                print(f"{name:12s}  FAILED  ({errors})")
                continue
            if result.outcome is Outcome.FEASIBLE_TIMEOUT:
                timed_out = True
            memory_text = (
                f"  peak={run.peak_mb:.1f}MB" if run.peak_mb is not None else ""
            )
            print(
                f"{name:12s}  MaxSum={result.max_sum():10.3f}  "
                f"|M|={len(result.arrangement):6d}  time={result.seconds:.3f}s"
                f"  outcome={result.outcome}{memory_text}"
            )
            arrangement = result.arrangement
        else:
            solver = get_solver(name)
            run = measure(lambda: solver.solve(instance), memory=args.memory)
            validate_arrangement(run.result)
            memory_text = (
                f"  peak={run.peak_mb:.1f}MB" if run.peak_mb is not None else ""
            )
            print(
                f"{name:12s}  MaxSum={run.result.max_sum():10.3f}  "
                f"|M|={len(run.result):6d}  time={run.seconds:.3f}s{memory_text}"
            )
            arrangement = run.result
        if best is None or arrangement.max_sum() > best.max_sum():
            best = arrangement
    if args.output and best is not None:
        from repro.io import save_arrangement_json

        save_arrangement_json(best, args.output)
        print(f"best arrangement written to {args.output}")
    if failed:
        return 1
    if timed_out:
        return EXIT_TIMEOUT
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io import save_instance_json, save_instance_npz

    instance = _build_instance(args)
    if args.output.endswith(".npz"):
        save_instance_npz(instance, args.output)
    else:
        save_instance_json(instance, args.output)
    print(f"{instance} written to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.chart and args.figure in SWEEPS:
        from repro.experiments.charts import render_sweep_charts

        print(render_sweep_charts(run_sweep(args.figure, args.scale)))
    else:
        print(ALL_FIGURES[args.figure](args.scale).render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SWEEPS.get(args.figure)
    if spec is None:
        print(
            f"error: figure {args.figure} does not support checkpointing",
            file=sys.stderr,
        )
        return 2
    if args.solvers and spec.solvers is not None:
        print(
            f"error: figure {args.figure} has a fixed solver set",
            file=sys.stderr,
        )
        return 2
    budget = None
    if args.timeout is not None:
        from repro.robustness.budget import Budget

        budget = Budget(deadline=args.timeout)
    result = run_sweep(
        args.figure,
        args.scale,
        solvers=tuple(args.solvers) if args.solvers else None,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        jobs=args.jobs,
        budget=budget,
    )
    print(result.render())
    if budget is not None and budget.exhausted:
        print(
            f"sweep budget exhausted after {budget.elapsed():.1f}s -- "
            f"rerun with --resume to finish the remaining cells",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    return 1 if result.failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        compare_reports,
        load_report,
        run_bench,
        speedup_summary,
        write_report,
    )

    report = run_bench(
        solvers=tuple(args.solvers) if args.solvers else None,
        repeats=args.repeats,
        quick=args.quick,
        scale=args.scale,
    )
    print(report.render())
    write_report(report, args.output)
    print(f"bench report written to {args.output}")
    if args.compare:
        baseline = load_report(args.compare)
        for line in speedup_summary(report, baseline):
            print(f"speedup: {line}")
        regressions = compare_reports(
            report, baseline, max_regression=args.max_regression
        )
        if regressions:
            for line in regressions:
                print(f"regression: {line}", file=sys.stderr)
            return 1
        print(
            f"no solver regressed more than {args.max_regression:g}x "
            f"against {args.compare}"
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_full_report

    report = run_full_report(args.scale, figures=args.figures)
    text = report.to_markdown()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report ({len(report.sections)} sections, "
              f"{report.total_seconds:.1f}s) written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.simulation import random_timeline, simulate

    instance = _build_instance(args)
    print(instance)
    rng = np.random.default_rng(args.seed)
    timeline = random_timeline(instance, rng, horizon=args.horizon)
    for name in args.policies:
        rebatch = args.rebatch_solver if name == "rebatch" else None
        print(simulate(instance, timeline, rebatch=rebatch).summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import JournalError
    from repro.service.http import make_server
    from repro.service.sharding import ShardCoordinator
    from repro.service.store import StoreConfig

    config = StoreConfig(dimension=args.dimension, t=args.t, metric=args.metric)
    options = {
        "retain": args.retain,
        "compact_bytes": args.compact_bytes or None,
        "batch_ms": args.batch_ms,
        "solve_timeout": args.timeout,
        "max_pending": args.max_pending,
    }
    try:
        # args.journal names the fleet root (manifest + one journal and
        # snapshot directory per shard).
        fleet = ShardCoordinator.open(
            args.journal, config, shards=args.shards, **options
        )
    except JournalError as exc:
        print(f"geacc serve: cannot recover: {exc}", file=sys.stderr)
        return 2
    if args.crash_after_snapshot:
        fleet._crash_after_snapshot()
    server = make_server(fleet, host=args.host, port=args.port)
    summary = fleet.state_summary()
    recovery = summary["last_recovery"]
    print(
        f"geacc serve: journal={args.journal} seq={summary['seq']} "
        f"|V|={summary['n_events']} |U|={summary['n_users']} "
        f"|M|={summary['n_assignments']}"
        + (
            f" recovery={recovery['rung']} snapshot_ms={recovery['snapshot_ms']}"
            f" replay_ms={recovery['replay_ms']}"
            if recovery
            else ""
        ),
        flush=True,
    )
    topology = summary["sharding"]
    per_shard = " ".join(
        f"s{row['shard']}:|V|={row['n_events']},|U|={row['n_users']},"
        f"seq={row['seq']}"
        for row in topology["per_shard"]
    )
    print(
        f"geacc serve: sharding shards={topology['shards']} "
        f"components={topology['components']} "
        f"rebalances={topology['rebalances']} {per_shard}",
        flush=True,
    )
    # The smoke driver and scripts parse this exact line for the port.
    print(f"listening on http://{args.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        fleet.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.service.loadgen import replay_timeline
    from repro.service.sharding import shardable_instance, shardable_timeline
    from repro.simulation import random_timeline

    from repro.exceptions import JournalError

    if args.components:
        # A clustered, partition-respecting universe sized from the
        # standard instance flags (|V| and |U| split across components).
        instance = shardable_instance(
            args.components,
            max(1, args.events // args.components),
            max(1, args.users // args.components),
            dimension=args.dimension,
            seed=args.seed,
        )
        timeline = shardable_timeline(instance)
    else:
        instance = _build_instance(args)
        rng = np.random.default_rng(args.seed)
        timeline = random_timeline(instance, rng, horizon=args.horizon)
    print(instance)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            report = replay_timeline(
                instance,
                timeline,
                Path(args.journal) if args.journal else Path(tmp) / "fleet",
                shards=args.shards,
                solve_timeout=args.timeout,
                bound=args.bound,
            )
    except JournalError as exc:
        print(f"geacc replay: journal error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ratio >= report.baseline_ratio else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.exceptions import JournalError
    from repro.service.sharding import ShardCoordinator

    try:
        fleet = ShardCoordinator.recover(
            args.journal, threaded=False, retain=args.retain
        )
    except JournalError as exc:
        print(f"geacc compact: cannot recover: {exc}", file=sys.stderr)
        return 2
    with fleet:
        compacted = fleet.compact()
    for shard, stats in enumerate(compacted.per_shard):
        print(
            f"geacc compact: shard {shard} snapshot seq={stats.snapshot_seq} "
            f"journal {stats.journal_bytes_before} -> {stats.journal_bytes_after} "
            f"bytes (base seq {stats.base_seq}, "
            f"retained {len(stats.retained)}, pruned {len(stats.pruned)})"
        )
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    print("solvers:    " + ", ".join(sorted(SOLVERS)))
    print("figures:    " + ", ".join(sorted(ALL_FIGURES)))
    print("scales:     " + ", ".join(sorted(SCALES)))
    print("cities:     " + ", ".join(sorted(CITIES)))
    print("scenarios:  " + ", ".join(sorted(SCENARIOS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geacc",
        description="Conflict-aware event-participant arrangement (ICDE 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve one instance")
    _add_instance_arguments(solve)
    solve.add_argument(
        "--algorithms",
        nargs="+",
        default=["greedy"],
        choices=sorted(SOLVERS),
    )
    solve.add_argument(
        "--memory", action="store_true", help="also measure peak memory"
    )
    solve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per algorithm (anytime: best-so-far on expiry; "
        "exit 124 when any algorithm only reached its budgeted best)",
    )
    solve.add_argument(
        "--node-budget",
        type=int,
        default=None,
        metavar="N",
        help="cap on checkpointed work units per algorithm",
    )
    solve.add_argument(
        "--input", default=None, help="load the instance from a .json/.npz file"
    )
    solve.add_argument(
        "--output", default=None, help="write the best arrangement to a JSON file"
    )
    solve.set_defaults(func=_cmd_solve)

    generate = subparsers.add_parser(
        "generate", help="generate an instance and save it to a file"
    )
    _add_instance_arguments(generate)
    generate.add_argument(
        "--output", required=True, help="target path (.json or .npz)"
    )
    generate.set_defaults(func=_cmd_generate)

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's figures"
    )
    experiment.add_argument("figure", choices=sorted(ALL_FIGURES))
    experiment.add_argument(
        "--scale", choices=sorted(SCALES), default=None, help="parameter scale"
    )
    experiment.add_argument(
        "--chart",
        action="store_true",
        help="render bar charts instead of tables (sweep figures only)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    sweep = subparsers.add_parser(
        "sweep", help="run a figure sweep with crash-safe checkpointing"
    )
    sweep.add_argument("figure", choices=sorted(ALL_FIGURES))
    sweep.add_argument(
        "--checkpoint",
        required=True,
        metavar="PATH",
        help="JSONL file that records every finished cell",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the checkpoint file",
    )
    sweep.add_argument(
        "--scale", choices=sorted(SCALES), default=None, help="parameter scale"
    )
    sweep.add_argument(
        "--solvers",
        nargs="+",
        default=None,
        choices=sorted(SOLVERS),
        help="override the figure's solver set",
    )
    sweep.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        metavar="N",
        help="run up to N (grid point, seed) groups at once in worker "
        "processes (0 = all cores; default 1 = serial)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sweep-wide wall-clock budget; cells that do not start in "
        "time are left to a later --resume (exit 124)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    bench = subparsers.add_parser(
        "bench",
        help="time every solver and write BENCH_solvers.json",
        description="Time the paper's solvers (Figs. 3-5) on fixed "
        "workloads and write BENCH_solvers.json. The serving, recovery "
        "and shard paths are benchmarked by bench/run.py and gated by "
        "'make bench-gate BASE=<commit>' (bench/README.md).",
    )
    bench.add_argument(
        "--output",
        default="BENCH_solvers.json",
        metavar="PATH",
        help="where to write the JSON report (default: BENCH_solvers.json)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="one repeat per solver on the same reference instance -- fast "
        "enough for CI, still comparable against a full baseline",
    )
    bench.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="timing repeats per solver (default: 5, or 1 with --quick)",
    )
    bench.add_argument(
        "--solvers",
        nargs="+",
        default=None,
        choices=sorted(SOLVERS),
        help="solvers to benchmark (default: the Fig. 3/4 algorithm set)",
    )
    bench.add_argument(
        "--scale",
        choices=sorted((*SCALES, "xl")),
        default=None,
        help="bench tier: a parameter scale, or 'xl' for the kernel "
        "stress tier (matrix-free 1000x100000 streaming plus a "
        "200x10000 dense-flow workload)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="exit 1 if any solver regressed more than --max-regression "
        "times against this baseline report",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="slowdown factor tolerated by --compare (default: 2.0)",
    )
    bench.set_defaults(func=_cmd_bench)

    reproduce = subparsers.add_parser(
        "reproduce", help="run every table/figure and write one report"
    )
    reproduce.add_argument(
        "--scale", choices=sorted(SCALES), default=None, help="parameter scale"
    )
    reproduce.add_argument(
        "--figures",
        nargs="+",
        default=None,
        choices=sorted(ALL_FIGURES),
        help="subset of figures (default: all)",
    )
    reproduce.add_argument(
        "--output", default=None, help="write the markdown report here"
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    simulate = subparsers.add_parser(
        "simulate", help="replay a dynamic-platform timeline"
    )
    _add_instance_arguments(simulate)
    simulate.add_argument("--horizon", type=float, default=100.0)
    simulate.add_argument(
        "--policies",
        nargs="+",
        default=["greedy-arrival", "rebatch"],
        choices=["greedy-arrival", "rebatch"],
    )
    simulate.add_argument(
        "--rebatch-solver", default="greedy", choices=sorted(SOLVERS)
    )
    simulate.set_defaults(func=_cmd_simulate)

    serve = subparsers.add_parser(
        "serve", help="run the journaled online arrangement service"
    )
    serve.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="fleet root directory: manifest plus one journal and snapshot "
        "directory per shard (recovered if it already exists)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8527, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--batch-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="micro-batch coalescing window (default: 25ms)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="per-batch solve deadline; on expiry the engine falls down "
        "the degradation ladder (default: 0.25s)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="admission-control queue bound (503 beyond it)",
    )
    serve.add_argument(
        "--dimension", type=int, default=20,
        help="attribute dimensionality (new journals only)",
    )
    serve.add_argument(
        "--t", type=float, default=10_000.0,
        help="attribute bound T (new journals only)",
    )
    serve.add_argument(
        "--metric", default="euclidean", choices=sorted(TILEABLE_METRICS),
        help="similarity metric (new journals only)",
    )
    serve.add_argument(
        "--compact-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="auto-compact when the journal exceeds this size "
        "(0 disables; default: 1 MiB)",
    )
    serve.add_argument(
        "--retain", type=int, default=2, metavar="N",
        help="snapshots kept after a compaction (default: 2)",
    )
    serve.add_argument(
        # Test hook: hard-exit between snapshot write and journal trim on
        # the next compaction (the kill-mid-compaction smoke scenario).
        "--crash-after-snapshot", action="store_true", help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard the service by conflict-graph components (default: 1 "
        "for a new root, the manifest's count for an existing one)",
    )
    serve.set_defaults(func=_cmd_serve)

    compact = subparsers.add_parser(
        "compact", help="snapshot every shard journal and trim it to the tail"
    )
    compact.add_argument(
        "--journal", required=True, metavar="PATH",
        help="fleet root directory to compact (recovered first)",
    )
    compact.add_argument(
        "--retain", type=int, default=2, metavar="N",
        help="snapshots kept after the compaction (default: 2)",
    )
    compact.set_defaults(func=_cmd_compact)

    replay = subparsers.add_parser(
        "replay",
        help="drive a simulated timeline through the service (load generator)",
    )
    _add_instance_arguments(replay)
    replay.add_argument("--horizon", type=float, default=100.0)
    replay.add_argument(
        "--timeout", type=float, default=0.25, metavar="SECONDS",
        help="per-batch solve deadline",
    )
    replay.add_argument(
        "--bound",
        choices=["relaxation", "nn"],
        default="relaxation",
        help="clairvoyant bound to score against (default: relaxation)",
    )
    replay.add_argument(
        "--journal", default=None, metavar="PATH",
        help="keep the run's fleet root here (default: a temp directory)",
    )
    replay.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard count of the synchronously driven fleet; compare "
        "--shards 1 vs --shards 8 for the scaling story (default: 1)",
    )
    replay.add_argument(
        "--components", type=int, default=0, metavar="K",
        help="use a clustered shardable workload with K conflict "
        "components instead of the uniform synthetic instance",
    )
    replay.set_defaults(func=_cmd_replay)

    # Listed for --help only: main() hands `geacc lint ARGS` to
    # geacc-lint unchanged, so the two front ends share one parser.
    subparsers.add_parser(
        "lint",
        help="run the GEACC-aware static-analysis pass",
        add_help=False,
    )

    info = subparsers.add_parser("info", help="list solvers/figures/scales")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
