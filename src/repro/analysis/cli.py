"""``geacc-lint``: the command-line front end of :mod:`repro.analysis`.

Usage::

    geacc-lint src/repro              # lint a tree, exit 1 on findings
    geacc-lint --list-rules           # show the rule table
    geacc-lint --select R1,R5 src     # run a subset
    geacc-lint --ignore R4 src        # run all but some
    geacc-lint --format json src      # one JSON object per finding
    geacc-lint --exclude 'fixtures' t # skip matching subtrees

Also reachable as ``geacc lint`` (same flags) and
``python -m repro.analysis.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.analysis.engine import run_lint
from repro.analysis.registry import RULES, load_rules


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geacc-lint",
        description="GEACC-aware static analysis (determinism, float discipline, "
        "ordering safety, API hygiene, budget checkpoints, atomic service writes)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="append a per-rule findings count",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format: grep-friendly text (default) or one JSON "
        "object per diagnostic (includes suppressed findings, marked)",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="GLOB",
        help="skip files whose root-relative path matches GLOB "
        "(a bare directory name excludes its whole subtree; repeatable)",
    )
    return parser


def list_rules() -> str:
    """Render the rule table (id, title, rationale)."""
    load_rules()  # ensure the table is populated
    lines = []
    for rule_id in sorted(RULES):
        cls = RULES[rule_id]
        lines.append(f"{rule_id}  {cls.title}")
        lines.append(f"    rationale: {cls.rationale}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code (0 clean, 1 findings)."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    select = _split_ids(args.select)
    if args.select is not None and not select:
        # An empty --select would run zero rules and report any tree as
        # clean; treat it as the usage error it almost certainly is.
        print("geacc-lint: --select given but names no rules", file=sys.stderr)
        return 2
    try:
        findings = run_lint(
            args.paths,
            select=select,
            ignore=_split_ids(args.ignore),
            # JSON consumers get the full audit picture; text output
            # stays quiet about what directives already silenced.
            include_suppressed=(args.format == "json"),
            exclude=args.exclude,
        )
    except ValueError as exc:  # unknown rule ids in --select/--ignore
        print(f"geacc-lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable path
        print(f"geacc-lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        for diagnostic in findings:
            print(json.dumps(diagnostic.to_json(), sort_keys=True))
    else:
        for diagnostic in findings:
            print(diagnostic.render())
    active = [d for d in findings if not d.suppressed]
    if args.statistics and active:
        counts: dict[str, int] = {}
        for diagnostic in active:
            counts[diagnostic.rule_id] = counts.get(diagnostic.rule_id, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"-- {len(active)} finding(s) ({summary})")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
