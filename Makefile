# Convenience targets for the GEACC reproduction.

PYTHON ?= python

.PHONY: install test test-robustness smoke lint lint-report typecheck check bench bench-check bench-check-xl bench-selftest bench-gate bench-figures bench-figures-smoke bench-figures-paper examples report clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Tier-1 tests stay dependency-free and fast: `test` deliberately does
# NOT depend on lint/typecheck (CI runs all three as separate jobs).
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The anytime-harness fault-injection suite on its own (CI smoke step).
test-robustness:
	PYTHONPATH=src $(PYTHON) -m pytest tests/robustness -q

# Serve (1-shard and 4-shard fleets, mid-compaction crash), kill -9,
# recover (CI's service-smoke job).
smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# src gets the full rule set; tests get the scope-agnostic rules only
# (the tests tree legitimately uses exact float comparisons, terse
# signatures, and raw writes under tests/service), minus the lint
# fixture packs which exist to be flagged.
LINT_TEST_RULES = R1,R3,R4,R6,R7,R11,R13

LINT = PYTHONPATH=src $(PYTHON) -m repro.analysis.cli --jobs 0
LINT_TESTS = --select $(LINT_TEST_RULES) --exclude analysis/fixtures tests

lint:
	$(LINT) --statistics src/repro
	$(LINT) --statistics $(LINT_TESTS)

# The same two passes as JSON lines, suppressed findings included (CI's
# lint artifact); findings do not fail this target, `lint` gates them.
lint-report:
	$(LINT) --format json src/repro > lint-report.json || true
	$(LINT) --format json $(LINT_TESTS) >> lint-report.json || true

typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; run: pip install -e '.[lint]'"; \
	fi

check: lint typecheck test bench-selftest
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks --collect-only -q

# `geacc bench` times the paper's solvers (Figs. 3-5); the serving,
# recovery and shard paths are timed by bench/ and gated by bench-gate.
#
# Regenerate the tracked solver baseline, both tiers (commit the result).
# Each invocation rewrites only its own tier in the JSON and preserves
# the other, so either line can also be rerun alone.
bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --output BENCH_solvers.json
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scale xl \
		--output BENCH_solvers.json

# Quick solver run compared against the committed baseline (CI's bench job).
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --quick \
		--output BENCH_solvers.current.json --compare BENCH_solvers.json

# xl stress-tier smoke against the committed baseline (minutes, not
# seconds -- CI runs it behind a step time cap).
bench-check-xl:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scale xl --quick \
		--output BENCH_solvers.current.json --compare BENCH_solvers.json

# The end-to-end benchmark's self-test at smoke sizes (CI's step that
# catches src/ renames bench/ depends on).
bench-selftest:
	$(PYTHON) -m pytest bench -q

# The end-to-end gate (CI's bench-gate job): `make bench-gate BASE=<commit>`
# times this working tree against BASE with bench/run.py, all four
# workloads, in 5 pairs (seeds 0-4) that alternate which side runs first,
# and fails when bench/compare.py finds a regression or a failed run.
# BASE is checked out into a temporary git worktree that gets this tree's
# bench/ and BENCHMARK.json, so both sides run the same benchmark code.
# About 25 minutes; run files and the table go to bench-gate-out/.
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<commit>" >&2; exit 2; }
	rm -rf bench-gate-out && mkdir bench-gate-out
	@out=$$(pwd)/bench-gate-out; tmp=$$(mktemp -d); base=$$tmp/base; \
	trap 'git worktree remove --force "$$base" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$base" "$(BASE)" || exit 1; \
	rm -rf "$$base/bench" && cp -R bench BENCHMARK.json "$$base/" && rm -rf "$$base/bench/out" || exit 1; \
	for seed in 0 1 2 3 4; do \
		if [ $$((seed % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=$$base; else dir=.; fi; \
			echo "== bench-gate: seed $$seed, $$side"; \
			(cd "$$dir" && python3 bench/run.py --seed $$seed --out "$$out/$$side-$$seed.json") || exit 1; \
		done; \
	done; \
	python3 bench/compare.py $$out/change-?.json --against $$out/base-?.json > "$$out/compare.txt"; \
	status=$$?; cat "$$out/compare.txt"; exit $$status

# pytest-benchmark micro-benchmarks (figure-level timings).
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-figures-smoke:
	REPRO_SCALE=smoke $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-figures-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script =="; PYTHONPATH=src $(PYTHON) $$script || exit 1; done

report:
	$(PYTHON) -m repro.cli reproduce --output REPORT.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	rm -f BENCH_solvers.current.json
	rm -rf bench-gate-out
	find . -name __pycache__ -type d -exec rm -rf {} +
