# Convenience targets for the GEACC reproduction.

PYTHON ?= python

.PHONY: install test test-robustness smoke lint typecheck check bench bench-check bench-check-xl bench-selftest bench-figures bench-figures-smoke bench-figures-paper examples report clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Tier-1 tests stay dependency-free and fast: `test` deliberately does
# NOT depend on lint/typecheck (CI runs all three as separate jobs).
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The anytime-harness fault-injection suite on its own (CI smoke step).
test-robustness:
	PYTHONPATH=src $(PYTHON) -m pytest tests/robustness -q

# Serve (single service + 4-shard fleet), kill -9, recover (CI's
# service-smoke job).
smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# src gets the full rule set; tests get the scope-agnostic rules only
# (the tests tree legitimately uses exact float comparisons, terse
# signatures, and direct store mutation), minus the lint fixture packs
# which exist to be flagged.
LINT_TEST_RULES = R1,R3,R4,R6,R7,R11,R12,R13

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.cli --statistics src/repro
	PYTHONPATH=src $(PYTHON) -m repro.analysis.cli --statistics \
		--select $(LINT_TEST_RULES) --exclude analysis/fixtures tests

typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; run: pip install -e '.[lint]'"; \
	fi

check: lint typecheck test bench-selftest

# Regenerate the tracked solver baseline, both tiers (commit the result).
# Each invocation rewrites only its own tier in the JSON and preserves
# the other, so either line can also be rerun alone.
bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --output BENCH_solvers.json
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scale xl \
		--output BENCH_solvers.json

# Quick run compared against the committed baseline (the CI gate).
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
	find . -name __pycache__ -type d -exec rm -rf {} +
