# Developer entry points.  `make check` is the pre-commit gate: the
# tier-1 test suite plus incremental-cached reprolint over src/ (warm
# lint runs are ~ms), nonzero exit on any failure or unsuppressed
# finding.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-cold test bench bench-smoke

check: test lint

lint:
	$(PYTHON) -m repro.cli lint --cache src

lint-cold:  ## full re-analysis, ignoring and not writing the cache
	$(PYTHON) -m repro.cli lint --no-cache src

test:
	$(PYTHON) -m pytest -x -q --durations=10

bench:  ## the end-to-end benchmark: all five workloads, ~15 s each
	python3 benchmarks/e2e/run.py

bench-smoke:
	$(PYTHON) -m pytest -q -m bench_smoke
