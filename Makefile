# Developer entry points.  All targets run from the repo root; the
# package is imported from src/ without installation.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke test-economics test-store bench-smoke bench-full bench-selftest lint

# The tier-1 gate: the full test + benchmark suite.
test:
	$(PYTHON) -m pytest -x -q

# The fast subset (seconds, not minutes) for edit-run loops.
smoke:
	$(PYTHON) -m pytest -m smoke -q

# The store suites under a deliberately tiny size cap (1 MB): every
# session run in these tests fights the evictor, exercising the
# cost-tier ordering and the degraded paths CI's economics lane pins.
test-economics:
	REPRO_CACHE_MAX_BYTES=1000000 $(PYTHON) -m pytest tests/test_store.py tests/test_cache_economics.py -q

# The store-backed suites, whole (not only their smoke-marked tests),
# at the default cache cap (an empty REPRO_CACHE_MAX_BYTES means the
# default): about 30 s on 2 cores.  The others run in other CI jobs:
# tests/test_incremental_differential.py and
# tests/test_kernel_differential.py in the differential job, and
# tests/test_cli.py, smoke-marked as a whole, in the smoke job.
STORE_SUITES = tests/test_store.py tests/test_cache_economics.py \
	tests/test_artifacts.py tests/test_fused_saturation.py \
	tests/test_differential_baselines.py tests/test_parallel.py \
	benchmarks/test_store_warm.py benchmarks/test_saturation_store.py \
	benchmarks/test_cross_revision.py
test-store:
	REPRO_CACHE_MAX_BYTES= $(PYTHON) -m pytest $(STORE_SUITES) -q

# Quick benchmark pass: QUICK_SUITE with capped slice counts.
# Both bench targets leave a machine-readable BENCH_<n>.json in the
# repo root (measured speedups + wall times per benchmark).
bench-smoke:
	REPRO_BENCH_JSON=. $(PYTHON) -m pytest benchmarks -x -q

# The full §8 reproduction (much slower).
bench-full:
	REPRO_BENCH_FULL=1 REPRO_BENCH_JSON=. $(PYTHON) -m pytest benchmarks -x -q

# The repo benchmark's self-test (perfbench/selftest.py, about 30 s on
# 2 cores): every workload at tiny size, traced and untraced, prints
# the metrics BENCHMARK.json declares.  The tracer wraps engine
# functions and methods by name, so this fails when an engine change
# drops or renames one of them.
bench-selftest:
	$(PYTHON) perfbench/selftest.py

# No third-party linters in the container: syntax-check everything.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m pytest --collect-only -q >/dev/null
