"""Persistent-store benchmark: warm answers vs cold computation.

The acceptance bar for the on-disk slice store: a *fresh* session
backed by a warm store answers a repeated ``slice_many`` batch without
saturating or compiling anything, because it unpickles the front half
and the per-criterion results instead of parsing, building the SDG,
encoding the PDS, and saturating.  The pin counts that work
(deterministic); the cold and warm wall times go to
:func:`bench_utils.record_bench` (measured ~16x on 2 cores).

A second check pins the semantics the speedup must not cost: the warm
results render byte-identically to the cold ones.
"""

import time

import pytest

from bench_utils import record_bench
from repro.core import executable_program
from repro.engine import SlicingSession
from repro.lang import pretty
from repro.store import SliceStore
from repro.workloads.generator import GenConfig, generate_program

N_CRITERIA = 8


@pytest.fixture(scope="module")
def benchmark_source():
    program, _info = generate_program(
        GenConfig(seed=11, n_procs=10, main_prints=N_CRITERIA)
    )
    return pretty(program)


def _run_batch(source, cache_dir):
    """One cold-or-warm measurement: build a session against the store
    and slice the whole batch; returns (seconds, session, results)."""
    t0 = time.perf_counter()
    session = SlicingSession(source, store=SliceStore(cache_dir))
    results = session.slice_many([("print", index) for index in range(N_CRITERIA)])
    return time.perf_counter() - t0, session, results


def test_warm_store_speedup(benchmark_source, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold_seconds, cold_session, cold_results = _run_batch(
        benchmark_source, cache_dir
    )
    assert cold_session.stats["front_half_from_store"] is False
    assert cold_session.stats["persist_misses"] == N_CRITERIA

    # Two warm runs, keep the faster: the measurement is "what a warm
    # store costs", not "what filesystem-cache luck costs".
    warm_seconds, warm_session, warm_results = _run_batch(
        benchmark_source, cache_dir
    )
    warm_again_seconds, _session, _results = _run_batch(benchmark_source, cache_dir)
    warm_seconds = min(warm_seconds, warm_again_seconds)

    stats = warm_session.stats
    assert stats["front_half_from_store"] is True
    assert stats["persist_hits"] == N_CRITERIA
    # The warm batch did no front-half or saturation work at all.
    assert stats["saturation_misses"] == 0 and stats["saturation_hits"] == 0
    assert stats["kernel_worklist_pops"] == 0
    assert stats["kernel_compile_misses"] == 0
    assert cold_session.stats["kernel_worklist_pops"] > 0

    speedup = cold_seconds / warm_seconds
    record_bench(
        "warm_store",
        speedup=speedup,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
    )
    print(
        "\nwarm store: cold %.3fs, warm %.3fs -> %.1fx"
        % (cold_seconds, warm_seconds, speedup)
    )

    # Byte-identical answers on both paths.
    for cold, warm in zip(cold_results, warm_results):
        assert pretty(executable_program(cold).program) == pretty(
            executable_program(warm).program
        )
