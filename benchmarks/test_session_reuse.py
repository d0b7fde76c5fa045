"""Session-reuse benchmark: N criteria against one program.

The acceptance bar for the batched engine: slicing 8 criteria of one
generator-suite program through a shared :class:`SlicingSession` pays
for parsing, SDG construction, PDS encoding and compilation, and the
``Poststar(entry_main)`` saturation exactly once, and saturates the 8
Prestars in one fused pass — where 8 independent ``slice_source``
calls pay for all of it 8 times.  The pin counts that work
(deterministic); both wall times go to :func:`bench_utils.record_bench`
(measured ~7x on 2 cores).

A second measurement demonstrates the memo: resubmitting the same batch
is pure cache lookups, orders of magnitude faster still.
"""

import time

from bench_utils import record_bench

import repro
from repro.engine import SlicingSession
from repro.lang import pretty
from repro.workloads.generator import GenConfig, generate_program

N_CRITERIA = 8


def _benchmark_source():
    program, _info = generate_program(
        GenConfig(seed=11, n_procs=8, main_prints=N_CRITERIA)
    )
    return pretty(program)


def test_session_reuse_speedup():
    source = _benchmark_source()
    # Warm both code paths once (imports, lazy module state).
    repro.slice_source(source, print_index=0)

    t0 = time.perf_counter()
    one_shot = [
        repro.slice_source(source, print_index=index)
        for index in range(N_CRITERIA)
    ]
    cold_seconds = time.perf_counter() - t0

    # The timed session path includes building the session itself.
    t0 = time.perf_counter()
    session = SlicingSession(source)
    results = session.slice_many(
        [("print", index) for index in range(N_CRITERIA)]
    )
    session_seconds = time.perf_counter() - t0

    assert len(results) == N_CRITERIA
    # Identical answers on both paths.
    for index in range(N_CRITERIA):
        assert (
            results[index].closure_elems()
            == one_shot[index].result.closure_elems()
        )
        assert (
            results[index].version_counts()
            == one_shot[index].result.version_counts()
        )

    # Eight front halves on the one-shot path, one in the session,
    # where one Poststar and one fused Prestar pass cover the batch.
    assert len({id(r.result.encoding) for r in one_shot}) == N_CRITERIA
    assert all(r.encoding is session.encoding for r in results)
    stats = session.stats
    assert stats["saturation_misses"] == N_CRITERIA + 1
    assert stats["fused_batches"] == 1
    assert stats["fused_criteria"] == N_CRITERIA
    assert stats["kernel_compile_misses"] == 1

    speedup = cold_seconds / session_seconds
    record_bench(
        "session_reuse",
        speedup=speedup,
        cold_seconds=cold_seconds,
        session_seconds=session_seconds,
    )
    print(
        "\n%d criteria: one-shot %.3fs, session %.3fs -> %.1fx"
        % (N_CRITERIA, cold_seconds, session_seconds, speedup)
    )


def test_session_resubmission_is_cache_speed():
    source = _benchmark_source()
    session = SlicingSession(source)
    criteria = [("print", index) for index in range(N_CRITERIA)]
    first = session.slice_many(criteria)

    t0 = time.perf_counter()
    second = session.slice_many(criteria)
    resubmit_seconds = time.perf_counter() - t0

    assert all(a is b for a, b in zip(first, second))
    assert session.stats["slice_hits"] >= N_CRITERIA
    assert resubmit_seconds < 0.5  # dictionary lookups, not saturation
