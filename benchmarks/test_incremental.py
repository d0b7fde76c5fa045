"""Incremental re-slicing benchmark: one-procedure edit on wc at scale.

The acceptance bar for the incremental layer: after a one-procedure
edit to the wc-scale program, re-slicing every report criterion
through ``update_source`` rebuilds a single PDG, keeps the PDS
encoding and both saturation kinds (the edit is label-only) — so it
runs no saturation and compiles nothing — and re-serves every slice
whose cone avoids the edited procedure from the memo.  The pins count
that work (deterministic); the wall times against a cold rebuild go
to :func:`bench_utils.record_bench` (measured ~8-10x on 2 cores).

A second measurement pins the structural-edit (slow) path: it reuses
every unchanged PDG, keeps every Prestar whose criterion the edit did
not change together with its renamed result, so re-slicing computes
only the edited category's print, and stays byte-identical to the
cold rebuild.
"""

import time

from bench_utils import record_bench
from repro.engine import SlicingSession
from repro.lang import pretty
from repro.workloads.wc import scaled_wc_source

# 28 counting categories: 31 report criteria.
BASE = scaled_wc_source(28)
#: label-only edit in one counting procedure (the fast path)
EDIT_CONSTANT = BASE.replace("cat_5 = cat_5 + 1", "cat_5 = cat_5 + 2")
#: structural edit in the same procedure (the slow path)
EDIT_STRUCTURAL = BASE.replace(
    "cat_5 = cat_5 + 1;", "cat_5 = cat_5 + 1;\n    cat_5 = cat_5 + 0;"
)


def _criteria(session):
    return [
        ("print", index)
        for index in range(len(session.sdg.print_call_vertices()))
    ]


def _check_identical(warm, cold, criteria):
    for criterion in criteria:
        assert pretty(warm.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), criterion


def test_incremental_reslice_speedup():
    warm = SlicingSession(BASE)
    criteria = _criteria(warm)
    assert len(criteria) >= 19
    warm.slice_many(criteria)

    t0 = time.perf_counter()
    cold = SlicingSession(EDIT_CONSTANT)
    cold.slice_many(criteria)
    cold_seconds = time.perf_counter() - t0

    before = warm.stats
    t0 = time.perf_counter()
    summary = warm.update_source(EDIT_CONSTANT)
    warm.slice_many(criteria)
    incremental_seconds = time.perf_counter() - t0
    after = warm.stats

    assert summary["fast_path"] is True
    assert summary["procs_rebuilt"] == 1
    assert summary["saturations_dropped"] == 0
    # Only the slices whose cone meets the edit are computed again, and
    # every one of them hits its kept saturation: no kernel work at all.
    assert after["slice_misses"] - before["slice_misses"] == summary["results_dropped"]
    assert after["kernel_worklist_pops"] == before["kernel_worklist_pops"]
    assert after["kernel_compile_misses"] == before["kernel_compile_misses"]
    assert cold.stats["kernel_worklist_pops"] > 0
    _check_identical(warm, cold, criteria)

    speedup = cold_seconds / incremental_seconds
    record_bench(
        "incremental_reslice",
        speedup=speedup,
        cold_seconds=cold_seconds,
        incremental_seconds=incremental_seconds,
    )
    print(
        "\none-procedure edit: cold %.3fs, incremental %.3fs -> %.1fx "
        "(%d/%d procs reused, %d results kept)"
        % (
            cold_seconds,
            incremental_seconds,
            speedup,
            summary["procs_reused"],
            summary["procs_reused"] + summary["procs_rebuilt"],
            summary["results_kept"],
        )
    )


def test_incremental_structural_edit_still_wins():
    """The slow path (dependence shape changed, so the PDS is
    re-encoded) still reuses every unchanged PDG, keeps the 30 results
    whose criteria the edit left alone, and the updated session agrees
    with the cold one exactly.  The front-half update and build times
    go to the benchmark trail."""
    warm = SlicingSession(BASE)
    criteria = _criteria(warm)
    warm.slice_many(criteria)

    t0 = time.perf_counter()
    cold = SlicingSession(EDIT_STRUCTURAL)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary = warm.update_source(EDIT_STRUCTURAL)
    update_seconds = time.perf_counter() - t0

    assert summary["fast_path"] is False
    assert summary["procs_rebuilt"] == 1
    assert summary["procs_reused"] == len(warm.sdg.procedures()) - 1
    assert (summary["results_kept"], summary["results_dropped"]) == (30, 1)
    cold.slice_many(criteria)
    before = warm.stats
    warm.slice_many(criteria)
    after = warm.stats
    # Only cat_5's print is answered again, in a fused pass of one.
    assert after["slice_misses"] - before["slice_misses"] == 1
    assert after["fused_criteria"] - before["fused_criteria"] == 1
    _check_identical(warm, cold, criteria)
    record_bench(
        "incremental_structural_edit",
        speedup=build_seconds / update_seconds,
        build_seconds=build_seconds,
        update_seconds=update_seconds,
    )
    print(
        "\nstructural edit: cold build %.3fs, incremental update %.3fs -> %.1fx"
        % (build_seconds, update_seconds, build_seconds / update_seconds)
    )
