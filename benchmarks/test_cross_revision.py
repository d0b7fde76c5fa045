"""Cross-revision reopen benchmark: cold process, label-edited source.

The acceptance bar for filing saturations by pushdown system: a
*brand-new process* opening a one-procedure label edit of a program
whose previous revision filed its artifacts must answer the report
criteria without saturating anything — with no live donor session and
no ``update_source`` call.  The win composes two store paths: the
``__procs__`` partial front-half hit rebuilds only the edited
procedure's PDG, and the edited revision's layout signature is the
previous revision's (a label edit keeps the pushdown system), so its
one saturation index already names the Poststar and every Prestar,
and each answer loads only the saturations it uses.  The pin counts
that work (deterministic); the wall times of the cold and the reopening
session go to :func:`bench_utils.record_bench` (about 1.1x on 2 cores,
CPython 3.11.7: at this size the front half, not saturation, dominates
both).

Best-of-N against a pristine copy of the donor store per run (the
``test_saturation_store.py`` idiom), so each measured open really
pays the reopen path — a reopen files its own results under the new
hash, which would otherwise turn later runs into warm same-text
reopens.

Byte-identical output against the storeless cold session is asserted
over *every* criterion, so a fast-but-wrong path can never pass.
"""

import shutil
import time

from bench_utils import record_bench
from repro.engine import SlicingSession
from repro.lang import pretty
from repro.store import SliceStore
from repro.workloads.wc import scaled_wc_source

RUNS = 3

BASE = scaled_wc_source(28)
#: label-only edit in one counting procedure: dependence shape kept,
#: so every saturation artifact survives the revision hop
EDIT = BASE.replace("cat_5 = cat_5 + 1", "cat_5 = cat_5 + 2")


def _criteria(session):
    return [
        ("print", index)
        for index in range(len(session.sdg.print_call_vertices()))
    ]


def test_cold_process_on_edited_source_speedup(tmp_path):
    master = str(tmp_path / "master")
    writer = SlicingSession(BASE, store=SliceStore(master))
    criteria = _criteria(writer)
    assert len(criteria) >= 19
    writer.slice_many(criteria)
    del writer  # the donor process is gone; only the store remains

    # Time the service-latency shape: open the edited text, answer the
    # first few criteria.  (The back-half closures are identical work
    # on both paths; the pin is about the front half + saturations.
    # Correctness below is checked over *every* criterion.)
    measured = criteria[: max(4, len(criteria) // 5)]

    cold_seconds = None
    for _run in range(RUNS):
        t0 = time.perf_counter()
        cold = SlicingSession(EDIT)
        cold.slice_many(measured)
        elapsed = time.perf_counter() - t0
        if cold_seconds is None or elapsed < cold_seconds:
            cold_seconds = elapsed

    discovered_seconds = None
    for run in range(RUNS):
        cache = str(tmp_path / ("discover-run%d" % run))
        shutil.copytree(master, cache)
        t0 = time.perf_counter()
        reader = SlicingSession(EDIT, store=SliceStore(cache))
        reader.slice_many(measured)
        elapsed = time.perf_counter() - t0
        if discovered_seconds is None or elapsed < discovered_seconds:
            discovered_seconds = elapsed

    stats = reader.stats
    # The composition the pin is about: all but the edited procedure's
    # PDG came from __procs__, and the measured criteria's saturations
    # were loaded from the previous revision's index, not recomputed.
    assert stats["front_half_from_store"] is False
    assert stats["front_half_parts_hits"] == stats["front_half_parts_total"] - 1
    assert stats["sat_persist_hits"] == len(measured) + 1  # Prestars + Poststar
    assert stats["sat_persist_misses"] == 0
    # Nothing re-saturated, so the PDS was never even compiled.
    assert stats["kernel_worklist_pops"] == 0
    assert stats["kernel_compile_misses"] == 0
    assert cold.stats["kernel_worklist_pops"] > 0

    cold.slice_many(criteria)
    reader.slice_many(criteria)
    for criterion in criteria:
        assert pretty(reader.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), criterion

    speedup = cold_seconds / discovered_seconds
    record_bench(
        "cross_revision_discovery",
        speedup=speedup,
        cold_seconds=cold_seconds,
        discovered_seconds=discovered_seconds,
    )
    print(
        "\ncold process on one-procedure edit: cold %.3fs, reopened "
        "%.3fs -> %.1fx (%d parts hit, %d saturations loaded)"
        % (
            cold_seconds,
            discovered_seconds,
            speedup,
            stats["front_half_parts_hits"],
            stats["sat_persist_hits"],
        )
    )
