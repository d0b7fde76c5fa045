"""Shared helpers and measurement records for the experiment benchmarks.

By default the benchmarks run on ``QUICK_SUITE`` with a per-program
slice cap so a full ``pytest benchmarks/ --benchmark-only`` finishes in
minutes.  Set ``REPRO_BENCH_FULL=1`` to reproduce the experiments over
the entire 12-program suite with the paper's per-program slice counts
(closer to the §8 runs; takes much longer).

``suite_results`` computes, once per session, everything the Fig. 18-22
tables need: per-slice polyvariant results (with instrumentation),
monovariant (Binkley) results, and Weiser results.
"""

import os
import time
import tracemalloc

from repro.core import binkley_slice, specialization_slice, weiser_slice
from repro.workloads.suite import QUICK_SUITE, SUITE, load_suite

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SUITE_NAMES = SUITE if FULL else QUICK_SUITE
MAX_SLICES = None if FULL else 3

#: machine-readable measurements accumulated across the benchmark run;
#: when ``REPRO_BENCH_JSON`` names a directory, the session-finish hook
#: in ``conftest.py`` dumps these to the next free ``BENCH_<n>.json``
#: there, so the perf trajectory is tracked across PRs.
BENCH_RECORDS = []


def run_metadata():
    """The environment fields every benchmark record carries, so the
    ``BENCH_<n>.json`` trail is comparable across machines and PRs:
    cpu count and python version."""
    import platform

    return {"cpu_count": os.cpu_count(), "python": platform.python_version()}


def record_bench(name, **fields):
    """File one benchmark's measurements (speedups, wall times, sizes —
    whatever the benchmark pins) for the JSON emitter, stamped with
    :func:`run_metadata` (explicit fields win).  A no-op beyond an
    append: benchmarks stay runnable without the emitter."""
    record = {"benchmark": name}
    record.update(run_metadata())
    record.update(fields)
    BENCH_RECORDS.append(record)


def criterion_automaton(entry, criterion):
    """A suite criterion is a list of (vertex, call-stack) configuration
    pairs (the paper's bug-site style); build the query automaton."""
    from repro.core.criteria import configs_criterion
    from repro.pds import encode_sdg

    return configs_criterion(encode_sdg(entry.sdg), criterion)


class SliceRecord(object):
    """All measurements for one (program, criterion) pair.

    Following §8.2.2, the monovariant baseline starts from the same
    element set as Alg. 1's first step (the Elems of the stack-
    configuration slice), then runs Binkley's mismatch repair.
    """

    def __init__(self, entry, criterion):
        query = criterion_automaton(entry, criterion)
        t0 = time.perf_counter()
        tracemalloc.start()
        self.poly = specialization_slice(entry.sdg, query)
        _current, poly_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.poly_seconds = time.perf_counter() - t0
        self.poly_peak_bytes = poly_peak

        closure = self.poly.closure_elems()
        # Timing/memory: run the full monovariant algorithm (its own
        # closure-slice phase included) so Fig. 21/22 compare complete
        # pipelines; sizes: seed from the same element set as Alg. 1
        # (§8.2.2) so Fig. 19/20 compare like with like.
        criterion_vertices = {vid for vid, _ctx in criterion}
        t1 = time.perf_counter()
        tracemalloc.start()
        binkley_slice(entry.sdg, criterion_vertices)
        _current, mono_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.mono_seconds = time.perf_counter() - t1
        self.mono_peak_bytes = mono_peak
        self.mono = binkley_slice(entry.sdg, closure_set=closure)

        self.weiser = weiser_slice(entry.sdg, closure)

        self.closure_size = len(closure)
        self.poly_size = self.poly.sdg.vertex_count()
        self.mono_size = len(self.mono.slice_set)

    def poly_increase_percent(self):
        if not self.closure_size:
            return 0.0
        return 100.0 * (self.poly_size - self.closure_size) / self.closure_size

    def mono_increase_percent(self):
        return self.mono.extra_percent()


def geometric_mean(values):
    cleaned = [max(value, 1e-12) for value in values]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))


def print_table(title, headers, rows):
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print()
    print("=" * len(line))
    print(title)
    print("=" * len(line))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print()
