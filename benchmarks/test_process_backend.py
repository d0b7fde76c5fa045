"""Process-pool backend benchmark: true parallelism across programs.

The thread backend shares one GIL, so on a *multi-program* batch — N
independent front halves and saturations, the corpus-inspection shape —
process workers are the only way to use more than one core.  The
blocking check is equivalence: ``slice_many_programs`` answers
identically on ``backend="process"`` and ``backend="thread"``.  The
wall times of both go to :func:`bench_utils.record_bench` (measured on
2 cores: 0.46-0.51 s on processes vs 0.58-0.72 s on threads); they are
not asserted, so runner noise and core count cannot fail the suite.
"""

import time

import pytest

from bench_utils import record_bench
from repro.engine import slice_many_programs
from repro.lang import pretty
from repro.workloads.generator import GenConfig, generate_program

N_PROGRAMS = 4
N_CRITERIA = 4


@pytest.fixture(scope="module")
def batch():
    jobs = []
    for seed in range(N_PROGRAMS):
        program, _info = generate_program(
            GenConfig(seed=40 + seed, n_procs=8, main_prints=N_CRITERIA)
        )
        jobs.append(
            (pretty(program), [("print", index) for index in range(N_CRITERIA)])
        )
    return jobs


def _run(jobs, backend):
    t0 = time.perf_counter()
    results = slice_many_programs(jobs, backend=backend)
    return time.perf_counter() - t0, results


def test_process_backend_matches_thread_backend(batch):
    # Warm both pool machineries once (fork/import costs, suite state).
    _run(batch[:1], "thread")
    _run(batch[:1], "process")

    thread_seconds, threaded = _run(batch, "thread")
    process_seconds, processed = _run(batch, "process")
    assert len(threaded) == len(processed) == N_PROGRAMS
    for batch_a, batch_b in zip(threaded, processed):
        for a, b in zip(batch_a, batch_b):
            assert a.version_counts() == b.version_counts()
            assert a.closure_elems() == b.closure_elems()
    record_bench(
        "process_backend_programs",
        programs=N_PROGRAMS,
        criteria=N_CRITERIA,
        thread_seconds=thread_seconds,
        process_seconds=process_seconds,
        speedup=thread_seconds / process_seconds,
    )
