"""Process-pool benchmark: true parallelism across programs.

On a *multi-program* batch — N independent front halves and
saturations, the corpus-inspection shape — worker processes are the
only way to use more than one core (threads share one GIL).  The
blocking check is equivalence: ``slice_many_programs`` answers
identically on a process pool (``max_workers=2``) and with one worker
running the jobs in the calling process (``max_workers=1``).  The wall
times of both go to :func:`bench_utils.record_bench` (measured on 2
cores, medians of 7: 0.55 s on the pool vs 0.64 s in process); they
are not asserted, so runner noise and core count cannot fail the
suite.
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


def _run(jobs, max_workers):
    t0 = time.perf_counter()
    results = slice_many_programs(jobs, max_workers=max_workers)
    return time.perf_counter() - t0, results


def test_process_pool_matches_in_process_worker(batch):
    # Warm both paths once (fork/import costs, suite state).
    _run(batch[:1], 1)
    _run(batch[:2], 2)

    in_process_seconds, in_process = _run(batch, 1)
    process_seconds, processed = _run(batch, 2)
    assert len(in_process) == len(processed) == N_PROGRAMS
    for batch_a, batch_b in zip(in_process, processed):
        for a, b in zip(batch_a, batch_b):
            assert a.version_counts() == b.version_counts()
            assert a.closure_elems() == b.closure_elems()
    record_bench(
        "process_backend_programs",
        programs=N_PROGRAMS,
        criteria=N_CRITERIA,
        in_process_seconds=in_process_seconds,
        process_seconds=process_seconds,
        speedup=in_process_seconds / process_seconds,
    )
