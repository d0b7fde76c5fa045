"""Multi-program batches: :func:`repro.engine.slice_many_programs`.

A failing job names itself after its siblings settle (their work
still reaches the shared store), the first failure in input order
wins, one worker runs the jobs in the calling thread, and
largest-first scheduling keeps results in input order, byte-identical
to one-at-a-time sessions.

``repro.open_session`` memoizes sessions by source hash; every test
here builds :class:`SlicingSession` directly so nothing is memo-warm.
"""

import hashlib
import threading

import pytest

from repro.engine import ProgramSliceError, SlicingSession, slice_many_programs
from repro.fsa.serialize import automaton_to_payload
from repro.lang import pretty
from repro.store import SliceStore
from repro.workloads.generator import GenConfig, generate_program


def _source(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return pretty(program)


@pytest.mark.smoke
@pytest.mark.parametrize("max_workers", [1, 2])
def test_failing_job_names_itself_after_siblings_settle(max_workers, tmp_path):
    good = _source(7)
    bad = "int main() { this is not tinyc"
    cache = str(tmp_path / "cache")
    jobs = [
        (good, [("print", 0)]),
        (bad, [("print", 0)]),
        (_source(8), [("print", 0)]),
    ]
    with pytest.raises(ProgramSliceError) as info:
        slice_many_programs(jobs, max_workers=max_workers, cache_dir=cache)
    error = info.value
    assert error.job_index == 1
    digest = hashlib.sha256(bad.encode("utf-8")).hexdigest()[:12]
    assert error.source_digest == digest
    assert "job 1" in str(error) and digest in str(error)
    assert error.__cause__ is not None
    # The siblings settled: their work reached the shared store even
    # though the batch as a whole raised.
    survivor = SlicingSession(good, store=SliceStore(cache))
    assert survivor.stats["front_half_from_store"]


@pytest.mark.smoke
def test_first_failing_job_wins_in_input_order():
    jobs = [
        ("int main() { broken", [("print", 0)]),
        ("also broken(", [("print", 0)]),
    ]
    with pytest.raises(ProgramSliceError) as info:
        slice_many_programs(jobs)
    assert info.value.job_index == 0


@pytest.mark.smoke
def test_one_worker_runs_the_jobs_in_the_calling_thread(monkeypatch):
    threads = []
    slice_many = SlicingSession.slice_many

    def recording(session, *args, **kwargs):
        threads.append(threading.get_ident())
        return slice_many(session, *args, **kwargs)

    monkeypatch.setattr(SlicingSession, "slice_many", recording)
    jobs = [(_source(seed), [("print", 0)]) for seed in (7, 8)]
    batch = slice_many_programs(jobs, max_workers=1)
    assert [len(results) for results in batch] == [1, 1]
    assert threads == [threading.get_ident()] * 2


def test_largest_first_scheduling_preserves_result_order(tmp_path):
    """Jobs are submitted largest-source-first; results still come back
    in input order, byte-identical to one-at-a-time runs."""
    sources = sorted((_source(seed) for seed in range(9, 13)), key=len)
    jobs = [(source, [("print", 0), "prints"]) for source in sources]
    batch = slice_many_programs(jobs)
    for (source, criteria), results in zip(jobs, batch):
        solo = SlicingSession(source)
        for criterion, result in zip(criteria, results):
            assert automaton_to_payload(result.a6) == automaton_to_payload(
                solo.slice(criterion).a6
            ), (len(source), criterion)
