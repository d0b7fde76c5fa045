"""Multi-program batch slicing: one worker per program.

:meth:`SlicingSession.slice_many` batches criteria *within* one
program on threads; this module parallelizes *across* programs — the
corpus-inspection shape (run every criterion of every file in a
project) and the one place process-level parallelism measured a win
(0.46-0.51 s on processes vs 0.58-0.72 s on threads for four generated
programs on 2 cores), because the per-program front half and
saturations are completely independent and the GIL is the only thing
serializing them on the thread backend.

``slice_many_programs`` takes ``(source, criteria)`` jobs and returns
one result list per job, in order.  With ``cache_dir`` set, every
worker — thread or process — reads and writes the shared persistent
:class:`repro.store.SliceStore`: a warm corpus batch is answered from
disk without any saturation work, and even a half-warm one loads each
program's ``Poststar(entry_main)`` artifact from the shared
``__sats__`` table instead of re-saturating it per worker.

Each worker is *batch-aware*: its program's cold criteria saturate in
one fused multi-criterion kernel pass (the
:meth:`~SlicingSession.slice_many` fused path), so a job costs one
front half plus one worklist run, not one per criterion.  Jobs are
submitted **largest first** — source length is the cheap proxy for
front-half size — so the most expensive program starts immediately
instead of landing on an almost-drained pool and stretching the
straggler tail; results still come back in input order.
"""

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.engine.session import SlicingSession


class ProgramSliceError(RuntimeError):
    """A job of :func:`slice_many_programs` failed.  Carries which one:
    ``job_index`` (the job's position in the input batch) and
    ``source_digest`` (sha256 prefix of its source text) identify the
    program without dumping corpus text into the traceback; the
    original exception rides along as ``__cause__``."""

    def __init__(self, job_index, source_digest, cause):
        super(ProgramSliceError, self).__init__(
            "slice_many_programs job %d (source sha256 %s) failed: %s"
            % (job_index, source_digest, cause)
        )
        self.job_index = job_index
        self.source_digest = source_digest


def slice_many_programs(
    jobs,
    contexts="reachable",
    backend="thread",
    max_workers=None,
    cache_dir=None,
):
    """Slice a batch of programs.

    Args:
        jobs: iterable of ``(source, criteria)`` pairs — TinyC source
            text plus the criterion specs to slice it by (any spec form
            :mod:`repro.engine.canonical` accepts, as long as it
            pickles for the process backend; ``("print", i)`` tuples
            and vertex-id tuples are the usual shapes).
        contexts: completes vertex criteria (``"reachable"``/``"empty"``).
        backend: ``"thread"`` or ``"process"`` — what kind of worker
            handles each program.
        max_workers: pool size (default: ``min(len(jobs), cpu_count)``).
        cache_dir: optional persistent-store directory shared by all
            workers.

    Returns:
        a list of lists of :class:`SpecializationResult`, one inner
        list per job, in input order.

    Raises:
        ProgramSliceError: when any job fails — after every job has
            settled (a failing program never cancels its siblings' work
            mid-flight), naming the failing job's index and source
            digest, with the worker's exception as ``__cause__``.
    """
    jobs = [(source, list(criteria)) for source, criteria in jobs]
    if not jobs:
        return []
    if backend not in ("thread", "process"):
        raise ValueError("backend must be 'thread' or 'process'")
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)
    # Largest front half first (source length is the proxy: front-half
    # cost tracks program size far better than criterion count).  With
    # more jobs than workers this kills the straggler tail — the big
    # program overlaps everything else instead of starting last.
    order = sorted(
        range(len(jobs)), key=lambda i: len(jobs[i][0]), reverse=True
    )
    pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
    futures = {}
    with pool_cls(max_workers=max_workers) as pool:
        for i in order:
            source, criteria = jobs[i]
            futures[i] = pool.submit(
                _slice_one_program, source, criteria, contexts, cache_dir
            )
        # Settle every job before raising: ``pool.shutdown`` inside the
        # context manager waits for all of them, so sibling results (and
        # their store writes) complete even when one program fails.
    results = []
    failure = None
    for i in range(len(jobs)):
        try:
            results.append(futures[i].result())
        except Exception as exc:
            results.append(None)
            if failure is None:
                digest = hashlib.sha256(
                    jobs[i][0].encode("utf-8")
                ).hexdigest()[:12]
                failure = ProgramSliceError(i, digest, exc)
                failure.__cause__ = exc
    if failure is not None:
        raise failure
    return results


def _slice_one_program(source, criteria, contexts, cache_dir):
    """One worker's whole job: build or store-load the session, then
    slice every criterion through the batch driver (the parallelism is
    across programs; within one program the fused saturation pass
    covers the whole criterion batch in a single worklist run)."""
    store = None
    if cache_dir is not None:
        from repro.store import SliceStore

        store = SliceStore(cache_dir)
    session = SlicingSession(source, store=store)
    return session.slice_many(criteria, contexts=contexts, max_workers=1)
