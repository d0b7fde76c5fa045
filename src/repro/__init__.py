"""Specialization slicing (Aung, Horwitz, Joiner, Reps; PLDI 2014).

A from-scratch reproduction: TinyC front end, SDG construction,
pushdown-system machinery, and the polyvariant specialization-slicing
algorithm with all of the paper's companions (feature removal,
function-pointer support, baselines, binding-time analysis).

The subpackages expose the full API; this module adds the one-call
conveniences most users want:

    import repro
    sliced = repro.slice_source(source)      # polyvariant slice, ready to run
    print(repro.pretty(sliced.program))

Sessions — many criteria, one program
-------------------------------------

``slice_source`` re-runs the whole pipeline per call.  When a program is
sliced repeatedly (a slicing service, the differential-testing harness,
the §8 experiments), open a :class:`repro.engine.SlicingSession`
instead:

    session = repro.open_session(source)
    results = session.slice_many([("print", 0), ("print", 1), vid_set])
    runnable = session.executable(("print", 0))
    session.stats                            # cache hit/miss counters

The session builds the parse tree, SDG, and PDS encoding once, saturates
``Poststar(entry_main)`` once, and memoizes Prestar saturations and
slice results per *canonicalized* criterion — the cache key is the
sorted criterion vertex tuple plus the contexts mode (or the structural
automaton key / sorted configuration set for the other criterion forms;
see :mod:`repro.engine.canonical`).  ``open_session`` itself caches
sessions by a hash of the source text, so a mutated source always gets
a fresh session and can never observe stale SDG or automaton results.
``slice_many`` saturates a batch's cold criteria — however many — in
one fused kernel pass, then answers each criterion in turn against the
shared read-only encoding.  The batch CLI::

    python -m repro slice-batch prog.tc --prints all

The persistent store — across processes and restarts
----------------------------------------------------

Pass ``cache_dir`` to keep the cache on disk (see :mod:`repro.store`):

    session = repro.open_session(source, cache_dir="~/.cache/repro")

A warm store hands a fresh process the parsed program, SDG, and PDS
encoding by unpickling one file, and answers repeated criteria without
any saturation work; entries are checksummed, versioned, written
atomically, and LRU-capped.  ``repro cache stats`` / ``repro cache
clear`` manage it from the command line.

Incremental re-slicing — across source edits
--------------------------------------------

Editing the source no longer means rebuilding.  Sessions update in
place::

    session = repro.open_session(source)
    session.slice_many(criteria)
    session.update_source(edited_source)     # diff, rebuild, re-stitch
    session.slice_many(criteria)             # mostly cache hits

``update_source`` content-addresses every procedure (normalized lexeme
stream + computed interface; :mod:`repro.engine.incremental`), rebuilds
only the changed PDGs, and invalidates exactly the memoized saturations
whose automata touch a changed procedure's PDS rules.  Results are
byte-identical to a cold session on the edited text — pinned by the
mutation-differential suite.  The store keeps a content-addressed
per-procedure table, so even a fresh process assembles the front half
of an edited program from the unchanged procedures' parts.  CLI:
``repro slice-batch FILE --reuse-from PREV_FILE``.
"""

__version__ = "1.3.0"

import threading

from repro.lang import check, parse, pretty
from repro.lang.interp import run_program


def load_source(source):
    """Parse + check + build the SDG for TinyC ``source``; lowers
    indirect calls if present.  Returns ``(program, info, sdg)``."""
    from repro.engine.incremental import front_end
    from repro.sdg import build_sdg

    program, info = front_end(source)
    sdg = build_sdg(program, info)
    return program, info, sdg


_session_lock = threading.Lock()
_session_cache = {}  # (sha256(source), cache dir) -> SlicingSession, insertion-ordered
_SESSION_CACHE_MAX = 32


def open_session(source, cache_dir=None):
    """Open (or return the cached) :class:`repro.engine.SlicingSession`
    for ``source``.

    Sessions are keyed by a hash of the source *text*: re-opening after
    mutating the source yields a fresh session (no stale SDG/automaton
    results), while re-opening with identical text reuses the loaded
    program, SDG, encoding, and every memoized saturation and slice.
    The cache keeps the most recent ``32`` programs (FIFO eviction).

    With ``cache_dir``, the session is backed by the persistent
    :class:`repro.store.SliceStore` there: the front half is loaded
    from disk when warm and slice results survive process restarts."""
    from repro.engine import SlicingSession
    from repro.store import SliceStore, source_hash

    store = SliceStore(cache_dir) if cache_dir is not None else None
    # One hash implementation for the in-memory session cache and the
    # on-disk store (repro.store.source_hash), so the two layers can
    # never disagree about which sources are "the same program".
    key = (source_hash(source), store.cache_dir if store is not None else None)
    with _session_lock:
        session = _session_cache.get(key)
    if session is not None:
        return session
    session = SlicingSession(source, store=store)
    with _session_lock:
        # A concurrent opener may have won the race; keep its session so
        # callers converge on one memo table.
        existing = _session_cache.get(key)
        if existing is not None:
            return existing
        while len(_session_cache) >= _SESSION_CACHE_MAX:
            _session_cache.pop(next(iter(_session_cache)))
        _session_cache[key] = session
    return session


def _session_rekeyed(session, old_hash):
    """Hook called by :meth:`SlicingSession.update_source`: move the
    session's registry entries from its old source hash to the new one,
    so ``open_session(new_text)`` finds the updated session instead of
    rebuilding from scratch."""
    with _session_lock:
        for key in [k for k in _session_cache if _session_cache[k] is session]:
            _session_cache.pop(key)
            _session_cache[(session.source_hash,) + key[1:]] = session


def slice_source(source, print_index=None, contexts="reachable"):
    """One-call specialization slicing.

    Args:
        source: TinyC source text.
        print_index: slice w.r.t. the N-th print statement (all prints
            if None).
        contexts: ``"reachable"`` or ``"empty"``.

    Returns:
        an :class:`repro.core.executable.ExecutableSlice` with the
        runnable slice and a ``result`` attribute holding the full
        :class:`repro.core.SpecializationResult`.
    """
    from repro.core import executable_program, specialization_slice
    from repro.engine.canonical import resolve_criterion_spec

    _program, _info, sdg = load_source(source)
    # ("print", None) is every print; a bad index raises ValueError.
    _kind, criterion = resolve_criterion_spec(sdg, ("print", print_index))
    result = specialization_slice(sdg, criterion, contexts=contexts)
    executable = executable_program(result)
    executable.result = result
    return executable


def remove_feature_source(source, feature_text, clean=True):
    """One-call feature removal: delete everything influenced by the
    statements whose label contains ``feature_text``; optionally run
    the §7 useless-code-elimination post-pass.

    Routed through :func:`open_session`, so both the removal and the
    cleanup pass are memoized (and persisted, when the session has a
    store) — repeating a removal is a cache lookup.

    Returns an :class:`ExecutableSlice`.
    """
    from repro.core.executable import executable_program

    session = open_session(source)
    if clean:
        _raw, cleaned = session.remove_feature_cleaned(feature_text)
        return cleaned
    result = session.remove_feature(feature_text)
    executable = executable_program(result)
    executable.result = result
    return executable


__all__ = [
    "__version__",
    "check",
    "load_source",
    "open_session",
    "parse",
    "pretty",
    "remove_feature_source",
    "run_program",
    "slice_source",
]
