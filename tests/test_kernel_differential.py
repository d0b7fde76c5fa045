"""Reference-oracle differential testing of the runtime pipeline.

The engine answers every query on the int kernels: Prestar/Poststar on
:mod:`repro.pds.kernel`, MRD on :mod:`repro.fsa.intops`, one fused
batch pass over every cold criterion, even a lone one.  Its contract
is *byte identity* with the paper-faithful object pipeline that
:mod:`tests.reference_oracle` composes from the reference functions:
same ``a1``/``a6`` payloads, closure elements, version counts, and
rendered program text, for slices and for feature removals.  This
suite pins that contract on the two corpora the incremental layer is
pinned by:

* the 26-program differential corpus
  (:mod:`tests.test_differential_baselines`'s generator settings):
  a fused ``slice_many`` batch over several criteria, plus a feature
  removal on a sample;
* the mutation corpus (:mod:`tests.test_incremental_differential`'s
  generated single-procedure edits): a session driven through
  ``update_source`` must keep serving results identical to the
  reference pipeline on a cold build of the edited text — byte for
  byte after label-only edits, up to the opaque names of relocated
  automaton states after structural ones.

Counter pins ride along: a cold session compiles its PDS exactly once
(also when threads race into their first saturations, through a
session or straight into the kernel), a store-backed reopen whose
saturations are all adopted or loaded compiles nothing, and no engine
path reads or writes the store's legacy ``__pds__`` table, not even
when a store written by an earlier version holds an entry there.  A
meta-test pins the corpus sizes so neither lane can silently shrink.
"""

import random

import pytest

import repro
from repro.core.criteria import empty_stack_criterion
from repro.core.executable import executable_program
from repro.core.feature_removal import feature_seeds
from repro.engine import SlicingSession
from repro.engine.canonical import resolve_criterion_spec
from repro.fsa.serialize import automaton_to_payload, canonical_dfa
from repro.lang import parse, pretty
from repro.pds import encode_sdg
from repro.pds.kernel import prestar_many_csr
from repro.store import SliceStore
from repro.workloads.generator import GenConfig, generate_program
from repro.workloads.wc import scaled_wc_source

from tests.reference_oracle import reference_remove_feature, reference_slice
from tests.test_incremental_differential import MUTATORS

N_PROGRAMS = 26
MAX_CRITERIA = 4
MUTATION_SEEDS = range(10)


def _source(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return pretty(program)


def _criteria(session):
    prints = len(session.sdg.print_call_vertices())
    criteria = [("print", index) for index in range(min(prints, MAX_CRITERIA))]
    criteria.append("prints")
    return criteria


def _fields(result, rendered, exact):
    """What must agree.  ``exact=False`` compares the automata up to
    state names: a saturation that survived an edit by relocation keeps
    its opaque state names (a Poststar mid state names a pre-edit vertex
    id), so it matches a cold build in language, not in payload."""
    form = automaton_to_payload if exact else _canonical
    return (
        form(result.a1),
        form(result.a6),
        result.closure_elems(),
        result.version_counts(),
        rendered,
    )


def _canonical(automaton):
    return automaton_to_payload(canonical_dfa(automaton))


def _assert_matches_reference(session, source, criteria, exact=True, context=()):
    """Slice ``criteria`` through the session (one fused batch over the
    cold ones) and compare every field with the reference pipeline run on
    a cold build of ``source``."""
    _program, _info, sdg = repro.load_source(source)
    results = session.slice_many(criteria)
    for criterion, result in zip(criteria, results):
        _kind, vids = resolve_criterion_spec(sdg, criterion)
        expected = reference_slice(sdg, vids)
        rendered = pretty(session.executable(criterion).program)
        assert _fields(result, rendered, exact) == _fields(
            expected, pretty(executable_program(expected).program), exact
        ), context + (criterion,)


def _assert_removal_matches_reference(
    session, source, feature, exact=True, context=()
):
    _program, _info, sdg = repro.load_source(source)
    (removed,) = session.remove_features_many([feature])
    _raw, cleaned = session.remove_feature_cleaned(feature)
    expected = reference_remove_feature(sdg, feature_seeds(sdg, feature))
    rendered = pretty(executable_program(removed).program)
    assert _fields(removed, rendered, exact) == _fields(
        expected, pretty(executable_program(expected).program), exact
    ), context
    assert cleaned.result is removed, context


def test_corpus_is_large_enough():
    assert N_PROGRAMS >= 26
    assert len(MUTATION_CORPUS) >= 50


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_engine_matches_reference_on_differential_corpus(seed):
    source = _source(seed)
    session = SlicingSession(source)
    _assert_matches_reference(
        session, source, _criteria(session), context=("seed%d" % seed,)
    )
    stats = session.stats
    assert stats["fused_batches"] == 1
    assert stats["kernel_worklist_pops"] > 0


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
def test_feature_removal_matches_reference(seed):
    """Algorithm 2 (forward-cone Poststar + residual) on a sample of the
    corpus."""
    source = _source(seed)
    _assert_removal_matches_reference(
        SlicingSession(source), source, "print", context=("seed%d" % seed,)
    )


# -- the mutation lane -------------------------------------------------------------


def _mutation_corpus():
    corpus = []
    for seed in MUTATION_SEEDS:
        base = _source(seed)
        for mutator in MUTATORS:
            rng = random.Random(1000 * seed + MUTATORS.index(mutator))
            edited = mutator(parse(base), rng)
            if edited is None or edited == base:
                continue
            corpus.append(("seed%d-%s" % (seed, mutator.__name__[7:]), base, edited))
    return corpus


MUTATION_CORPUS = _mutation_corpus()


@pytest.mark.parametrize(
    "label,base,edited",
    MUTATION_CORPUS,
    ids=[entry[0] for entry in MUTATION_CORPUS],
)
def test_incremental_updates_match_reference(label, base, edited):
    session = SlicingSession(base)
    warm = _criteria(session)
    session.slice_many(warm)
    session.remove_features_many(["print"])
    fast = session.update_source(edited)["fast_path"]
    # Saturations relocated across a renumbering keep their state names.
    _assert_matches_reference(
        session, edited, _criteria(session), exact=fast, context=(label,)
    )
    _assert_removal_matches_reference(
        session, edited, "print", exact=fast, context=(label,)
    )


# -- compile economics -------------------------------------------------------------


def test_cold_session_compiles_its_pds_once():
    session = SlicingSession(scaled_wc_source(4))
    assert session.stats["kernel_compile_misses"] == 0  # nothing saturated yet
    criteria = [("print", i) for i in range(len(session.sdg.print_call_vertices()))]
    session.slice_many(criteria)
    session.slice("prints", contexts="empty")
    session.remove_features_many(["count_line", "count_word"])
    stats = session.stats
    assert stats["kernel_compile_misses"] == 1
    assert stats["kernel_compile_hits"] >= 3


def test_concurrent_first_saturations_compile_once(tmp_path):
    """Many threads racing into their first saturation on one cold
    session (each cold ``slice`` is its own batch of one; empty-contexts
    criteria need no shared Poststar to serialize behind) still compile
    the PDS exactly once."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    source = scaled_wc_source(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(4):
            store = SliceStore(str(tmp_path / str(attempt)))
            session = SlicingSession(source, store=store)
            prints = len(session.sdg.print_call_vertices())
            criteria = [("print", i) for i in range(prints)] * 2
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(session.slice, c, "empty") for c in criteria]
                for future in futures:
                    future.result(timeout=60)
            stats = session.stats
            assert stats["kernel_compile_misses"] == 1, attempt
    finally:
        sys.setswitchinterval(interval)


def test_racing_kernel_calls_compile_once():
    """Threads racing straight into the kernel's first saturation of one
    fresh PDS, each with its own stats sink, compile it once between
    them: the compile cache's miss path is locked and double-checked."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    threads = 8
    source = scaled_wc_source(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(5):
            _program, _info, sdg = repro.load_source(source)
            encoding = encode_sdg(sdg)  # a PDS no one compiled
            query = empty_stack_criterion(encoding, sorted(sdg.print_criterion()))
            start = threading.Barrier(threads)

            def saturate(sink):
                start.wait(timeout=60)
                prestar_many_csr(encoding.pds, [query], stats=sink)
                return sink

            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(saturate, {}) for _ in range(threads)]
                sinks = [future.result(timeout=60) for future in futures]
            misses = sum(sink.get("kernel_compile_misses", 0) for sink in sinks)
            hits = sum(sink.get("kernel_compile_hits", 0) for sink in sinks)
            assert (misses, hits) == (1, threads - 1), attempt
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("edit", ["none", "label"])
def test_adopting_reopen_compiles_nothing(edit, tmp_path):
    """A store-backed reopen whose saturations are all loaded (same
    text) or adopted by cross-revision discovery (a label-only edit)
    never compiles the PDS, and leaves no ``__pds__`` entry either
    way."""
    base = scaled_wc_source(4)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(base, store=SliceStore(cache))
    criteria = [("print", i) for i in range(len(writer.sdg.print_call_vertices()))]
    writer.slice_many(criteria)
    text = base if edit == "none" else base.replace("c % 6 == 0", "c % 6 == 5")
    assert edit == "none" or text != base

    store = SliceStore(cache)
    reader = SlicingSession(text, store=store)
    reader.slice_many(criteria)
    stats = reader.stats
    if edit == "label":
        assert stats["sats_adopted"] == len(criteria) + 1
    assert stats["kernel_worklist_pops"] == 0
    assert stats["kernel_compile_misses"] == 0
    assert stats["kernel_compile_hits"] == 0
    _assert_no_pds_traffic(store, edit)
    assert not store.has_pds(writer.source_hash)
    assert not store.has_pds(reader.source_hash)
    cold = SlicingSession(text)
    for criterion in criteria:
        assert pretty(reader.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), criterion


# -- the legacy __pds__ table ------------------------------------------------------


def _assert_no_pds_traffic(store, context):
    counters = store.stats()
    assert counters["pds_hits"] == counters["pds_misses"] == 0, context
    assert "pds" not in counters["tables"], context


def test_engine_never_touches_pds_table(tmp_path):
    """The kernel compiles in process: a cold store-backed batch, a
    structural-edit reopen and a same-text reopen answering a criterion
    the first process never saturated each compile once and neither
    read nor write ``__pds__``."""
    base = scaled_wc_source(32)
    edited = base.replace(
        "chars = chars + 1;", "chars = chars + 1;\n  chars = chars + 0;"
    )
    assert edited != base
    cache = str(tmp_path / "cache")
    store = SliceStore(cache)
    writer = SlicingSession(base, store=store)
    criteria = [("print", i) for i in range(len(writer.sdg.print_call_vertices()))]
    writer.slice_many(criteria)
    assert writer.stats["kernel_compile_misses"] == 1
    _assert_no_pds_traffic(store, "cold")

    for label, text, asked in (
        ("structural", edited, criteria),
        ("new-criterion", base, ["prints"]),
    ):
        store = SliceStore(cache)
        reader = SlicingSession(text, store=store)
        reader.slice_many(asked)
        assert reader.stats["kernel_compile_misses"] == 1, label
        assert reader.stats["kernel_worklist_pops"] > 0, label
        _assert_no_pds_traffic(store, label)


@pytest.mark.parametrize("entry", ["valid", "corrupt"])
def test_reopen_ignores_parent_pds_entry(entry, tmp_path):
    """A store written by an earlier version holds a compiled-PDS entry
    in ``__pds__``.  A reopen that has to saturate compiles once,
    answers with a storeless session's bytes, and never reads the
    entry: its bytes stay as they were (reading a corrupt entry would
    have deleted it)."""
    source = scaled_wc_source(4)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(source, store=SliceStore(cache))
    writer.slice(("print", 0))
    seeder = SliceStore(cache)
    # The earlier layout: ("cpds", version, location codes, location
    # strings, symbol codes, symbol strings, rule ints).
    seeder.put_pds(writer.source_hash, ("cpds", 1, (), (), (), (), ()))
    path = seeder._entry_path("__pds__", "pds", writer.source_hash)
    if entry == "corrupt":
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
    with open(path, "rb") as handle:
        before = handle.read()
    assert seeder.has_pds(writer.source_hash)  # the header is intact

    store = SliceStore(cache)
    reader = SlicingSession(source, store=store)
    result = reader.slice("prints")  # never saturated by the writer
    assert reader.stats["kernel_compile_misses"] == 1
    cold = SlicingSession(source)
    expected = cold.slice("prints")
    assert automaton_to_payload(result.a1) == automaton_to_payload(expected.a1)
    assert automaton_to_payload(result.a6) == automaton_to_payload(expected.a6)
    assert pretty(reader.executable("prints").program) == pretty(
        cold.executable("prints").program
    )
    counters = store.stats()
    assert counters["pds_hits"] == counters["pds_misses"] == 0
    assert counters["tables"].get("pds") == 1
    with open(path, "rb") as handle:
        assert handle.read() == before
