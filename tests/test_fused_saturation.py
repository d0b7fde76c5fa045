"""Fused multi-criterion saturation: byte identity with single-query runs.

Each saturation direction has one worklist loop,
:func:`repro.pds.kernel.prestar_many_csr` /
:func:`repro.pds.kernel.poststar_many_csr`; it promises that one pass
over criterion-membership bitsets projects, per criterion, an automaton
*payload-identical* to that criterion's own saturation by the reference
worklists of :mod:`repro.pds.reference` — and the engine's fused batch
path promises the same for everything downstream: slices, closure
elements, version counts, saturation artifacts and their ``__sats__``
digests.  This suite pins both layers:

* kernel differential against the reference worklists over the
  26-program corpus (the same generator settings as
  :mod:`tests.test_kernel_differential`), both contexts modes, both
  directions, trimmed and untrimmed, sharing one query-automaton object
  per criterion so the comparison is exact;
* properties: a singleton batch (what ``prestar``/``poststar`` run) and
  a heterogeneous batch match the reference too, batch order never
  leaks into any projection;
* session differential: a fused ``slice_many`` batch vs the same
  criteria sliced one at a time (``slice`` never fuses), byte-identical
  in results and persisted ``__sats__`` bytes; a lone cold criterion
  is a batch of one; warm stores skip the fused pass entirely;
  ``remove_features_many`` matches per-feature ``remove_feature``.

``repro.open_session`` memoizes sessions by source hash; every test
that needs *independent* sessions builds :class:`SlicingSession`
directly.
"""

import os
import random

import pytest

from repro.engine import SlicingSession
from repro.engine.canonical import stable_key_digest
from repro.fsa.serialize import automaton_to_payload
from repro.lang import pretty
from repro.pds import poststar, poststar_many, prestar, prestar_many
from repro.pds.kernel import (
    _COMPILED,
    poststar_csr,
    poststar_many_csr,
    prestar_csr,
    prestar_many_csr,
)
from repro.pds.reference import poststar_reference, prestar_reference
from repro.workloads.generator import GenConfig, generate_program
from repro.workloads.wc import scaled_wc_source

N_PROGRAMS = 26
MAX_CRITERIA = 4


def _source(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return pretty(program)


def _criteria(session):
    prints = len(session.sdg.print_call_vertices())
    criteria = [("print", index) for index in range(min(prints, MAX_CRITERIA))]
    criteria.append("prints")
    return criteria


def _queries(session, contexts):
    """One query automaton *object* per criterion, shared between the
    fused and the sequential runs under comparison."""
    from repro.engine.canonical import resolve_criterion_spec

    automata = []
    for criterion in _criteria(session):
        kind, payload = resolve_criterion_spec(session.sdg, criterion)
        automata.append(session._query_automaton(kind, payload, contexts))
    return automata


def _payloads(automata):
    return [automaton_to_payload(a) for a in automata]


def _sat_digests(session):
    digests = {}
    with session._lock:
        futures = dict(session._futures)
    for (cache_kind, key), future in futures.items():
        if cache_kind != "saturation" or not future.done():
            continue
        artifact = future.result()
        digests[stable_key_digest(key)] = (
            artifact.kind,
            automaton_to_payload(artifact.automaton),
            artifact.footprint,
        )
    return digests


# -- kernel-level differential -----------------------------------------------------


def _reference_payloads(saturation, pds, automata, trim):
    """Each query saturated on its own by a reference worklist."""
    return _payloads([saturation(pds, a, trim=trim) for a in automata])


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
@pytest.mark.parametrize("contexts", ["reachable", "empty"])
def test_fused_kernels_match_sequential_on_corpus(seed, contexts):
    """The one loop per direction, run over each program's whole
    criterion batch, against the reference worklists run on one
    criterion at a time."""
    session = SlicingSession(_source(seed))
    pds = session.encoding.pds
    automata = _queries(session, contexts)
    for trim in (False, True):
        tag = (seed, contexts, trim)
        assert _payloads(prestar_many_csr(pds, automata, trim=trim)) == (
            _reference_payloads(prestar_reference, pds, automata, trim)
        ), tag
        assert _payloads(poststar_many_csr(pds, automata, trim=trim)) == (
            _reference_payloads(poststar_reference, pds, automata, trim)
        ), tag


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
def test_fused_kernels_match_reference_worklists(seed):
    """A heterogeneous batch — both contexts modes' queries for the same
    criteria, which share control locations and the final state but
    differ everywhere else, plus one automaton submitted twice — still
    projects every member to its own reference saturation."""
    session = SlicingSession(_source(seed))
    pds = session.encoding.pds
    automata = _queries(session, "reachable") + _queries(session, "empty")
    automata.append(automata[0])
    assert _payloads(prestar_many_csr(pds, automata, trim=True)) == (
        _reference_payloads(prestar_reference, pds, automata, True)
    )
    assert _payloads(poststar_many_csr(pds, automata, trim=True)) == (
        _reference_payloads(poststar_reference, pds, automata, True)
    )


@pytest.mark.smoke
@pytest.mark.parametrize("seed", range(6))
def test_singleton_batch_is_the_plain_saturation(seed):
    """A batch of one — what the single-query entry points
    ``prestar``/``poststar`` run for every per-criterion caller — is the
    reference saturation of that query."""
    session = SlicingSession(_source(seed))
    pds = session.encoding.pds
    for automaton in _queries(session, "reachable"):
        assert automaton_to_payload(prestar(pds, automaton, trim=True)) == (
            automaton_to_payload(prestar_reference(pds, automaton, trim=True))
        )
        assert automaton_to_payload(poststar(pds, automaton, trim=True)) == (
            automaton_to_payload(poststar_reference(pds, automaton, trim=True))
        )


@pytest.mark.parametrize("seed", range(8))
def test_batch_order_never_leaks(seed):
    """Permutation invariance: each criterion's projection depends only
    on its own automaton, never on its neighbours or their order."""
    session = SlicingSession(_source(seed))
    pds = session.encoding.pds
    automata = _queries(session, "reachable")
    reference = _payloads(prestar_many_csr(pds, automata, trim=True))
    order = list(range(len(automata)))
    rng = random.Random(seed)
    for _ in range(3):
        rng.shuffle(order)
        shuffled = prestar_many_csr(pds, [automata[i] for i in order], trim=True)
        assert [automaton_to_payload(a) for a in shuffled] == [
            reference[i] for i in order
        ], order
    reference = _payloads(poststar_many_csr(pds, automata, trim=True))
    rng.shuffle(order)
    shuffled = poststar_many_csr(pds, [automata[i] for i in order], trim=True)
    assert [automaton_to_payload(a) for a in shuffled] == [
        reference[i] for i in order
    ], order


@pytest.mark.smoke
def test_public_names_are_the_int_kernels():
    assert prestar is prestar_csr and prestar_many is prestar_many_csr
    assert poststar is poststar_csr and poststar_many is poststar_many_csr


@pytest.mark.smoke
def test_empty_batch():
    session = SlicingSession(_source(0))
    pds = session.encoding.pds
    assert prestar_many_csr(pds, []) == []
    assert poststar_many_csr(pds, []) == []


# -- session-level differential ----------------------------------------------------


def _one_at_a_time(session, criteria, contexts="reachable"):
    """The per-criterion path: ``slice`` never fuses."""
    return [session.slice(criterion, contexts=contexts) for criterion in criteria]


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
@pytest.mark.parametrize("contexts", ["reachable", "empty"])
def test_fused_sessions_byte_identical(seed, contexts):
    source = _source(seed)
    fused = SlicingSession(source)
    plain = SlicingSession(source)
    criteria = _criteria(fused)
    if contexts == "empty":
        # Multi-vertex criteria are not generally readable out in
        # empty-contexts mode (a pre-existing limitation, fused or not);
        # the per-print criteria are.
        criteria = [c for c in criteria if c != "prints"]
    fused_results = fused.slice_many(criteria, contexts=contexts)
    plain_results = _one_at_a_time(plain, criteria, contexts)
    for criterion, f, p in zip(criteria, fused_results, plain_results):
        tag = (seed, contexts, criterion)
        assert automaton_to_payload(f.a1) == automaton_to_payload(p.a1), tag
        assert automaton_to_payload(f.a6) == automaton_to_payload(p.a6), tag
        assert f.closure_elems() == p.closure_elems(), tag
        assert f.version_counts() == p.version_counts(), tag
        assert f.footprint == p.footprint, tag
    assert _sat_digests(fused) == _sat_digests(plain), (seed, contexts)
    # The batch really fused; the one-at-a-time session really did not.
    assert fused.stats["fused_batches"] == 1
    assert fused.stats["fused_criteria"] == len(set(criteria))
    assert plain.stats["fused_batches"] == 0
    # Saturation-miss accounting is identical: one per distinct cold
    # saturation either way.
    assert (
        fused.stats["saturation_misses"] == plain.stats["saturation_misses"]
    ), (seed, contexts)


def _sat_bytes(root):
    """The saturation artifact files under a store root, by name."""
    found = {}
    sats = os.path.join(root, "__sats__")
    for name in sorted(os.listdir(sats)):
        if not name.endswith(".slc") or name.startswith("idx-"):
            continue
        with open(os.path.join(sats, name), "rb") as handle:
            found[name] = handle.read()
    return found


@pytest.mark.smoke
def test_lone_cold_criterion_is_a_batch_of_one(tmp_path):
    """No cold-count threshold: a batch with one cold criterion runs one
    fused pass, with results and persisted ``__sats__`` bytes identical
    to ``slice``'s; re-asking next to a new criterion fuses just the new
    one."""
    from repro.store import SliceStore

    source = _source(2)
    single = SlicingSession(source, store=SliceStore(str(tmp_path / "fused")))
    plain = SlicingSession(source, store=SliceStore(str(tmp_path / "plain")))
    (fused_result,) = single.slice_many([("print", 0)])
    plain_result = plain.slice(("print", 0))
    assert single.stats["fused_batches"] == 1
    assert single.stats["fused_criteria"] == 1
    assert plain.stats["fused_batches"] == 0
    assert automaton_to_payload(fused_result.a6) == automaton_to_payload(
        plain_result.a6
    )
    assert fused_result.closure_elems() == plain_result.closure_elems()
    single.slice_many([("print", 0), "prints", ("print", 0)])
    plain.slice("prints")
    assert single.stats["fused_batches"] == 2
    assert single.stats["fused_criteria"] == 2
    assert _sat_digests(single) == _sat_digests(plain)
    fused_bytes = _sat_bytes(str(tmp_path / "fused"))
    assert fused_bytes and fused_bytes == _sat_bytes(str(tmp_path / "plain"))


def test_persisted_sats_bytes_identical(tmp_path):
    """The artifacts a fused batch files in the store are the same
    bytes the sequential path would have filed."""
    from repro.store import SliceStore

    source = _source(4)
    fused = SlicingSession(source, store=SliceStore(str(tmp_path / "fused")))
    plain = SlicingSession(source, store=SliceStore(str(tmp_path / "plain")))
    criteria = _criteria(fused)
    fused.slice_many(criteria)
    _one_at_a_time(plain, criteria)
    assert fused.stats["fused_batches"] == 1
    fused_bytes = _sat_bytes(str(tmp_path / "fused"))
    assert fused_bytes and fused_bytes == _sat_bytes(str(tmp_path / "plain"))


def test_warm_store_batch_skips_the_fused_pass(tmp_path):
    from repro.store import SliceStore

    source = _source(5)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(source, store=SliceStore(cache))
    criteria = _criteria(writer)
    writer.slice_many(criteria)
    assert writer.stats["fused_batches"] == 1

    reader = SlicingSession(source, store=SliceStore(cache))
    reference = [
        (r.closure_elems(), automaton_to_payload(r.a6))
        for r in writer.slice_many(criteria)
    ]
    warm = reader.slice_many(criteria)
    assert [
        (r.closure_elems(), automaton_to_payload(r.a6)) for r in warm
    ] == reference
    # Every criterion's rendered result was persisted, so no saturation
    # ran — fused or otherwise.
    assert reader.stats["fused_batches"] == 0
    assert reader.stats["saturation_misses"] == 0
    assert reader.stats["sat_persist_misses"] == 0


def test_sats_warm_batch_loads_instead_of_saturating(tmp_path):
    """Rendered results evicted but ``__sats__`` artifacts intact: the
    fused pass claims the criteria, then serves every one from the
    persisted automata without a single kernel pop."""
    from repro.store import SliceStore

    source = _source(6)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(source, store=SliceStore(cache))
    criteria = _criteria(writer)
    writer.slice_many(criteria)
    reference = [
        (r.closure_elems(), automaton_to_payload(r.a6))
        for r in writer.slice_many(criteria)
    ]
    # Drop the rendered slices (the batch filed them as one results
    # entry); keep the saturation artifacts.
    src_dir = os.path.join(cache, writer.source_hash)
    removed = 0
    for name in os.listdir(src_dir):
        if name.startswith("results-"):
            os.unlink(os.path.join(src_dir, name))
            removed += 1
    assert removed == 1

    reader = SlicingSession(source, store=SliceStore(cache))
    warm = reader.slice_many(criteria)
    assert [
        (r.closure_elems(), automaton_to_payload(r.a6)) for r in warm
    ] == reference
    # N criteria plus the reachable-configs poststar, all persisted.
    n_sats = len(set(criteria)) + 1
    assert reader.stats["sat_persist_hits"] == n_sats
    assert reader.stats["sat_persist_misses"] == 0
    assert reader.stats["kernel_worklist_pops"] == 0


def test_remove_features_many_matches_sequential():
    source = scaled_wc_source(4)
    features = ["count_line", "count_word", "count_char"]
    fused = SlicingSession(source)
    plain = SlicingSession(source)
    fused_results = fused.remove_features_many(features)
    plain_results = [plain.remove_feature(f) for f in features]
    assert fused.stats["fused_batches"] == 1
    assert fused.stats["fused_criteria"] == len(features)
    for feature, f, p in zip(features, fused_results, plain_results):
        assert automaton_to_payload(f.a1) == automaton_to_payload(p.a1), feature
        assert f.footprint == p.footprint, feature
    assert _sat_digests(fused) == _sat_digests(plain)


@pytest.mark.smoke
def test_update_source_invalidates_batch_state():
    """An edit between the fused pass and the slice computes must not
    leak stale query automata or a stale compiled PDS."""
    base = scaled_wc_source(3)
    session = SlicingSession(base)
    session.slice_many(_criteria(session))
    pds_before = session.encoding.pds
    assert pds_before in _COMPILED  # the kernel's compile cache
    # A constant edit is layout-fast-equivalent: the front half (and so
    # the compiled PDS) is legitimately reused.
    session.update_source(base.replace("c == 32", "c == 33"))
    assert not session._batch_queries
    assert session.encoding.pds is pds_before
    # A structural edit rebuilds the front half; the next saturation
    # compiles the new PDS instead of serving the stale compile.
    edited = base.replace(
        "chars = chars + 1;", "chars = chars + 1;\n  chars = chars + 0;"
    )
    session.update_source(edited)
    assert not session._batch_queries
    assert session.encoding.pds is not pds_before
    assert session.encoding.pds not in _COMPILED
    session.slice_many(_criteria(session))
    assert session.encoding.pds in _COMPILED
    assert session.stats["kernel_compile_misses"] == 2
    cold = SlicingSession(edited)
    assert pretty(session.executable("prints").program) == pretty(
        cold.executable("prints").program
    )
