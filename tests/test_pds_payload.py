"""Relocatable compiled-PDS payloads and multi-program batches.

``compiled_payload``/``compiled_from_payload`` promise a deterministic
flat-array form of :class:`repro.pds.kernel.CompiledPDS` that crosses
process boundaries and survives the store, and that a session adopting
a persisted payload computes *exactly* what it would have computed by
recompiling.  This suite pins that plus the degrade paths (corrupt
payloads recompile, never crash; a failing ``slice_many_programs`` job
names itself after its siblings settle).

``repro.open_session`` memoizes sessions by source hash; every test
here builds :class:`SlicingSession` directly so nothing is memo-warm.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import ProgramSliceError, SlicingSession, slice_many_programs
from repro.fsa.serialize import automaton_to_payload
from repro.lang import pretty
from repro.pds.kernel import (
    PAYLOAD_VERSION,
    adopt_payload,
    compiled_from_payload,
    compiled_payload,
    compiled_pds,
    payload_digest,
    prestar_many_csr,
)
from repro.store import SliceStore
from repro.workloads.generator import GenConfig, generate_program

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


def _queries(session, contexts="reachable"):
    from repro.engine.canonical import resolve_criterion_spec

    automata = []
    for criterion in _criteria(session):
        kind, payload = resolve_criterion_spec(session.sdg, criterion)
        automata.append(session._query_automaton(kind, payload, contexts))
    return automata


def _payloads(automata):
    return [automaton_to_payload(a) for a in automata]


def _session_payload(session):
    return compiled_payload(compiled_pds(session.encoding.pds))


def _child_digest(source):
    """Executed in a worker process: the payload digest a *different*
    interpreter computes for the same source."""
    session = SlicingSession(source)
    return payload_digest(_session_payload(session))


# -- payload round-trip properties -------------------------------------------------


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_payload_round_trip_behavioral_on_corpus(seed):
    """``compiled_from_payload(compiled_payload(c))`` is behaviorally
    identical: a session that adopted the payload saturates every
    criterion to the same bytes as the session that compiled."""
    source = _source(seed)
    compiler = SlicingSession(source)
    payload = _session_payload(compiler)

    # The payload is a fixed point of its own codec...
    rebuilt = compiled_from_payload(payload)
    assert compiled_payload(rebuilt) == payload

    # ...and adopting it onto an independently built (but equal) PDS
    # replaces that session's compile wholesale.
    adopter = SlicingSession(source)
    sink = {}
    assert adopt_payload(adopter.encoding.pds, payload, sink)
    assert sink == {"pds_payload_hits": 1}
    assert compiled_pds(adopter.encoding.pds) is not None
    assert _payloads(
        prestar_many_csr(adopter.encoding.pds, _queries(adopter), trim=True)
    ) == _payloads(
        prestar_many_csr(compiler.encoding.pds, _queries(compiler), trim=True)
    )


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
def test_payload_digest_stable_across_processes(seed):
    source = _source(seed)
    parent = payload_digest(_session_payload(SlicingSession(source)))
    with ProcessPoolExecutor(max_workers=1) as pool:
        child = pool.submit(_child_digest, source).result()
    assert parent == child


def test_payload_digest_separates_programs():
    digests = {
        payload_digest(_session_payload(SlicingSession(_source(seed))))
        for seed in range(4)
    }
    assert len(digests) == 4


# -- degrade to recompile ----------------------------------------------------------


def _corruptions(payload):
    tag, version, loc_codes, loc_strs, sym_codes, sym_strs, rule_ints = payload
    return {
        "not-a-tuple": list(payload),
        "short-tuple": payload[:6],
        "wrong-tag": ("cpsd",) + payload[1:],
        "wrong-version": (tag, version + 1) + payload[2:],
        "truncated-rules": payload[:6] + (rule_ints[:-1],),
        "loc-code-out-of-range": (
            tag, version, loc_codes + (-len(loc_strs) - 7,),
            loc_strs, sym_codes, sym_strs, rule_ints,
        ),
        "duplicate-locations": (
            tag, version, loc_codes + (loc_codes[0],),
            loc_strs, sym_codes, sym_strs, rule_ints,
        ),
        "rule-target-out-of-range": payload[:6]
        + ((len(loc_codes) + 9,) + rule_ints[1:],),
        "stray-string": (tag, version, loc_codes, loc_strs + (7,),
                         sym_codes, sym_strs, rule_ints),
    }


@pytest.mark.smoke
def test_corrupt_payloads_degrade_to_recompile():
    """Every malformed payload is rejected (counted, never raised) and
    the session recompiles to the same answer."""
    source = _source(1)
    payload = _session_payload(SlicingSession(source))
    for name, corrupt in _corruptions(payload).items():
        with pytest.raises(ValueError):
            compiled_from_payload(corrupt)
        victim = SlicingSession(source)
        sink = {}
        assert not adopt_payload(victim.encoding.pds, corrupt, sink), name
        assert sink == {"pds_payload_misses": 1}, name


def test_corrupt_store_payload_recompiles_and_heals(tmp_path):
    """A corrupt ``__pds__`` entry costs one payload miss at the first
    saturation, the session recompiles (same slice bytes as storeless),
    and re-persists a good payload that the next session adopts."""
    source = _source(2)
    cache = str(tmp_path / "cache")
    good = _session_payload(SlicingSession(source))
    seeder = SliceStore(cache)
    src_hash = hashlib.sha256(source.encode("utf-8")).hexdigest()
    seeder.put_pds(src_hash, _corruptions(good)["truncated-rules"])

    victim = SlicingSession(source, store=SliceStore(cache))
    assert victim.source_hash == src_hash
    reference = SlicingSession(source)
    assert automaton_to_payload(
        victim.slice(("print", 0)).a6
    ) == automaton_to_payload(reference.slice(("print", 0)).a6)
    assert victim.stats["pds_payload_misses"] == 1
    assert victim.stats["pds_payload_hits"] == 0

    # The recompile healed the entry in place.
    healed = SlicingSession(source, store=SliceStore(cache))
    healed.slice("prints")  # cold for the store: saturates, so compiles
    assert healed.stats["pds_payload_hits"] == 1
    assert healed.stats["pds_payload_misses"] == 0


# -- store-backed adoption ---------------------------------------------------------


def test_store_persists_and_adopts_payload(tmp_path):
    source = _source(3)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(source, store=SliceStore(cache))
    # Nothing compiles before the first saturation.
    assert writer.stats["kernel_compile_misses"] == 0
    assert not writer.store.has_pds(writer.source_hash)
    writer.slice(("print", 0))
    # A fresh store has no payload: one consult-miss, one compile-miss,
    # then the compile is persisted under the front-half hash.
    assert writer.stats["pds_payload_misses"] == 1
    assert writer.stats["kernel_compile_misses"] == 1
    assert writer.store.has_pds(writer.source_hash)
    assert writer.store.stats()["tables"].get("pds") == 1

    reader_store = SliceStore(cache)
    reader = SlicingSession(source, store=reader_store)
    # "prints" is cold in the store: its Prestar saturates, which
    # adopts the persisted payload first.
    reader.slice("prints")
    assert reader.stats["pds_payload_hits"] == 1
    assert reader.stats["pds_payload_misses"] == 0
    # Adoption *replaces* the compile: the session's compiled PDS is a
    # cache hit on the adopted object, never a recompile.
    assert reader.stats["kernel_compile_misses"] == 0
    assert reader.stats["kernel_compile_hits"] >= 1
    assert reader_store._counters["pds_hits"] == 1
    assert automaton_to_payload(reader.slice("prints").a6) == automaton_to_payload(
        writer.slice("prints").a6
    )


# -- slice_many_programs error handling --------------------------------------------


@pytest.mark.smoke
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_failing_job_names_itself_after_siblings_settle(backend, tmp_path):
    good = _source(7)
    bad = "int main() { this is not tinyc"
    cache = str(tmp_path / "cache")
    jobs = [
        (good, [("print", 0)]),
        (bad, [("print", 0)]),
        (_source(8), [("print", 0)]),
    ]
    with pytest.raises(ProgramSliceError) as info:
        slice_many_programs(jobs, backend=backend, cache_dir=cache)
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
        slice_many_programs(jobs, backend="thread")
    assert info.value.job_index == 0


def test_largest_first_scheduling_preserves_result_order(tmp_path):
    """Jobs are submitted largest-source-first; results still come back
    in input order, byte-identical to one-at-a-time runs."""
    sources = sorted((_source(seed) for seed in range(9, 13)), key=len)
    jobs = [(source, [("print", 0), "prints"]) for source in sources]
    batch = slice_many_programs(jobs, backend="thread")
    for (source, criteria), results in zip(jobs, batch):
        solo = SlicingSession(source)
        for criterion, result in zip(criteria, results):
            assert automaton_to_payload(result.a6) == automaton_to_payload(
                solo.slice(criterion).a6
            ), (len(source), criterion)


# -- payload versioning ------------------------------------------------------------


@pytest.mark.smoke
def test_payload_version_is_pinned():
    """Bump ``PAYLOAD_VERSION`` whenever the payload layout changes —
    old store entries must be rejected, not misread."""
    assert PAYLOAD_VERSION == 1
    payload = _session_payload(SlicingSession(_source(0)))
    assert payload[0] == "cpds" and payload[1] == PAYLOAD_VERSION
