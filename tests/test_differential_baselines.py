"""Differential testing against the Weiser baseline over the generator
suite.

Two independent implementations bound each polyvariant slice:

* **Containment** — the specialization slice's mapped-back vertex set
  (``MC`` applied to every vertex of ``R``) must be contained in the
  Weiser slice for the same criterion.  Weiser's algorithm
  (:mod:`repro.core.weiser`) is context-insensitive backward
  reachability with indivisible call sites — a strict over-
  approximation of the closure slice computed via the PDS route, and a
  completely independent code path (no automata, no saturation).
* **Execution equivalence** — the rendered polyvariant slice must print
  exactly the criterion print's values, in order, on shared random
  inputs (Weiser's correctness condition under :mod:`repro.lang.interp`).

Every program in a 26-seed generator sample is checked against every
print-statement vertex criterion, exercising the
:class:`repro.engine.SlicingSession` batch path along the way.
"""

import random

import pytest

from repro.core import weiser_slice
from repro.engine import SlicingSession
from repro.lang import pretty
from repro.lang.interp import ExecutionLimitExceeded, run_program
from repro.workloads.generator import GenConfig, generate_program

N_PROGRAMS = 26
#: cap on vertex criteria checked per program — keeps the whole harness
#: a small multiple of the generator-suite property tests' runtime.
MAX_CRITERIA = 4


def _session_for_seed(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return SlicingSession(pretty(program))


def _check_criterion_prints(session, executable, criterion_uid, seed):
    """The slice's print output must equal the original's output at the
    criterion print statement, on shared inputs."""
    rng = random.Random(seed)
    compared = 0
    for _ in range(2):
        inputs = [rng.randint(-4, 9) for _ in range(20)]
        try:
            original = run_program(session.program, inputs, max_steps=2_000_000)
            sliced = run_program(executable.program, inputs, max_steps=2_000_000)
        except ExecutionLimitExceeded:
            continue
        mapped = [
            (executable.stmt_map.get(uid), values)
            for uid, _fmt, values in sliced.prints
        ]
        # A backward slice from one print's parameters can keep no other
        # print (prints produce no values for anything to depend on).
        assert all(uid == criterion_uid for uid, _values in mapped)
        expected = [
            (uid, values)
            for uid, _fmt, values in original.prints
            if uid == criterion_uid
        ]
        assert mapped == expected
        compared += 1
    return compared


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_poly_slice_contained_in_weiser_and_faithful(seed):
    session = _session_for_seed(seed)
    sdg = session.sdg
    prints = sdg.print_call_vertices()
    if not prints:
        pytest.skip("generated program has no print statements")

    indices = range(min(len(prints), MAX_CRITERIA))
    criteria = [("print", index) for index in indices]
    results = session.slice_many(criteria)
    reachable_elems = session.encoding.elems(session.reachable_configs())

    for index, poly in zip(indices, results):
        criterion_vids = sdg.print_criterion([prints[index]])
        weiser = weiser_slice(sdg, criterion_vids)
        mapped_back = set(poly.map_back_vertex.values())
        assert mapped_back <= weiser.slice_set, (
            "seed %d print %d: polyvariant slice escapes the Weiser slice"
            % (seed, index)
        )
        if not criterion_vids & reachable_elems:
            # A print in dead code (e.g. a procedure main never calls)
            # has no realizable context: the reachable-contexts slice is
            # correctly empty, and there is nothing to execute.
            assert not poly.pdgs
            continue
        # A reachable criterion is always in its own slice.
        assert criterion_vids <= mapped_back

        executable = session.executable(("print", index))
        criterion_uid = sdg.vertices[prints[index]].stmt_uid
        _check_criterion_prints(session, executable, criterion_uid, seed)


def test_differential_sample_is_large_enough():
    """The harness must cover at least 25 generated programs (the
    acceptance floor for this differential suite)."""
    assert N_PROGRAMS >= 25


#: generator seeds re-checked through the persistent store (a subset:
#: the point is store fidelity, not re-running the whole harness).
STORE_SEEDS = (0, 3, 7, 11, 19)


@pytest.mark.parametrize("seed", STORE_SEEDS)
def test_store_served_results_byte_identical(seed, tmp_path):
    """The differential harness with the store enabled: results served
    from disk must be byte-identical to fresh computation — same
    rendered program text, same mapped-back vertex sets, same version
    counts — and the warm session must do no saturation work."""
    from repro.store import SliceStore

    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    source = pretty(program)
    cache = str(tmp_path / "cache")

    fresh = SlicingSession(source)  # no store: the reference computation
    writer = SlicingSession(source, store=SliceStore(cache))  # fills the store
    reader = SlicingSession(source, store=SliceStore(cache))  # serves from it
    assert reader.stats["front_half_from_store"] is True

    prints = fresh.sdg.print_call_vertices()
    if not prints:
        pytest.skip("generated program has no print statements")
    criteria = [("print", index) for index in range(min(len(prints), MAX_CRITERIA))]

    fresh_results = fresh.slice_many(criteria)
    writer.slice_many(criteria)
    stored_results = reader.slice_many(criteria)

    stats = reader.stats
    assert stats["persist_hits"] == len(criteria)
    assert stats["saturation_misses"] == 0 and stats["saturation_hits"] == 0

    for criterion, a, b in zip(criteria, fresh_results, stored_results):
        assert a.version_counts() == b.version_counts()
        assert a.closure_elems() == b.closure_elems()
        assert set(a.map_back_vertex.values()) == set(b.map_back_vertex.values())
        assert pretty(fresh.executable(criterion).program) == pretty(
            reader.executable(criterion).program
        )


def _delete_result_entries(cache, table="results"):
    """Remove the persisted per-criterion results (but nothing else),
    so a warm session must recompute them — through whatever
    saturations the ``__sats__`` table still holds."""
    import glob
    import os

    removed = 0
    for path in glob.glob(os.path.join(cache, "*", "%s-*.slc" % table)):
        os.unlink(path)
        removed += 1
    return removed


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_sats_served_results_byte_identical(seed, tmp_path):
    """The differential harness for the ``__sats__`` table, over the
    full 26-program suite: with the persisted *results* deleted, a
    fresh session must recompute every slice through the persisted
    saturation artifacts — skipping Poststar entirely and loading the
    Prestar siblings — and the recomputed results must be
    byte-identical to a storeless cold session's."""
    from repro.store import SliceStore

    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    source = pretty(program)
    cache = str(tmp_path / "cache")

    fresh = SlicingSession(source)  # the storeless reference
    prints = fresh.sdg.print_call_vertices()
    if not prints:
        pytest.skip("generated program has no print statements")
    criteria = [("print", index) for index in range(min(len(prints), 2))]

    writer = SlicingSession(source, store=SliceStore(cache))
    writer.slice_many(criteria)
    assert _delete_result_entries(cache) == 1  # the batch's one results entry

    reader = SlicingSession(source, store=SliceStore(cache))
    fresh_results = fresh.slice_many(criteria)
    stored_results = reader.slice_many(criteria)

    stats = reader.stats
    assert stats["persist_hits"] == 0  # the results really were gone
    # Shared Poststar + one Prestar per criterion, all loaded: the
    # reader did zero saturation work of its own.
    assert stats["sat_persist_hits"] == len(criteria) + 1
    assert stats["sat_persist_misses"] == 0

    for criterion, a, b in zip(criteria, fresh_results, stored_results):
        assert a.version_counts() == b.version_counts()
        assert a.closure_elems() == b.closure_elems()
        assert set(a.map_back_vertex.values()) == set(b.map_back_vertex.values())
        assert pretty(fresh.executable(criterion).program) == pretty(
            reader.executable(criterion).program
        )
