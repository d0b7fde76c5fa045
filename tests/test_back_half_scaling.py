"""Deterministic scaling pins for the back half's per-criterion steps.

Work is counted, never timed, on scaled wc at 32, 64 and 128
categories with every print sliced through one ``slice_many`` batch:

* projection: the fused Prestar pass hands each criterion only its own
  memberships and visits only its kept part, so the
  ``kernel_projection_visits`` counter per criterion stays flat as the
  program grows (projecting the whole fixpoint per criterion grew 3.4x
  from wc32 to wc128);
* print lookup: resolving every ``("print", i)`` scans the SDG's
  vertex table once, and the cached answer is never stale for a graph
  that gains vertices;
* read-out: answering and rendering every print builds no specialized
  SDG ``R``; reading ``result.sdg`` builds one per result (once, even
  under racing threads), equal to a read-out built straight from the
  result's ``A6``.
"""

import pickle
import sys
import threading

import pytest

import repro.core.specialize as specialize_module
from repro.core.readout import read_out_sdg, specialized_sdg
from repro.engine import SlicingSession
from repro.engine.canonical import resolve_criterion_spec
from repro.lang import pretty
from repro.sdg.graph import VertexKind
from repro.workloads.wc import scaled_wc_source

SIZES = (32, 64, 128)


@pytest.fixture(scope="module")
def sessions():
    return {size: SlicingSession(scaled_wc_source(size)) for size in SIZES}


def _prints(session):
    return [("print", i) for i in range(len(session.sdg.print_call_vertices()))]


@pytest.fixture
def r_builds(monkeypatch):
    """Counts the R builds results run (the name ``__getattr__`` calls)."""
    builds = []

    def counting(*args):
        builds.append(args)
        return specialized_sdg(*args)

    monkeypatch.setattr(specialize_module, "specialized_sdg", counting)
    return builds


def test_projection_work_per_criterion_stays_flat():
    per_criterion = {}
    for size in SIZES:
        session = SlicingSession(scaled_wc_source(size))
        # Poststar(entry_main) first: its own projection is program-sized.
        session.reachable_configs()
        before = session.stats.get("kernel_projection_visits", 0)
        criteria = _prints(session)
        session.slice_many(criteria)
        stats = session.stats
        assert stats["fused_batches"] == 1 and stats["fused_criteria"] == len(criteria)
        visits = stats["kernel_projection_visits"] - before
        per_criterion[size] = visits / len(criteria)
    assert per_criterion[128] <= 1.1 * per_criterion[32], per_criterion


class _CountingVertices(dict):
    """A vertex table that counts full iterations (scans)."""

    scans = 0

    def __iter__(self):
        _CountingVertices.scans += 1
        return super().__iter__()


def test_print_resolution_scans_the_vertex_table_once():
    session = SlicingSession(scaled_wc_source(32))
    sdg = session.sdg
    sdg.vertices = _CountingVertices(sdg.vertices)
    _CountingVertices.scans = 0
    for criterion in _prints(session):
        resolve_criterion_spec(sdg, criterion)
    assert _CountingVertices.scans == 1
    prints = sdg.print_call_vertices()
    # A graph that gains a vertex is rescanned, never answered stale.
    added = sdg.new_vertex(VertexKind.CALL, "main", "call print")
    assert sdg.print_call_vertices() == prints + [added]
    assert _CountingVertices.scans == 2


def test_answering_and_rendering_builds_no_r(sessions, r_builds):
    for session in sessions.values():
        criteria = _prints(session)
        results = session.slice_many(criteria)
        for criterion in criteria:
            pretty(session.executable(criterion).program)
        assert all(result.vertex_count() > 0 for result in results)
    assert r_builds == []


def test_reading_r_builds_it_once_equal_to_an_eager_read_out(sessions, r_builds):
    for session in sessions.values():
        results = session.slice_many(_prints(session))
        del r_builds[:]
        for result in results:
            lazy = result.sdg
            assert result.sdg is lazy
            pdgs, bindings = read_out_sdg(result.source_sdg, result.a6, result.encoding)
            eager, map_back_vertex, map_back_site = specialized_sdg(
                result.source_sdg, pdgs, bindings
            )
            assert lazy.vertex_count() == eager.vertex_count() == result.vertex_count()
            assert set(lazy.edges()) == set(eager.edges())
            assert result.map_back_vertex == map_back_vertex
            assert result.map_back_site == map_back_site
        assert len(r_builds) == len(results)


def test_racing_reads_build_r_once(r_builds):
    session = SlicingSession(scaled_wc_source(8))
    result = session.slice("prints")
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait()
        seen.append(result.sdg)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert len(r_builds) == 1
    assert all(sdg is seen[0] for sdg in seen)
    for spec in result.pdgs.values():
        for vid, new_vid in spec.vertex_map.items():
            assert result.map_back_vertex[new_vid] == vid
            assert seen[0].vertices[new_vid].proc == spec.name


def test_results_pickled_with_r_load_without_rebuilding(r_builds):
    """Results entries written before ``R`` was built on read hold it
    in the instance dict; they load and are read as they are."""
    session = SlicingSession(scaled_wc_source(8))
    result = session.slice(("print", 1))
    vertices = result.sdg.vertex_count()
    loaded = pickle.loads(pickle.dumps(session._slim(result)))
    del r_builds[:]
    assert loaded.sdg.vertex_count() == vertices
    assert loaded.map_back_vertex == result.map_back_vertex
    assert r_builds == []
