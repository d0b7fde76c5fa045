"""Cache economics and saturations filed by pushdown system.

Two halves of one story:

* **Cost-aware eviction** — under a tight ``max_bytes`` cap the store
  sheds entries cheapest-to-rebuild first (slim results, then
  per-procedure parts, then Prestar artifacts, then Poststars, with
  front-half bundles and saturation indexes last), using recency only
  as the tie-break within a tier.  The flat-LRU regression is pinned
  by *simulating* the old policy over the same entry set and showing
  it would have dropped the shared Poststar that the tiered policy
  keeps — and that a warm reopen after real eviction answers without
  re-saturating it.

* **One index per pushdown system** — saturations are filed under
  the layout signature of the revision that computed them, which every
  label edit of it shares: a cold process opening label-edited source
  loads the saturations it answers with through that one index, with
  no live donor session, composing with the ``__procs__`` partial
  front-half path; one opening structurally edited source computes
  its own.  Either way the answers are byte-identical to a storeless
  session's.
"""

import collections
import glob
import os
import shutil
import time

import pytest

from repro.cli import build_parser
from repro.engine import SlicingSession, stable_key_digest
from repro.engine.canonical import REACHABLE_KEY, SAT_PRESTAR
from repro.engine.incremental import session_signature
from repro.lang import pretty
from repro.store import DEFAULT_MAX_BYTES, SliceStore, source_hash
from repro.store.store import (
    _TMP_GRACE_SECONDS,
    TIER_PROC,
    TIER_RESULT,
    TIER_SAT_POSTSTAR,
    TIER_SAT_PRESTAR,
)

pytestmark = pytest.mark.smoke

SOURCE = (
    "int g;\n"
    "int acc;\n"
    "void helper() { int t = 2; g = t; }\n"
    "void noise() { acc = acc + 5; }\n"
    'int main() { helper(); noise(); print("%d", g); print("%d", acc); return 0; }\n'
)

#: label-only edit (changed constant): dependence shape preserved, so
#: both revisions are one pushdown system and share one index
LABEL_EDIT = SOURCE.replace("acc + 5", "acc + 9")
#: structural edit confined to ``noise`` (new vertex): another pushdown
#: system, whose index is its own
STRUCTURAL_EDIT = SOURCE.replace(
    "acc = acc + 5;", "acc = acc + 5; int z = 1; acc = acc + z;"
)

POSTSTAR_DIGEST = stable_key_digest(REACHABLE_KEY)


def _entry_files(store):
    result = []
    for root, _dirs, files in os.walk(store.cache_dir):
        result.extend(os.path.join(root, name) for name in files)
    return sorted(result)


def _set_age(path, seconds_ago):
    stamp = time.time() - seconds_ago
    os.utime(path, (stamp, stamp))


def _by_table(store):
    """table name -> [(path, size, mtime)] for every entry on disk."""
    groups = {}
    for entry in store._entries():
        groups.setdefault(store._entry_table(entry[0]), []).append(entry)
    return groups


# -- eviction tiers ----------------------------------------------------------------


def test_eviction_sheds_cheap_tiers_first(tmp_path):
    """Under pressure the store drops slim results and parts while the
    Poststar, the front-half bundle, and the index survive — even when
    the expensive entries are the *oldest* files in the cache."""
    cache = str(tmp_path / "cache")
    session = SlicingSession(SOURCE, store=SliceStore(cache))
    session.slice(("print", 0))
    session.slice(("print", 1))
    store = SliceStore(cache)
    groups = _by_table(store)
    assert set(groups) == {"fronthalf", "results", "proc", "sat", "idx"}
    # The engine writes no __pds__ entry, but a store written by an
    # earlier version holds one: a cheap entry that sheds with the
    # parts tier.
    store.put_pds(session.source_hash, ("cpds", 1, (), (), (), (), ()))
    groups = _by_table(store)
    assert len(groups["pds"]) == 1
    shed_tables = ("results", "proc", "pds")

    # Make everything expensive look LRU-stale: flat LRU would evict
    # the saturations and the bundle first.
    for table in ("sat", "fronthalf", "idx"):
        for path, _size, _mtime in groups[table]:
            _set_age(path, 3600)
    keep_bytes = sum(
        size
        for table in ("fronthalf", "sat", "idx")
        for _path, size, _mtime in groups[table]
    )
    shed_bytes = sum(
        size
        for table in shed_tables
        for _path, size, _mtime in groups[table]
    )
    # Cap so that shedding every result and part suffices — and is
    # necessary (the cut is bigger than any single cheap entry).
    cap = keep_bytes + shed_bytes // 4
    tight = SliceStore(cache, max_bytes=cap)
    tight.put("ffff" + "0" * 60, "slice", "trigger", "x")  # first write scans

    after = _by_table(SliceStore(cache))
    assert "fronthalf" in after and "sat" in after and "idx" in after
    assert len(after["sat"]) == len(groups["sat"])  # every saturation kept
    assert sum(len(after.get(t, ())) for t in shed_tables) < sum(
        len(groups[t]) for t in shed_tables
    )
    stats = tight.stats()
    assert stats["evictions"] >= 1
    assert stats["total_bytes"] <= cap


def test_flat_lru_would_have_dropped_the_poststar(tmp_path):
    """The regression pin for the old policy: replaying mtime-only LRU
    over the very entry set the tiered evictor handled shows it would
    have dropped the shared Poststar (the oldest file) even though
    shedding slim results alone would have fit the cut."""
    cache = str(tmp_path / "cache")
    session = SlicingSession(SOURCE, store=SliceStore(cache))
    session.slice(("print", 0))
    session.slice(("print", 1))
    store = SliceStore(cache)
    groups = _by_table(store)
    record = store.get_sat_index(session_signature(session))[POSTSTAR_DIGEST]
    poststar_path = store._entry_path("__sats__", "sat", record[3])
    _set_age(poststar_path, 7200)  # the LRU victim
    entries = store._entries()
    total = sum(size for _path, size, _mtime in entries)
    cap = total - 1  # any eviction at all must shed something

    # The old policy, replayed: oldest mtime first, regardless of cost.
    simulated = sorted(entries, key=lambda entry: entry[2])
    lru_dropped, running = set(), total
    for path, size, _mtime in simulated:
        if running <= cap:
            break
        lru_dropped.add(path)
        running -= size
    assert poststar_path in lru_dropped  # flat LRU sacrifices seconds of work

    # The tiered policy on the same set keeps it.
    tight = SliceStore(cache, max_bytes=cap)
    tight.put("ffff" + "1" * 60, "slice", "trigger", "x")
    assert os.path.exists(poststar_path)
    assert tight.stats()["evictions"] >= 1
    # Cheap slim results took the cut instead (the trigger put added a
    # fresh slice entry, so compare original paths, not counts).
    surviving = {path for path, _size, _mtime in SliceStore(cache)._entries()}
    assert {path for path, _size, _mtime in groups["results"]} - surviving


def test_mtime_is_the_tiebreak_within_a_tier(tmp_path):
    """Within one cost tier the oldest entry goes first (reads bump
    mtime, so this is LRU exactly where LRU is the right call)."""
    store = SliceStore(str(tmp_path / "cache"), max_bytes=10_000_000)
    payload = "z" * 2000
    hash_a, hash_b = "a" * 64, "b" * 64
    store.put(hash_a, "slice", "old", payload)
    store.put(hash_b, "slice", "new", payload)
    old_path = store._entry_path(hash_a, "slice", "old")
    _set_age(old_path, 3600)
    sizes = {path: size for path, size, _mtime in store._entries()}
    tight = SliceStore(store.cache_dir, max_bytes=sum(sizes.values()) - 1)
    tight.put("c" * 64, "slice", "trigger", "x")
    assert not os.path.exists(old_path)
    assert os.path.exists(store._entry_path(hash_b, "slice", "new"))


def test_entry_tiers_classified_through_the_index(tmp_path):
    """The evictor ranks saturation files by the *kind* in their index
    record — prestar below poststar — without unpickling artifacts."""
    cache = str(tmp_path / "cache")
    session = SlicingSession(SOURCE, store=SliceStore(cache))
    session.slice(("print", 0))
    store = SliceStore(cache)
    entries = store._entries()
    sat_tiers, pruned = store._gc_sat_indexes(entries)
    assert pruned == 0
    tiers = sorted(sat_tiers.values())
    assert tiers == [TIER_SAT_PRESTAR, TIER_SAT_POSTSTAR]
    for path, _size, _mtime in entries:
        table = store._entry_table(path)
        if table == "results":
            assert store._entry_tier(path, sat_tiers) == TIER_RESULT
        elif table == "proc":
            assert store._entry_tier(path, sat_tiers) == TIER_PROC
    # An artifact file with no index record defaults to the expensive
    # tier: when in doubt, keep it.
    assert store._entry_tier(
        os.path.join(cache, "__sats__", "sat-deadbeef.slc"), sat_tiers
    ) == TIER_SAT_POSTSTAR


def test_warm_reopen_after_eviction_skips_poststar(tmp_path):
    """The acceptance scenario: a cap that forces eviction, then a
    fresh process re-asking a seen criterion.  Cost-aware eviction
    dropped the slim results but kept the saturations, so the reopen
    answers with zero saturations computed."""
    cache = str(tmp_path / "cache")
    session = SlicingSession(SOURCE, store=SliceStore(cache))
    session.slice(("print", 0))
    session.slice(("print", 1))
    store = SliceStore(cache)
    groups = _by_table(store)
    slice_bytes = sum(size for _path, size, _mtime in groups["results"])
    total = sum(size for _path, size, _mtime in store._entries())
    # Old files first under flat LRU would be the sats; age them.
    for path, _size, _mtime in groups["sat"]:
        _set_age(path, 3600)
    tight = SliceStore(cache, max_bytes=total - slice_bytes // 2)
    tight.put("ffff" + "2" * 60, "slice", "trigger", "x")
    assert tight.stats()["evictions"] >= 1

    reader = SlicingSession(SOURCE, store=SliceStore(cache))
    result = reader.slice(("print", 0))
    assert reader.stats["sat_persist_misses"] == 0  # nothing re-saturated
    assert reader.stats["sat_persist_hits"] >= 1
    reference = SlicingSession(SOURCE).slice(("print", 0))
    assert pretty(result.source_sdg.program) == pretty(
        reference.source_sdg.program
    )
    assert result.version_counts() == reference.version_counts()


def test_index_gc_prunes_stale_records_and_counts(tmp_path):
    """Records whose artifact file was evicted (or deleted) out from
    under the index are pruned on the next compaction walk, visibly in
    ``gc_index_pruned`` and the persisted lifetime counters."""
    cache = str(tmp_path / "cache")
    session = SlicingSession(SOURCE, store=SliceStore(cache))
    session.slice(("print", 0))
    store = SliceStore(cache)
    signature = session_signature(session)
    assert len(store.get_sat_index(signature)) == 2
    (prestar_path,) = [
        path
        for path, _size, _mtime in _by_table(store)["sat"]
        if os.path.basename(path) != "sat-%s.slc" % store.get_sat_index(
            signature
        )[POSTSTAR_DIGEST][3]
    ]
    os.unlink(prestar_path)
    store._evict()  # a compaction walk (under cap: GC only)
    assert list(store.get_sat_index(signature)) == [POSTSTAR_DIGEST]
    assert store.stats()["gc_index_pruned"] == 1
    # With its last record gone, the index file itself is dropped.
    for path, _size, _mtime in _by_table(store)["sat"]:
        os.unlink(path)
    store._evict()
    assert SliceStore(cache).get_sat_index(signature) is None
    assert store.stats()["gc_index_pruned"] == 2
    # The lifetime counters survive into a fresh store object.
    lifetime = SliceStore(cache).stats()["lifetime"]
    assert lifetime["gc_index_pruned"] == 2
    assert lifetime["compactions"] >= 2


# -- one index per pushdown system -------------------------------------------------


def test_cold_process_adopts_after_label_edit(tmp_path):
    """A cold process opening a constant-edited text — no live donor
    session — adopts the previous revision's saturations through the
    index the two revisions share: it loads each one it answers with,
    computes none, and composes with the ``__procs__`` partial
    front-half path."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    writer.slice(("print", 1))

    reader = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    assert session_signature(reader) == session_signature(writer)
    stats = reader.stats
    # Front half: bundle missed (new hash), parts hit for all but the
    # edited procedure.
    assert stats["front_half_from_store"] is False
    assert stats["front_half_parts_total"] == 3
    assert stats["front_half_parts_hits"] == 2
    # Opening loads nothing; the answers load what they use.
    assert reader.store.stats()["sat_hits"] == 0
    reader.slice(("print", 0))
    assert reader.stats["sat_persist_hits"] == 2  # the Poststar + one Prestar
    reader.slice(("print", 1))
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (3, 0)
    assert stats["kernel_worklist_pops"] == 0

    cold = SlicingSession(LABEL_EDIT)
    for index in (0, 1):
        assert pretty(reader.executable(("print", index)).program) == pretty(
            cold.executable(("print", index)).program
        )


def _drop_results(store):
    """Delete every stored result, as eviction's cheapest tier does, so
    that a reopen answers from saturations."""
    for path, _size, _mtime in _by_table(store).get("results", ()):
        os.unlink(path)


def test_adoption_is_refiled_once_per_edit(tmp_path, monkeypatch):
    """A label edit files nothing: its revisions share one index, so
    every cold open of the edited text loads from it directly.  A live
    structural ``update_source`` re-files its survivors once, with one
    index write under the edited revision's signature, and every cold
    open of that text then loads them and files nothing."""
    cache = str(tmp_path / "cache")
    SlicingSession(SOURCE, store=SliceStore(cache)).slice(("print", 0))
    store = SliceStore(cache)
    files = _sat_files(store)
    _reads, writes = _counting_store_io(monkeypatch)

    def reopen_twice(text, store):
        for _ in range(2):
            _drop_results(store)
            reader = SlicingSession(text, store=SliceStore(store.cache_dir))
            reader.slice(("print", 0))
            stats = reader.stats
            # The shared Poststar and the print's Prestar.
            assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (2, 0)

    reopen_twice(LABEL_EDIT, store)
    assert [path for _table, path in writes if "__sats__" in path] == []
    assert _sat_files(store) == files

    live_store = SliceStore(str(tmp_path / "live"))
    live = SlicingSession(SOURCE, store=live_store)
    live.slice(("print", 0))
    del writes[:]
    summary = live.update_source(STRUCTURAL_EDIT)
    assert summary["fast_path"] is False
    # The kept Prestar, renamed, and the Poststar the criterion check
    # computed: two files and one index write.
    assert sorted(table for table, path in writes if "__sats__" in path) == [
        "idx",
        "sat",
        "sat",
    ]
    files = _sat_files(live_store)
    del writes[:]
    reopen_twice(STRUCTURAL_EDIT, live_store)
    assert [path for _table, path in writes if "__sats__" in path] == []
    assert _sat_files(live_store) == files


def test_structural_edit_reopen_computes_its_own(tmp_path):
    """A structural edit is another pushdown system: a cold process
    opening it finds no index for its signature, loads nothing, and
    files what it computes under its own."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0), contexts="empty")
    writer.slice(("print", 1))

    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    assert session_signature(reader) != session_signature(writer)
    result = reader.slice(("print", 0), contexts="empty")
    reader.slice(("print", 1))
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (0, 3)
    assert stats["saturation_misses"] == 3
    assert len(SliceStore(cache).sat_indexes()) == 2
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(
        reader.executable(("print", 0), contexts="empty").program
    ) == pretty(cold.executable(("print", 0), contexts="empty").program)
    assert result.version_counts() == cold.slice(
        ("print", 0), contexts="empty"
    ).version_counts()
    assert pretty(reader.executable(("print", 1)).program) == pretty(
        cold.executable(("print", 1)).program
    )


def test_structural_edit_adopts_only_surviving_footprints(tmp_path):
    """A live store-backed ``update_source`` files only what survives a
    structural edit inside ``noise``: the empty-contexts Prestar of
    print 0, whose cone avoids ``noise``, and not print 1's, which
    reads ``acc``.  A cold process opening the edited text adopts the
    first and computes the second; the answers are the cold ones."""
    cache = str(tmp_path / "cache")
    live = SlicingSession(SOURCE, store=SliceStore(cache))
    live.slice(("print", 0), contexts="empty")
    live.slice(("print", 1), contexts="empty")
    summary = live.update_source(STRUCTURAL_EDIT)
    assert (summary["saturations_kept"], summary["saturations_dropped"]) == (1, 1)
    store = SliceStore(cache)
    assert len(store.get_sat_index(session_signature(live))) == 1
    _drop_results(store)

    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    result = reader.slice(("print", 0), contexts="empty")
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (1, 0)
    reader.slice(("print", 1), contexts="empty")
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (1, 1)
    cold = SlicingSession(STRUCTURAL_EDIT)
    for index in (0, 1):
        assert pretty(
            reader.executable(("print", index), contexts="empty").program
        ) == pretty(cold.executable(("print", index), contexts="empty").program)
    assert result.version_counts() == cold.slice(
        ("print", 0), contexts="empty"
    ).version_counts()


def test_reachable_prestar_adopted_when_its_criterion_is_unchanged(tmp_path):
    """A reachable-contexts Prestar bakes the Poststar language into
    its query, so a live update keeps it only when its criterion did
    not change.  The edit inside ``noise`` changes the Poststar (whose
    footprint covers everything), but print 0's only context is main's
    empty stack on both sides: its Prestar and its result are kept,
    and the answers are the cold ones.  With a store, the update files
    the Prestar and the new Poststar under the edited revision's
    signature, and a cold process opening the edited text adopts both:
    it answers with no saturation work."""
    live = SlicingSession(SOURCE)
    live.slice(("print", 0))  # reachable contexts (the default)
    summary = live.update_source(STRUCTURAL_EDIT)
    assert summary["fast_path"] is False
    assert (summary["saturations_kept"], summary["saturations_dropped"]) == (1, 1)
    assert summary["results_kept"] == 1
    # The Poststar the check compared against is the only saturation
    # the update ran, and the answer runs none.
    before = live.stats
    assert before["saturation_misses"] == 3
    result = live.slice(("print", 0))
    assert live.stats["saturation_misses"] == 3
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(live.executable(("print", 0)).program) == pretty(
        cold.executable(("print", 0)).program
    )
    assert result.version_counts() == cold.slice(("print", 0)).version_counts()

    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    assert writer.update_source(STRUCTURAL_EDIT)["saturations_kept"] == 1
    _drop_results(SliceStore(cache))
    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    assert pretty(reader.executable(("print", 0)).program) == pretty(
        cold.executable(("print", 0)).program
    )
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (2, 0)
    assert stats["kernel_worklist_pops"] == 0


#: ``report``'s print sees one calling context, through main
CONTEXTS = (
    "int g;\n"
    'void report(int x) { print("%d\\n", x); }\n'
    "void other() { g = 1; }\n"
    "int main() { int v = input(); report(v); other(); "
    'print("%d\\n", g); return 0; }\n'
)
#: ``other`` also calls ``report``: the print gains a calling context
#: although neither ``main`` nor ``report`` changed
NEW_CONTEXT = CONTEXTS.replace("g = 1;", "g = 1; report(7);")


def test_new_calling_context_drops_a_fitting_prestar(tmp_path):
    """The footprint of ``report``'s print Prestar, {main, report},
    fits the edited revision, but its criterion gained a context
    through ``other``.  A live update compares the criteria and keeps
    nothing; a cold process on the edited text loads nothing (another
    pushdown system); the answers are the cold ones."""
    live = SlicingSession(CONTEXTS)
    criteria = [("print", 0), ("print", 1)]
    live.slice_many(criteria)
    keys = live._content_keys()
    prestar = live._futures[("saturation", (SAT_PRESTAR, _print_key(live, 0)))]
    assert prestar.result().footprint == frozenset([keys["main"], keys["report"]])
    summary = live.update_source(NEW_CONTEXT)
    assert summary["fast_path"] is False
    assert summary["saturations_kept"] == 0
    assert live._content_keys()["main"] == keys["main"]
    assert live._content_keys()["report"] == keys["report"]

    cache = str(tmp_path / "cache")
    SlicingSession(CONTEXTS, store=SliceStore(cache)).slice_many(criteria)
    reader = SlicingSession(NEW_CONTEXT, store=SliceStore(cache))
    reader.slice_many(criteria)
    assert reader.stats["sat_persist_hits"] == 0

    cold = SlicingSession(NEW_CONTEXT)
    for session in (live, reader):
        for criterion in criteria:
            assert pretty(session.executable(criterion).program) == pretty(
                cold.executable(criterion).program
            ), criterion


def _print_key(session, index):
    from repro.engine.canonical import canonical_key, resolve_criterion_spec

    kind, payload = resolve_criterion_spec(session.sdg, ("print", index))
    return canonical_key(kind, payload, "reachable")


def test_structural_edit_keeps_every_unchanged_criterion_on_both_paths(tmp_path):
    """Early cutoff, counted on wc48: one new local in ``count_cat_3``
    changes the shared Poststar and that category's print, and nothing
    else.  A live update keeps the other 50 Prestars and renames their
    50 results.  A store-backed reopen is another pushdown system: it
    loads nothing, and answering every print saturates all 52 in one
    Poststar and one fused Prestar pass."""
    from repro.workloads.wc import scaled_wc_source

    base = scaled_wc_source(48)
    edited = base.replace(
        "void count_cat_3(int c) {", "void count_cat_3(int c) {\n  int z = 1;"
    )
    live = SlicingSession(base)
    criteria = [("print", i) for i in range(len(live.sdg.print_call_vertices()))]
    assert len(criteria) == 51
    live.slice_many(criteria)
    before = live.stats
    summary = live.update_source(edited)
    assert summary["fast_path"] is False
    assert (summary["saturations_kept"], summary["saturations_dropped"]) == (50, 2)
    assert (summary["results_kept"], summary["results_dropped"]) == (50, 1)
    live.slice_many(criteria)
    after = live.stats
    assert after["slice_misses"] - before["slice_misses"] == 1
    assert after["saturation_misses"] - before["saturation_misses"] == 2

    cache = str(tmp_path / "cache")
    SlicingSession(base, store=SliceStore(cache)).slice_many(criteria)
    reader = SlicingSession(edited, store=SliceStore(cache))
    reader.slice_many(criteria)
    stats = reader.stats
    assert stats["saturation_misses"] == 52
    assert stats["sat_persist_hits"] == 0
    assert stats["fused_batches"] == 1


#: ``d`` and ``e`` are never called, so their prints are unreachable and
#: their reachable-contexts Prestars are empty: empty footprints
UNCALLED = (
    "int g;\n"
    "void f() { g = g + 1; }\n"
    'void d() { print("%d", 1); }\n'
    'void e() { print("%d", 2); }\n'
    'int main() { f(); print("%d", g); return 0; }\n'
)
#: structural edit inside ``d`` (new vertices; ``e`` is renumbered)
UNCALLED_EDIT = UNCALLED.replace('print("%d", 1);', 'int z = 1; print("%d", z);')


def test_empty_footprint_carries_over_on_both_paths(tmp_path):
    """An empty footprint is a subset of every key set, so a live
    ``update_source`` keeps the empty Prestar of the uncalled ``e``'s
    print across an edit in ``d``: the Poststar carried over, so that
    print is still unreachable and its Prestar still empty.  With a
    store, the update files the three survivors, and a cold process
    opening the edited text adopts that Prestar and the Poststar."""
    live = SlicingSession(UNCALLED)
    criteria = [
        ("print", index) for index in range(len(live.sdg.print_call_vertices()))
    ]
    live.slice_many(criteria)
    # The Poststar, main's print Prestar, and e's empty Prestar.
    assert live.update_source(UNCALLED_EDIT)["saturations_kept"] == 3

    cold = SlicingSession(UNCALLED_EDIT)
    sdg = cold.sdg
    (e_print,) = [
        index
        for index, vid in enumerate(sdg.print_call_vertices())
        if sdg.vertices[vid].proc == "e"
    ]
    before = live.stats["saturation_misses"]
    assert pretty(live.executable(("print", e_print)).program) == pretty(
        cold.executable(("print", e_print)).program
    )
    assert live.stats["saturation_misses"] == before

    cache = str(tmp_path / "cache")
    writer = SlicingSession(UNCALLED, store=SliceStore(cache))
    writer.slice_many(criteria)
    assert writer.update_source(UNCALLED_EDIT)["saturations_kept"] == 3
    store = SliceStore(cache)
    assert len(store.get_sat_index(session_signature(writer))) == 3
    _drop_results(store)
    reader = SlicingSession(UNCALLED_EDIT, store=SliceStore(cache))
    assert pretty(reader.executable(("print", e_print)).program) == pretty(
        cold.executable(("print", e_print)).program
    )
    stats = reader.stats
    assert (stats["sat_persist_hits"], stats["sat_persist_misses"]) == (2, 0)


def test_evicted_artifact_under_live_index_is_an_index_miss(tmp_path):
    """A record whose artifact file was evicted between indexing and
    loading counts as a miss and falls through to an honest recompute
    — never a crash, never a wrong answer."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0), contexts="empty")
    store = SliceStore(cache)
    # Prime the size accounting so the reader's own front-half writes
    # don't trigger a compaction walk — the walk's index GC would
    # otherwise prune the stale record before the reader reads it.
    store._evict()
    for path, _size, _mtime in _by_table(store)["sat"]:
        os.unlink(path)

    reader = SlicingSession(LABEL_EDIT, store=store)
    executable = reader.executable(("print", 0), contexts="empty")
    assert reader.stats["sat_persist_hits"] == 0
    assert reader.stats["sat_persist_misses"] == 1
    assert store.stats()["sat_misses"] == 1
    cold = SlicingSession(LABEL_EDIT)
    assert pretty(executable.program) == pretty(
        cold.executable(("print", 0), contexts="empty").program
    )


# -- content-addressed saturation files and batched writes --------------------------


def _sat_files(store):
    return sorted(path for path, _size, _mtime in _by_table(store).get("sat", ()))


def test_adopting_revisions_share_one_sat_file(tmp_path):
    """Revisions a label edit separates share one index and one file per
    saturation: the second revision's answers write neither, and the
    orphan sweep keeps every file the shared index names."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    store = SliceStore(cache)
    files = _sat_files(store)
    assert len(files) == 2  # the shared Poststar and the Prestar
    index = store.get_sat_index(session_signature(writer))

    reader = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    reader.slice(("print", 0))
    assert reader.stats["sat_persist_hits"] == 2
    assert _sat_files(store) == files
    assert [signature for signature, _index in store.sat_indexes()] == [
        session_signature(reader)
    ]
    assert store.get_sat_index(session_signature(reader)) == index

    # Old enough for the orphan sweep, yet still named by the index.
    for path in files:
        _set_age(path, 10 * _TMP_GRACE_SECONDS)
    store._evict()
    assert _sat_files(store) == files
    fresh = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    fresh.slice(("print", 1))
    assert fresh.stats["sat_persist_hits"] == 1  # the Poststar
    assert fresh.stats["sat_persist_misses"] == 1  # print 1 was never filed


def test_orphan_sat_files_are_swept_after_the_grace_period(tmp_path):
    """A ``__sats__`` file no index record names is deleted by the
    compaction walk once it is older than the grace period; a young
    one may belong to a writer that has not merged its record yet, and
    is kept."""
    store = SliceStore(str(tmp_path / "cache"))
    old = store.put_sat("an orphan from a crashed writer")
    young = store.put_sat("a writer's file, record not merged yet")
    old_path = store._entry_path("__sats__", "sat", old)
    _set_age(old_path, 2 * _TMP_GRACE_SECONDS)
    store._evict()
    assert not os.path.exists(old_path)
    assert store.has_sat(young)


def test_corrupt_shared_sat_file_is_a_miss_on_every_revision(tmp_path):
    """A corrupt file shared by two revisions degrades each of them to
    an honest recompute, with answers byte-identical to a cold
    session's."""
    from repro.fsa.serialize import automaton_to_payload

    cache = str(tmp_path / "cache")
    criteria = [("print", 0), ("print", 1)]
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice_many(criteria)
    store = SliceStore(cache)
    name = store.get_sat_index(session_signature(writer))[POSTSTAR_DIGEST][3]
    path = store._entry_path("__sats__", "sat", name)
    for text in (SOURCE, LABEL_EDIT):
        # The previous revision's recompute re-filed the file; corrupt it
        # again, and drop the results so answers need the saturations.
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        for entry in glob.glob(os.path.join(cache, source_hash(text), "results-*.slc")):
            os.unlink(entry)

        reader = SlicingSession(text, store=SliceStore(cache))
        results = reader.slice_many(criteria)
        assert reader.stats["sat_persist_misses"] == 1  # the Poststar
        assert reader.stats["sat_persist_hits"] == 2  # both Prestars
        cold = SlicingSession(text)
        for criterion, result in zip(criteria, results):
            reference = cold.slice(criterion)
            assert automaton_to_payload(result.a6) == automaton_to_payload(reference.a6)
            assert pretty(reader.executable(criterion).program) == pretty(
                cold.executable(criterion).program
            )


def test_sat_file_under_the_wrong_record_is_a_miss(tmp_path):
    """A record whose file holds another saturation (its key differs
    from the record's) is a miss, never a wrong answer; the file itself
    is valid and stays."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    store = SliceStore(cache)
    signature = session_signature(writer)
    records = store.get_sat_index(signature)
    (prestar_digest,) = [digest for digest in records if digest != POSTSTAR_DIGEST]
    key, kind, footprint, _name = records[prestar_digest]
    poststar_file = records[POSTSTAR_DIGEST][3]
    store.merge_sat_index(signature, {prestar_digest: (key, kind, footprint, poststar_file)})
    assert store.get_sat(poststar_file, key) is None
    assert store.stats()["sat_misses"] == 1
    assert store.has_sat(poststar_file)

    # Results dropped, so the answer needs the Prestar.
    os.unlink(glob.glob(os.path.join(cache, writer.source_hash, "results-*.slc"))[0])
    reader = SlicingSession(SOURCE, store=SliceStore(cache))
    result = reader.slice(("print", 0))
    assert reader.stats["sat_persist_misses"] == 1  # the mislabeled Prestar
    assert reader.stats["sat_persist_hits"] == 1  # the Poststar, under its own record
    cold = SlicingSession(SOURCE)
    assert result.version_counts() == cold.slice(("print", 0)).version_counts()
    assert pretty(reader.executable(("print", 0)).program) == pretty(
        cold.executable(("print", 0)).program
    )


def test_first_write_reads_no_index(tmp_path, monkeypatch):
    """A fresh store object learns the store's size with a stat-only
    scan: under the cap, its first write reads no saturation index,
    however many the store holds.  An explicit compaction walk still
    reads (and GCs) every one."""
    cache = str(tmp_path / "cache")
    for extra in range(12):
        # Each revision adds statements: twelve pushdown systems.
        revision = SOURCE.replace("acc + 5;", "acc + 5;" + " acc = acc + 1;" * extra)
        SlicingSession(revision, store=SliceStore(cache)).slice(("print", 0))
    assert len(SliceStore(cache).sat_indexes()) == 12

    index_reads = []
    read = SliceStore._read

    def counting(store, path):
        if os.path.basename(path).startswith("idx-"):
            index_reads.append(path)
        return read(store, path)

    monkeypatch.setattr(SliceStore, "_read", counting)
    fresh = SliceStore(cache)
    fresh.put("f" * 64, "results", "first", "value")
    assert index_reads == []
    assert fresh.stats()["compactions"] == 0
    fresh._evict()
    assert len(index_reads) == 12


def _counting_store_io(monkeypatch):
    """Wrap the store's one read and one write function: returns the
    lists of ``(table, path)`` each call sees."""
    reads, writes = [], []
    read, write = SliceStore._read, SliceStore._write

    def counting_read(store, path):
        reads.append((store._entry_table(path), path))
        return read(store, path)

    def counting_write(store, path, value):
        writes.append((store._entry_table(path), path))
        return write(store, path, value)

    monkeypatch.setattr(SliceStore, "_read", counting_read)
    monkeypatch.setattr(SliceStore, "_write", counting_write)
    return reads, writes


def _label_revision(text, value):
    return text.replace("cat_3 = cat_3 + 1;", "cat_3 = cat_3 + %d;" % value)


def test_label_edit_reopen_reads_what_it_answers(tmp_path, monkeypatch):
    """On wc48, a label-edit reopen reads its pushdown system's one
    index and exactly two saturation files — the print's Prestar and
    the shared Poststar — before its first rendered slice, and writes
    no ``__sats__`` file, saturation or index, while answering every
    print."""
    from repro.workloads.wc import scaled_wc_source

    text = scaled_wc_source(48)
    cache = str(tmp_path / "cache")
    # An explicit cap: these counts pin the reads, not the evictor.
    writer = SlicingSession(text, store=SliceStore(cache, max_bytes=DEFAULT_MAX_BYTES))
    criteria = [("print", i) for i in range(len(writer.sdg.print_call_vertices()))]
    writer.slice_many(criteria)

    reads, writes = _counting_store_io(monkeypatch)
    reader = SlicingSession(
        _label_revision(text, 7), store=SliceStore(cache, max_bytes=DEFAULT_MAX_BYTES)
    )
    reader.executable(("print", 0))
    sats_reads = [table for table, path in reads if "__sats__" in path]
    assert sorted(sats_reads) == ["idx", "sat", "sat"]
    reader.slice_many(criteria)
    for criterion in criteria:
        reader.executable(criterion)
    assert [path for _table, path in writes if "__sats__" in path] == []
    stats = reader.stats
    assert stats["sat_persist_hits"] == len(criteria) + 1
    assert stats["kernel_worklist_pops"] == 0


def test_label_edit_reopens_read_the_same_at_any_revision(tmp_path, monkeypatch):
    """A label-edit reopen reads as many store files at a store's 20th
    revision as at its 2nd: it reads its own system's index, not those
    of the revisions before it."""
    from repro.workloads.wc import scaled_wc_source

    text = scaled_wc_source(48)
    cache = str(tmp_path / "cache")

    def store():
        # An explicit cap: these counts pin the reads, not the evictor.
        return SliceStore(cache, max_bytes=DEFAULT_MAX_BYTES)

    SlicingSession(text, store=store()).slice(("print", 0))
    reads, _writes = _counting_store_io(monkeypatch)
    counts = {}
    for revision in range(2, 21):
        del reads[:]
        reader = SlicingSession(_label_revision(text, revision), store=store())
        reader.executable(("print", 0))
        counts[revision] = len(reads)
        assert reader.stats["sat_persist_hits"] == 2, revision
    assert counts[20] == counts[2]
    assert len(SliceStore(cache).sat_indexes()) == 1


def test_reopens_write_only_what_is_new(tmp_path, monkeypatch):
    """Write counts of the store-backed editor loop on scaled wc (32
    categories, 35 prints): a cold batch writes its system's index once
    per saturation pass and its results as one entry; a label-edit
    reopen loads from the shared index and writes at most four files,
    none in ``__sats__``; a structural-edit reopen, which computes its
    own saturations, at most 45; reopening unchanged text writes
    nothing.  (One file per entry, one index write per saturation and
    re-filed adoptions wrote 36, 35, 75 and 111; re-filed adoptions
    alone, 36, 6, 45 and 0.)"""
    from repro.workloads.wc import scaled_wc_source

    text = scaled_wc_source(32)
    label = text.replace("cat_3 = cat_3 + 1;", "cat_3 = cat_3 + 7;")
    structural = text.replace(
        "void count_cat_3(int c) {\n", "void count_cat_3(int c) {\n  int t = 1;\n"
    )
    assert label != text and structural != text
    written = collections.Counter()
    pickled_sats = []
    write, put_sat = SliceStore._write, SliceStore.put_sat

    def counting_write(store, path, value):
        written[store._entry_table(path)] += 1
        return write(store, path, value)

    def counting_put_sat(store, value):
        pickled_sats.append(value)
        return put_sat(store, value)

    monkeypatch.setattr(SliceStore, "_write", counting_write)
    monkeypatch.setattr(SliceStore, "put_sat", counting_put_sat)

    # An explicit cap: these counts pin the writes, not the evictor.
    seed = str(tmp_path / "seed")
    cold = SlicingSession(text, store=SliceStore(seed, max_bytes=DEFAULT_MAX_BYTES))
    criteria = [("print", index) for index in range(len(cold.sdg.print_call_vertices()))]
    assert len(criteria) == 35
    written.clear()
    cold.slice_many(criteria)
    assert cold.stats["fused_batches"] == 1
    # One index write for the shared Poststar's pass, one for the fused
    # Prestar pass.
    assert written["idx"] == 2
    assert written["results"] == 1
    assert written["sat"] == len(criteria) + 1

    def reopen(revision, name):
        cache = str(tmp_path / name)
        shutil.copytree(seed, cache)
        written.clear()
        del pickled_sats[:]
        session = SlicingSession(revision, store=SliceStore(cache, max_bytes=DEFAULT_MAX_BYTES))
        session.executable(criteria[0])
        session.slice_many(criteria)
        for criterion in criteria:
            session.executable(criterion)
        return session, dict(written)

    session, label_writes = reopen(label, "label")
    assert session.stats["sat_persist_hits"] == len(criteria) + 1
    assert "sat" not in label_writes and pickled_sats == []
    assert "idx" not in label_writes
    assert sum(label_writes.values()) <= 4
    _session, structural_writes = reopen(structural, "structural")
    assert sum(structural_writes.values()) <= 45
    _session, unchanged_writes = reopen(text, "unchanged")
    assert unchanged_writes == {}


# -- the counters, end to end ------------------------------------------------------


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def test_cache_stats_surface_economics_counters(tmp_path):
    """``repro cache stats`` (text and ``--json``) reports the
    economics counters: write/config errors and the cross-process
    lifetime GC totals."""
    import json

    cache = str(tmp_path / "cache")
    SlicingSession(SOURCE, store=SliceStore(cache)).slice(("print", 0))
    store = SliceStore(cache)
    for path, _size, _mtime in _by_table(store)["sat"]:
        os.unlink(path)
    store._evict()  # prunes 2 index records into the lifetime sidecar

    text = run_cli(["cache", "stats", "--cache-dir", cache])
    assert "lifetime:" in text and "index records pruned" in text
    assert "write errors" in text

    stats = json.loads(run_cli(["cache", "stats", "--json", "--cache-dir", cache]))
    for counter in ("write_errors", "config_errors"):
        assert counter in stats, counter
    assert stats["lifetime"]["gc_index_pruned"] == 2
    assert stats["lifetime"]["compactions"] >= 1
    assert "idx" not in stats["tables"]  # an index with no records is deleted
