"""Cache economics and cross-revision discovery.

Two halves of one story (ISSUE 8):

* **Cost-aware eviction** — under a tight ``max_bytes`` cap the store
  sheds entries cheapest-to-rebuild first (slim results, then
  per-procedure parts, then Prestar artifacts, then Poststars, with
  front-half bundles and saturation indexes last), using recency only
  as the tie-break within a tier.  The flat-LRU regression is pinned
  by *simulating* the old policy over the same entry set and showing
  it would have dropped the shared Poststar that the tiered policy
  keeps — and that a warm reopen after real eviction answers without
  re-saturating it.

* **Cross-revision discovery** — a cold process opening *edited*
  source adopts the previous revision's saturation artifacts through
  the footprint-indexed ``__sats__`` lookup, with no live donor
  session, composing with the ``__procs__`` partial front-half path;
  adopted artifacts must yield byte-identical results.
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
#: every artifact transfers across the revisions
LABEL_EDIT = SOURCE.replace("acc + 5", "acc + 9")
#: structural edit confined to ``noise`` (new vertex): artifacts whose
#: footprint avoids ``noise`` survive, the rest do not
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
    record = store.get_sat_index(session.source_hash)["artifacts"][POSTSTAR_DIGEST]
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
    src_hash = session.source_hash
    before = store.get_sat_index(src_hash)
    assert len(before["artifacts"]) == 2
    for path, _size, _mtime in _by_table(store)["sat"]:
        os.unlink(path)
    store._evict()  # a compaction walk (under cap: GC only)
    after = store.get_sat_index(src_hash)
    assert after is not None and after["artifacts"] == {}
    assert store.stats()["gc_index_pruned"] == 2
    # The lifetime counters survive into a fresh store object.
    lifetime = SliceStore(cache).stats()["lifetime"]
    assert lifetime["gc_index_pruned"] == 2
    assert lifetime["compactions"] >= 1
    # With the records gone *and* the revision's front half gone, the
    # index file itself is dropped on the next walk.
    os.unlink(store._entry_path(src_hash, "fronthalf", None))
    store._evict()
    assert SliceStore(cache).get_sat_index(src_hash) is None


# -- cross-revision discovery ------------------------------------------------------


def test_cold_process_adopts_after_label_edit(tmp_path):
    """The tentpole scenario: a cold process opening a constant-edited
    text adopts *every* artifact of the previous revision through the
    footprint index — no live donor session, no saturation work — and
    composes with the ``__procs__`` partial front-half path."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    writer.slice(("print", 1))

    reader = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    stats = reader.stats
    # Front half: bundle missed (new hash), parts hit for all but the
    # edited procedure.
    assert stats["front_half_from_store"] is False
    assert stats["front_half_parts_total"] == 3
    assert stats["front_half_parts_hits"] == 2
    # Discovery: Poststar + both Prestars adopted.
    assert stats["sats_adopted"] == 3
    assert reader.store.stats()["index_hits"] == 3
    reader.slice(("print", 0))
    reader.slice(("print", 1))
    assert stats["saturation_misses"] == 0  # memo-warm from adoption

    cold = SlicingSession(LABEL_EDIT)
    for index in (0, 1):
        assert pretty(reader.executable(("print", index)).program) == pretty(
            cold.executable(("print", index)).program
        )


def test_adoption_is_refiled_once_per_edit(tmp_path):
    """Adoption re-files survivors (artifacts + index records) under
    the new revision's hash, so the *next* cold open of the same text
    skips discovery entirely and loads directly."""
    cache = str(tmp_path / "cache")
    SlicingSession(SOURCE, store=SliceStore(cache)).slice(("print", 0))
    first = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    assert first.stats["sats_adopted"] >= 1

    second = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    assert second.stats["sats_adopted"] == 0  # own index already warm
    second.slice(("print", 0))
    assert second.stats["sat_persist_misses"] == 0


def test_structural_edit_adopts_only_surviving_footprints(tmp_path):
    """Discovery replays ``update_source``'s survival rule: after a
    structural edit inside ``noise``, the empty-contexts Prestar whose
    cone avoids ``noise`` transfers; the Poststar (footprint touches
    everything) does not."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0), contexts="empty")

    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    assert reader.stats["sats_adopted"] == 1
    result = reader.slice(("print", 0), contexts="empty")
    assert reader.stats["saturation_misses"] == 0
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(
        reader.executable(("print", 0), contexts="empty").program
    ) == pretty(cold.executable(("print", 0), contexts="empty").program)
    assert result.version_counts() == cold.slice(
        ("print", 0), contexts="empty"
    ).version_counts()


def test_reachable_prestar_adopted_when_its_criterion_is_unchanged(tmp_path):
    """A reachable-contexts Prestar bakes the donor's Poststar language
    into its query, so it transfers only when its criterion did not
    change.  The edit inside ``noise`` changes the Poststar (whose
    footprint covers everything), but print 0's only context is main's
    empty stack on both sides: its Prestar is adopted, and the answers
    are the cold ones."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))  # reachable contexts (the default)

    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    assert reader.stats["sats_adopted"] == 1
    result = reader.slice(("print", 0))
    # The Poststar the check compared against is the only saturation.
    assert reader.stats["saturation_misses"] == 1
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(reader.executable(("print", 0)).program) == pretty(
        cold.executable(("print", 0)).program
    )
    assert result.version_counts() == cold.slice(("print", 0)).version_counts()


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
    through ``other``.  Both survival paths compare the criteria and
    keep nothing; the answers are the cold ones."""
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
    assert reader.stats["sats_adopted"] == 0

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
    50 results; a store-backed reopen adopts the same 50 Prestars, and
    answering every print then saturates only the Poststar and
    ``count_cat_3``'s print."""
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
    assert reader.stats["sats_adopted"] == 50
    reader.slice_many(criteria)
    assert reader.stats["saturation_misses"] == 2


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
    ``update_source`` and a cold process's discovery both keep the
    empty Prestar of the uncalled ``e``'s print across an edit in
    ``d``: the Poststar carried over, so that print is still
    unreachable and its Prestar still empty."""
    live = SlicingSession(UNCALLED)
    criteria = [
        ("print", index) for index in range(len(live.sdg.print_call_vertices()))
    ]
    live.slice_many(criteria)
    # The Poststar, main's print Prestar, and e's empty Prestar.
    assert live.update_source(UNCALLED_EDIT)["saturations_kept"] == 3

    cache = str(tmp_path / "cache")
    SlicingSession(UNCALLED, store=SliceStore(cache)).slice_many(criteria)
    reader = SlicingSession(UNCALLED_EDIT, store=SliceStore(cache))
    assert reader.stats["sats_adopted"] == 3

    cold = SlicingSession(UNCALLED_EDIT)
    sdg = cold.sdg
    (e_print,) = [
        index
        for index, vid in enumerate(sdg.print_call_vertices())
        if sdg.vertices[vid].proc == "e"
    ]
    assert pretty(reader.executable(("print", e_print)).program) == pretty(
        cold.executable(("print", e_print)).program
    )
    assert reader.stats["saturation_misses"] == 0


def test_evicted_artifact_under_live_index_is_an_index_miss(tmp_path):
    """A record whose artifact file was evicted between indexing and
    discovery counts as ``index_misses`` and falls through to an honest
    recompute — never a crash, never a wrong answer."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0), contexts="empty")
    store = SliceStore(cache)
    # Prime the size accounting so the reader's own front-half writes
    # don't trigger a compaction walk — the walk's index GC would
    # otherwise prune the stale record before discovery ever reads it.
    store._evict()
    for path, _size, _mtime in _by_table(store)["sat"]:
        os.unlink(path)

    reader = SlicingSession(STRUCTURAL_EDIT, store=store)
    assert reader.stats["sats_adopted"] == 0
    assert store.stats()["index_misses"] >= 1
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(
        reader.executable(("print", 0), contexts="empty").program
    ) == pretty(cold.executable(("print", 0), contexts="empty").program)


# -- content-addressed saturation files and batched writes --------------------------


def _sat_files(store):
    return sorted(path for path, _size, _mtime in _by_table(store).get("sat", ()))


def _record_names(store, src_hash):
    return sorted(record[3] for record in store.get_sat_index(src_hash)["artifacts"].values())


def test_adopting_revisions_share_one_sat_file(tmp_path):
    """A label-edit adoption names the donor's ``__sats__`` files
    instead of copying them: two revisions, one file per saturation.
    Dropping one revision's index leaves the files to the other."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))
    store = SliceStore(cache)
    files = _sat_files(store)
    assert len(files) == 2  # the shared Poststar and the Prestar

    reader = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    assert reader.stats["sats_adopted"] == 2
    assert _sat_files(store) == files
    assert _record_names(store, reader.source_hash) == _record_names(
        store, writer.source_hash
    )

    # Old enough for the orphan sweep, yet still named by the edit's index.
    os.unlink(store._sat_index_path(writer.source_hash))
    for path in files:
        _set_age(path, 10 * _TMP_GRACE_SECONDS)
    store._evict()
    assert _sat_files(store) == files
    fresh = SlicingSession(LABEL_EDIT, store=SliceStore(cache))
    fresh.slice(("print", 0))
    assert fresh.stats["sat_persist_hits"] == 2
    assert fresh.stats["sat_persist_misses"] == 0


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
    SlicingSession(SOURCE, store=SliceStore(cache)).slice_many(criteria)
    assert SlicingSession(LABEL_EDIT, store=SliceStore(cache)).stats["sats_adopted"] == 3
    store = SliceStore(cache)
    name = store.get_sat_index(source_hash(SOURCE))["artifacts"][POSTSTAR_DIGEST][3]
    assert name in _record_names(store, source_hash(LABEL_EDIT))
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
    records = store.get_sat_index(writer.source_hash)["artifacts"]
    (prestar_digest,) = [digest for digest in records if digest != POSTSTAR_DIGEST]
    key, kind, footprint, _name = records[prestar_digest]
    poststar_file = records[POSTSTAR_DIGEST][3]
    store.merge_sat_index(
        writer.source_hash, records={prestar_digest: (key, kind, footprint, poststar_file)}
    )
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
    however many revisions the store holds.  An explicit compaction
    walk still reads (and GCs) every one."""
    cache = str(tmp_path / "cache")
    for value in range(12):
        revision = SOURCE.replace("acc + 5", "acc + %d" % (value + 10))
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


def test_reopens_write_only_what_is_new(tmp_path, monkeypatch):
    """Write counts of the store-backed editor loop on scaled wc (32
    categories, 35 prints): a cold batch writes the revision index once
    per saturation pass and its results as one entry; a label-edit
    reopen names the donor's saturation files and writes at most six
    files; a structural-edit reopen at most 45; reopening unchanged
    text writes nothing.  (One file per entry, one index write per
    saturation and re-filed adoptions wrote 36, 35, 75 and 111.)"""
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
    assert session.stats["sats_adopted"] == len(criteria) + 1
    assert "sat" not in label_writes and pickled_sats == []
    assert label_writes["idx"] == 1
    assert sum(label_writes.values()) <= 6
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
    """``repro cache stats`` (text and ``--json``) reports the new
    economics counters: write/config errors, index hits/misses, and
    the cross-process lifetime GC totals."""
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
    for counter in ("write_errors", "config_errors", "index_hits", "index_misses"):
        assert counter in stats, counter
    assert stats["lifetime"]["gc_index_pruned"] == 2
    assert stats["lifetime"]["compactions"] >= 1
    assert stats["tables"]["idx"] == 1
