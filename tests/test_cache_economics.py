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

import os
import time

import pytest

from repro.cli import build_parser
from repro.engine import SlicingSession, stable_key_digest
from repro.engine.canonical import REACHABLE_KEY
from repro.lang import pretty
from repro.store import SliceStore
from repro.store.store import (
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
    # The compiled-PDS payload is a cheap-to-rebuild entry that sheds
    # with the parts tier.
    assert set(groups) == {"fronthalf", "slice", "proc", "sat", "idx", "pds"}
    shed_tables = ("slice", "proc", "pds")

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
    poststar_path = store._entry_path(
        "__sats__", "sat", store.sat_name(session.source_hash, POSTSTAR_DIGEST)
    )
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
    assert {path for path, _size, _mtime in groups["slice"]} - surviving


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
        if table == "slice":
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
    slice_bytes = sum(size for _path, size, _mtime in groups["slice"])
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


def test_reachable_prestar_gated_on_poststar_record(tmp_path):
    """A reachable-contexts Prestar bakes in the donor's Poststar
    language, so it transfers only when the Poststar *record* passes
    the footprint test too — after an edit the Poststar saw, neither
    transfers and the cold session recomputes."""
    cache = str(tmp_path / "cache")
    writer = SlicingSession(SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))  # reachable contexts (the default)

    reader = SlicingSession(STRUCTURAL_EDIT, store=SliceStore(cache))
    assert reader.stats["sats_adopted"] == 0
    result = reader.slice(("print", 0))
    assert reader.stats["saturation_misses"] == 2  # honest recompute
    cold = SlicingSession(STRUCTURAL_EDIT)
    assert pretty(reader.executable(("print", 0)).program) == pretty(
        cold.executable(("print", 0)).program
    )
    assert result.version_counts() == cold.slice(("print", 0)).version_counts()


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
