"""Tests for the batched slicing engine (:mod:`repro.engine`)."""

import pytest

import repro
from repro.core import remove_feature, specialization_slice
from repro.engine import SlicingSession, canonical_key, resolve_criterion_spec
from repro.workloads.paper_figures import FIG1_SOURCE, FIG16_SOURCE

pytestmark = pytest.mark.smoke


# -- open_session caching and invalidation ----------------------------------------


def test_open_session_reuses_identical_source():
    first = repro.open_session(FIG1_SOURCE)
    second = repro.open_session(FIG1_SOURCE)
    assert first is second


def test_mutated_source_gets_fresh_session():
    """Satellite requirement: mutating the source and re-opening must
    not serve stale SDG/automaton results."""
    # p(g2, 3) is live for the criterion print (b flows to g2); mutate it.
    mutated = FIG1_SOURCE.replace("p(g2, 3)", "p(g2, 33)")
    assert mutated != FIG1_SOURCE
    stale = repro.open_session(FIG1_SOURCE)
    stale_text = repro.pretty(stale.executable().program)
    fresh = repro.open_session(mutated)
    assert fresh is not stale
    assert fresh.sdg is not stale.sdg
    fresh_text = repro.pretty(fresh.executable().program)
    assert "33" in fresh_text
    assert "33" not in stale_text
    # 2 + 33 at the final call site; the stale session still prints 5.
    assert repro.run_program(fresh.executable().program).values == [35]
    assert repro.run_program(stale.executable().program).values == [5]
    # The original session still answers for the original source.
    assert repro.open_session(FIG1_SOURCE) is stale


def test_session_cache_is_bounded():
    cache_max = repro._SESSION_CACHE_MAX
    for index in range(cache_max + 4):
        repro.open_session("int main() { print(\"%%d\", %d); return 0; }" % index)
    assert len(repro._session_cache) <= cache_max


# -- criterion memoization ---------------------------------------------------------


def test_identical_criteria_hit_the_memo():
    session = SlicingSession(FIG1_SOURCE)
    first = session.slice()
    stats = session.stats
    assert stats["slice_misses"] == 1 and stats["slice_hits"] == 0
    second = session.slice("prints")
    third = session.slice(("print", None))
    assert second is first and third is first
    stats = session.stats
    assert stats["slice_misses"] == 1 and stats["slice_hits"] == 2


def test_vertex_spelling_variants_share_one_entry():
    session = SlicingSession(FIG1_SOURCE)
    vids = sorted(session.sdg.print_criterion())
    results = {
        id(session.slice(tuple(vids))),
        id(session.slice(list(reversed(vids)))),
        id(session.slice(set(vids))),
    }
    assert len(results) == 1
    assert session.stats["slice_misses"] == 1


def test_contexts_mode_distinguishes_criteria():
    session = SlicingSession(FIG1_SOURCE)
    vids = sorted(session.sdg.print_criterion())
    reachable = session.slice(vids, contexts="reachable")
    empty = session.slice(vids, contexts="empty")
    assert reachable is not empty
    assert session.stats["slice_misses"] == 2


def test_prestar_saturation_memoized_separately():
    session = SlicingSession(FIG1_SOURCE)
    session.slice()
    stats = session.stats
    # reachable-configs (shared) + one per-criterion Prestar.
    assert stats["saturation_misses"] == 2
    session.slice(("print", 0))  # same single print -> same vertex set
    assert session.stats["saturation_misses"] == 2


def test_slice_many_dedupes_and_preserves_order():
    session = SlicingSession(FIG1_SOURCE)
    results = session.slice_many([("print", 0), "prints", ("print", 0)])
    assert len(results) == 3
    assert results[0] is results[2]
    # FIG1 has a single print, so all three specs canonicalize equally.
    assert results[0] is results[1]
    assert session.stats["slice_misses"] == 1


def test_slice_many_answers_every_criterion_in_the_calling_thread(monkeypatch):
    import threading

    import repro.engine.session as session_module

    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return specialization_slice(*args, **kwargs)

    monkeypatch.setattr(session_module, "specialization_slice", recording)
    session = SlicingSession(FIG16_SOURCE)
    prints = len(session.sdg.print_call_vertices())
    assert prints > 1
    session.slice_many([("print", index) for index in range(prints)])
    assert threads == [threading.get_ident()] * prints


def test_session_matches_one_shot_pipeline():
    session = SlicingSession(FIG1_SOURCE)
    via_session = session.executable()
    one_shot = repro.slice_source(FIG1_SOURCE)
    assert repro.pretty(via_session.program) == repro.pretty(one_shot.program)
    assert repro.run_program(via_session.program).values == [5]
    direct = specialization_slice(session.sdg, session.sdg.print_criterion())
    assert via_session.result.closure_elems() == direct.closure_elems()
    assert via_session.result.version_counts() == direct.version_counts()


def test_executable_memoized():
    session = SlicingSession(FIG1_SOURCE)
    assert session.executable() is session.executable("prints")
    stats = session.stats
    assert stats["executable_misses"] == 1 and stats["executable_hits"] == 1


def test_configs_criterion_spec():
    """Explicit configuration criteria (the §8 bug-site style) go
    through the same memo."""
    session = SlicingSession(FIG1_SOURCE)
    vids = sorted(session.sdg.print_criterion())
    configs = [(vid, ()) for vid in vids]  # criterion prints live in main
    result = session.slice(configs)
    again = session.slice(tuple(reversed(configs)))
    assert again is result
    empty_ctx = session.slice(vids, contexts="empty")
    assert result.closure_elems() == empty_ctx.closure_elems()


def test_automaton_criterion_keyed_structurally():
    from repro.core.criteria import empty_stack_criterion

    session = SlicingSession(FIG1_SOURCE)
    vids = sorted(session.sdg.print_criterion())
    first = session.slice(empty_stack_criterion(session.encoding, vids))
    second = session.slice(empty_stack_criterion(session.encoding, vids))
    assert first is second
    assert session.stats["slice_misses"] == 1


def test_one_shot_iterable_criteria():
    """Generator criteria must be resolved exactly once — never drained
    by a pre-scan and then re-read as empty."""
    session = SlicingSession(FIG1_SOURCE)
    vids = sorted(session.sdg.print_criterion())
    from_generator = session.slice_many([iter(vids)])[0]
    assert from_generator is session.slice(vids)
    assert set(from_generator.map_back_vertex.values())  # not the empty slice
    via_executable = session.executable(iter(vids))
    assert via_executable.result is from_generator


def test_unknown_criterion_string_is_rejected():
    session = SlicingSession(FIG1_SOURCE)
    with pytest.raises(ValueError, match="unknown criterion string"):
        session.slice("print")  # the easy typo for "prints"


def test_criterion_validation():
    session = SlicingSession(FIG1_SOURCE)
    with pytest.raises(ValueError):
        session.slice(("print", 99))
    with pytest.raises(ValueError):
        session.slice([10**9])  # unknown vertex id
    with pytest.raises(ValueError):
        session.slice(session.sdg.print_criterion(), contexts="bogus")
    # A failed computation must not poison the memo.
    assert session.stats["slice_misses"] == 1
    session.slice()


def test_session_remove_feature_matches_module_function():
    session = SlicingSession(FIG16_SOURCE)
    via_session = session.remove_feature("int prod = 1")
    assert session.remove_feature("int prod = 1") is via_session
    seeds = {
        vid
        for vid, vertex in session.sdg.vertices.items()
        if vertex.kind in ("statement", "call") and "int prod = 1" in vertex.label
    }
    direct = remove_feature(session.sdg, seeds)
    assert via_session.sdg.vertex_count() == direct.sdg.vertex_count()
    with pytest.raises(ValueError):
        session.remove_feature("no such statement text")


def test_session_remove_feature_cleaned_memoized():
    """The §7 cleanup pass runs through the session with its own memo
    table (ROADMAP open item), and matches the module-level
    :func:`clean_feature_removal` exactly."""
    from repro.core.cleanup import clean_feature_removal

    session = SlicingSession(FIG16_SOURCE)
    raw, cleaned = session.remove_feature_cleaned("int prod = 1")
    stats = session.stats
    assert stats["feature_clean_misses"] == 1 and stats["feature_clean_hits"] == 0
    # Resubmitting is a dictionary lookup returning the same objects.
    raw_again, cleaned_again = session.remove_feature_cleaned("int prod = 1")
    assert raw_again is raw and cleaned_again is cleaned
    stats = session.stats
    assert stats["feature_clean_hits"] == 1
    # The cleanup reuses the memoized removal (one feature miss total).
    assert stats["feature_misses"] == 1
    # Same answer as the module-level pass it folds in.
    result = session.remove_feature("int prod = 1")
    direct_raw, direct_cleaned = clean_feature_removal(result)
    assert repro.pretty(cleaned.program) == repro.pretty(direct_cleaned.program)
    assert repro.pretty(raw.program) == repro.pretty(direct_raw.program)
    assert cleaned.result is result
    # The cleaned program still runs (the §7 guarantee: cleanup removes
    # only useless code).
    assert (
        repro.run_program(cleaned.program).values
        == repro.run_program(raw.program).values
    )


def test_remove_feature_source_routes_through_session():
    """The one-call helper now shares the session memo: repeating a
    removal touches the cleanup table once."""
    # A whitespace variant hashes to its own session, so counters are
    # not shared with other tests that use FIG16_SOURCE.
    source = FIG16_SOURCE + "\n"
    first = repro.remove_feature_source(source, "int prod = 1")
    second = repro.remove_feature_source(source, "int prod = 1")
    assert first is second  # same memoized ExecutableSlice
    session = repro.open_session(source)
    assert session.stats["feature_clean_misses"] == 1
    assert session.stats["feature_clean_hits"] == 1


# -- update_source invalidation edge cases ----------------------------------------


WC_LIKE = """
int total;
int evens;

void note_total(int c) {
  total = total + c;
}

void note_even(int c) {
  if (c % 2 == 0) {
    evens = evens + 1;
  }
}

void scan() {
  int c = input();
  while (c != 0) {
    note_total(c);
    note_even(c);
    c = input();
  }
}

int main() {
  total = 0;
  evens = 0;
  scan();
  print("%d", total);
  print("%d", evens);
  return 0;
}
"""


def _assert_matches_cold(session, edited):
    cold = SlicingSession(edited)
    for index in range(len(cold.sdg.print_call_vertices())):
        assert repro.pretty(session.executable(("print", index)).program) == (
            repro.pretty(cold.executable(("print", index)).program)
        ), index
    return cold


def test_update_source_noop_and_validation():
    session = SlicingSession(WC_LIKE)
    summary = session.update_source(WC_LIKE)
    assert summary["noop"] is True and summary["procs_rebuilt"] == 0
    # Bad text leaves the session fully intact (front end runs first).
    with pytest.raises(Exception):
        session.update_source("int main() { syntax error")
    with pytest.raises(Exception):
        session.update_source("int main() { x = 1; return 0; }")  # undeclared
    # (no inputs: the scan loop never runs, total stays 0)
    assert repro.run_program(session.executable(("print", 0)).program).values == [0]


def test_update_source_keeps_untouched_saturations():
    """A label-only edit in one procedure keeps every saturation and
    the slice results whose cones avoid it."""
    session = SlicingSession(WC_LIKE)
    session.slice(("print", 0))  # total: does not depend on note_even
    session.slice(("print", 1))  # evens: depends on note_even
    edited = WC_LIKE.replace("evens = evens + 1", "evens = evens + 2")
    summary = session.update_source(edited)
    assert summary["fast_path"] is True
    assert summary["procs_rebuilt"] == 1
    assert summary["saturations_dropped"] == 0
    # print 0's slice/executable survive; print 1's are recomputed.
    assert summary["results_kept"] >= 1 and summary["results_dropped"] >= 1
    before = session.stats["saturation_misses"]
    _assert_matches_cold(session, edited)
    # Re-slicing print 1 found its Prestar in the kept memo: the only
    # saturation work after the update is zero.
    assert session.stats["saturation_misses"] == before


def test_update_source_add_and_delete_procedure():
    session = SlicingSession(WC_LIKE)
    session.slice(("print", 0))
    # Add a procedure (and a call to it): main changes, the rest keep
    # their keys; the program signature is untouched.
    added = WC_LIKE.replace(
        "int main() {",
        "void reset() {\n  total = 0;\n}\n\nint main() {\n  reset();",
    )
    summary = session.update_source(added)
    assert summary["procs_rebuilt"] == 2  # reset (new) + main (edited)
    assert summary["procs_reused"] == 3
    _assert_matches_cold(session, added)
    # Delete it again: back to the original text.
    summary = session.update_source(WC_LIKE)
    assert summary["procs_removed"] == 1
    _assert_matches_cold(session, WC_LIKE)


def test_update_source_edit_to_main():
    """Edits to main structurally change every realizable context, so
    reachable-mode saturations must not survive a structural main
    edit; results still match a cold session exactly."""
    session = SlicingSession(WC_LIKE)
    session.slice(("print", 0))
    session.slice(("print", 1))
    edited = WC_LIKE.replace('print("%d", evens);\n', "")
    summary = session.update_source(edited)
    assert summary["fast_path"] is False
    assert summary["procs_rebuilt"] == 1  # main only
    assert summary["saturations_kept"] == 0  # poststar touches main
    cold = _assert_matches_cold(session, edited)
    assert len(cold.sdg.print_call_vertices()) == 1


def test_update_source_changes_funcptr_target_set():
    """The content keys are computed over the *lowered* program, so an
    edit that changes a function pointer's points-to set rebuilds the
    dispatch procedure."""
    base = (
        "fnptr p = &f;\n"
        "int main() {\n"
        "  int x = input();\n"
        "  if (x > 0) { p = &g; }\n"
        "  int y = p(x);\n"
        '  print("%d", y);\n'
        "  return 0;\n"
        "}\n"
        "int f(int a) { return a + 1; }\n"
        "int g(int a) { return a + 2; }\n"
        "int h(int a) { return a + 3; }\n"
    )
    session = SlicingSession(base)
    session.slice(("print", 0))
    edited = base.replace("p = &g;", "p = &h;")
    summary = session.update_source(edited)
    # main's text changed and the dispatcher's target set changed.
    assert summary["procs_rebuilt"] >= 2
    cold = _assert_matches_cold(session, edited)
    rendered = repro.pretty(session.executable(("print", 0)).program)
    assert "h(" in rendered and rendered == repro.pretty(
        cold.executable(("print", 0)).program
    )


def test_update_source_rekeys_open_session():
    base = WC_LIKE + "// rekey marker\n"
    edited = base.replace("evens + 1", "evens + 5")
    session = repro.open_session(base)
    session.update_source(edited)
    # The registry follows the session to its new hash...
    assert repro.open_session(edited) is session
    # ...and the old hash gets a fresh session, not the mutated one.
    assert repro.open_session(base) is not session


def test_update_source_with_configs_and_empty_criteria():
    """Configuration-set and empty-context criteria pin their contexts
    explicitly (no Poststar dependence): they survive a structural
    edit elsewhere, and match cold sessions either way."""
    session = SlicingSession(WC_LIKE)
    vids = tuple(sorted(session.sdg.print_criterion()))
    configs = tuple((vid, ()) for vid in vids)
    session.slice(configs)
    session.slice(vids, contexts="empty")
    # Structural edit in a leaf the criterion (in main) never reaches
    # backwards... it does reach note_even via flow; the point here is
    # exercising the slow path with non-reachable-mode entries.
    edited = WC_LIKE.replace(
        "evens = evens + 1;", "evens = evens + 1;\n    evens = evens + 0;"
    )
    summary = session.update_source(edited)
    assert summary["fast_path"] is False
    cold = SlicingSession(edited)
    cold_vids = tuple(sorted(cold.sdg.print_criterion()))
    assert repro.pretty(
        session.executable(tuple((vid, ()) for vid in cold_vids)).program
    ) == repro.pretty(
        cold.executable(tuple((vid, ()) for vid in cold_vids)).program
    )
    assert repro.pretty(
        session.executable(cold_vids, contexts="empty").program
    ) == repro.pretty(cold.executable(cold_vids, contexts="empty").program)


def test_update_source_keeps_vertex_ids_of_unchanged_procs():
    """Vertex-id criteria held across a fast-path update stay valid:
    unchanged procedures keep their exact vertex ids."""
    session = SlicingSession(WC_LIKE)
    vids = tuple(sorted(session.sdg.print_criterion()))
    before = session.slice(vids)
    edited = WC_LIKE.replace("total + c", "total + c + 0")
    session.update_source(edited)
    after = session.slice(vids)
    assert set(after.map_back_vertex.values()) and after is not before


# -- incremental feature removal (artifact-footprint survival) --------------------


#: do_junk's whole effect cone is the removable feature; do_kept stays.
FEATURE_SRC = """
int kept;
int junk;

void do_junk(int c) {
  junk = junk + c + 1;
}

void do_kept(int c) {
  kept = kept + c + 1;
}

int main() {
  int c = input();
  kept = 0;
  junk = 0;
  do_junk(c);
  do_kept(c);
  print("%d", kept);
  print("%d", junk);
  return 0;
}
"""


def test_update_source_keeps_feature_removal_outside_footprint():
    """Feature-removal results are no longer dropped unconditionally on
    update: removing the ``call do_junk`` statement leaves a residual program
    whose footprint avoids do_junk entirely, so a label-only edit
    *inside the removed feature* keeps the memoized removal, its §7
    cleanup, and every saturation — zero recomputation."""
    session = SlicingSession(FEATURE_SRC)
    raw, cleaned = session.remove_feature_cleaned("call do_junk")
    result = session.remove_feature("call do_junk")
    keys = session._content_keys()
    assert result.footprint is not None
    assert keys["do_junk"] not in result.footprint
    assert keys["do_kept"] in result.footprint

    edited = FEATURE_SRC.replace("junk + c + 1", "junk + c + 2")
    summary = session.update_source(edited)
    assert summary["fast_path"] is True
    assert summary["results_kept"] >= 2  # the removal and its cleanup
    misses_before = session.stats
    raw_again, cleaned_again = session.remove_feature_cleaned("call do_junk")
    assert raw_again is raw and cleaned_again is cleaned
    after = session.stats
    assert after["feature_misses"] == misses_before["feature_misses"]
    assert after["saturation_misses"] == misses_before["saturation_misses"]
    # The edit only touched the removed feature, so the survivor is
    # still byte-identical to a cold removal of the edited text.
    cold = SlicingSession(edited)
    _cold_raw, cold_cleaned = cold.remove_feature_cleaned("call do_junk")
    assert repro.pretty(cleaned_again.program) == repro.pretty(cold_cleaned.program)


def test_update_source_drops_feature_removal_inside_footprint():
    """The invalidation edge case: an edit *in the kept cone* (do_kept
    renders into the residual program) must drop the removal — keeping
    it would serve a stale rendered text — and the recomputation must
    match a cold session."""
    session = SlicingSession(FEATURE_SRC)
    session.remove_feature_cleaned("call do_junk")
    edited = FEATURE_SRC.replace("kept + c + 1", "kept + c + 2")
    summary = session.update_source(edited)
    assert summary["fast_path"] is True
    assert summary["results_dropped"] >= 2  # the removal and its cleanup
    _raw, cleaned = session.remove_feature_cleaned("call do_junk")
    assert "c + 2" in repro.pretty(cleaned.program)
    cold = SlicingSession(edited)
    _cold_raw, cold_cleaned = cold.remove_feature_cleaned("call do_junk")
    assert repro.pretty(cleaned.program) == repro.pretty(cold_cleaned.program)


def test_feature_cone_saturation_survives_edit_pr3_dropped():
    """The acceptance demonstrator: a saturation PR 3's logic always
    recomputed now survives an edit.  PR 3 dropped every feature memo
    entry on update and its Algorithm 2 re-ran ``Poststar(A_C)`` from
    scratch; the cone is now a first-class artifact, so after an edit
    that invalidates the rendered removal the re-removal finds *both*
    Poststars (shared + cone) in the memo and does no saturation work
    at all."""
    session = SlicingSession(FEATURE_SRC)
    session.remove_feature_cleaned("call do_junk")
    stats = session.stats
    # reachable-configs + the feature's forward cone.
    assert stats["saturation_misses"] == 2

    edited = FEATURE_SRC.replace("kept + c + 1", "kept + c + 2")
    summary = session.update_source(edited)
    assert summary["fast_path"] is True
    # Every saturation artifact survived the edit...
    assert summary["saturations_kept"] == 2
    assert summary["saturations_dropped"] == 0
    # ...and the rendered removal did not (do_kept is in its cone).
    assert summary["results_dropped"] >= 1

    session.remove_feature_cleaned("call do_junk")
    after = session.stats
    assert after["saturation_misses"] == 2  # no new saturation ran
    assert after["saturation_hits"] >= stats["saturation_hits"] + 2


# -- canonicalization unit checks -------------------------------------------------


def test_print_criteria_skip_procedures_named_print_something():
    source = """int g;
void printer(int x) { g = x; }
int main() {
  printer(5);
  print("%d", g);
  return 0;
}
"""
    session = SlicingSession(source)
    assert len(session.sdg.print_call_vertices()) == 1
    result = session.slice(("print", 0))
    assert result.version_counts() == {"printer": 1, "main": 1}
    assert repro.run_program(session.executable(("print", 0)).program).values == [5]
    with pytest.raises(ValueError):
        session.slice(("print", 1))


def test_canonical_key_forms():
    _program, _info, sdg = repro.load_source(FIG1_SOURCE)
    all_prints = resolve_criterion_spec(sdg, "prints")
    assert all_prints == resolve_criterion_spec(sdg, None)
    assert all_prints == resolve_criterion_spec(sdg, ("print", None))
    kind, payload = all_prints
    assert kind == "vertices" and payload == tuple(sorted(sdg.print_criterion()))
    assert canonical_key(kind, payload, "reachable") != canonical_key(
        kind, payload, "empty"
    )
    single_vid = payload[0]
    assert resolve_criterion_spec(sdg, single_vid) == (
        "vertices",
        (single_vid,),
    )
