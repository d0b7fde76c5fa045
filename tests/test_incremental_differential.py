"""Mutation-differential testing of incremental re-slicing.

The pin for :meth:`SlicingSession.update_source`: apply generated
single-procedure edits to the differential corpus (the same generator
programs :mod:`tests.test_differential_baselines` uses) and assert that
every slice served by the *updated* session is byte-identical to what a
cold session on the edited text computes — same rendered program text,
same closure elements, same version counts — and that the assembled
front half is structurally identical to a cold build (same vertex ids,
same edges, same call-site labels).

Edit kinds (each applied to one procedure):

* rename a local variable (consistently, within the procedure);
* add a dead statement (an unused local declaration);
* change a numeric constant;
* duplicate an existing call statement;
* remove a call statement.

The corpus is generated deterministically at import time; a meta-test
pins its size at >= 25 edits so the suite cannot silently shrink.
"""

import random

import pytest

from repro.engine import SlicingSession
from repro.lang import ast_nodes as A
from repro.lang import parse, pretty
from repro.workloads.generator import GenConfig, generate_program

#: criteria checked per program (matching the differential harness cap)
MAX_CRITERIA = 4

SEEDS = range(10)


# -- mutators ----------------------------------------------------------------------
#
# Each mutator takes a freshly parsed (unchecked) AST plus an rng and
# returns an edited source text, or None when inapplicable.  Working on
# a fresh parse keeps the mutation purely syntactic.


def _all_idents(program):
    names = set()
    for proc in program.procs:
        names.add(proc.name)
        names.update(param.name for param in proc.params)
        for stmt in A.walk_stmts(proc.body):
            if isinstance(stmt, (A.Assign, A.LocalDecl)):
                names.add(stmt.name)
            for expr in A.stmt_exprs(stmt):
                names.update(A.expr_vars(expr))
    names.update(decl.name for decl in program.globals)
    return names


def _fresh_name(program, base):
    names = _all_idents(program)
    candidate = base
    index = 0
    while candidate in names:
        index += 1
        candidate = "%s%d" % (base, index)
    return candidate


def _rename_in_expr(expr, old, new):
    for sub in A.walk_exprs(expr):
        if isinstance(sub, A.Var) and sub.name == old:
            sub.name = new


def mutate_rename_local(program, rng):
    candidates = [
        (proc, stmt)
        for proc in program.procs
        for stmt in A.walk_stmts(proc.body)
        if isinstance(stmt, A.LocalDecl) and not stmt.is_fnptr
    ]
    if not candidates:
        return None
    proc, decl = rng.choice(candidates)
    old, new = decl.name, _fresh_name(program, decl.name + "_r")
    for stmt in A.walk_stmts(proc.body):
        if isinstance(stmt, (A.Assign, A.LocalDecl)) and stmt.name == old:
            stmt.name = new
        for expr in A.stmt_exprs(stmt):
            _rename_in_expr(expr, old, new)
    return pretty(program)


def mutate_add_dead_stmt(program, rng):
    proc = rng.choice(program.procs)
    name = _fresh_name(program, "dead")
    proc.body.stmts.insert(0, A.LocalDecl(name, A.Num(7), False))
    return pretty(program)


def mutate_change_constant(program, rng):
    candidates = [
        num
        for proc in program.procs
        for stmt in A.walk_stmts(proc.body)
        for expr in A.stmt_exprs(stmt)
        for num in A.walk_exprs(expr)
        if isinstance(num, A.Num)
    ]
    if not candidates:
        return None
    rng.choice(candidates).value += 1
    return pretty(program)


def _copy_expr(expr):
    from repro.core.executable import _copy_expr as copy_expr

    return copy_expr(expr)


def mutate_duplicate_call(program, rng):
    candidates = [
        (proc, block, index)
        for proc in program.procs
        for block, index in _call_stmt_positions(proc.body)
    ]
    if not candidates:
        return None
    proc, block, index = rng.choice(candidates)
    call = block.stmts[index].call
    copy = A.CallStmt(A.CallExpr(call.callee, [_copy_expr(arg) for arg in call.args]))
    copy.call.is_indirect = call.is_indirect
    block.stmts.insert(index + 1, copy)
    return pretty(program)


def mutate_remove_call(program, rng):
    candidates = [
        (proc, block, index)
        for proc in program.procs
        for block, index in _call_stmt_positions(proc.body)
    ]
    if not candidates:
        return None
    proc, block, index = rng.choice(candidates)
    del block.stmts[index]
    return pretty(program)


def _call_stmt_positions(block):
    positions = []
    stack = [block]
    while stack:
        current = stack.pop()
        for index, stmt in enumerate(current.stmts):
            if isinstance(stmt, A.CallStmt):
                positions.append((current, index))
            elif isinstance(stmt, A.If):
                stack.append(stmt.then)
                if stmt.els is not None:
                    stack.append(stmt.els)
            elif isinstance(stmt, A.While):
                stack.append(stmt.body)
    return positions


MUTATORS = [
    mutate_rename_local,
    mutate_add_dead_stmt,
    mutate_change_constant,
    mutate_duplicate_call,
    mutate_remove_call,
]


# -- corpus ------------------------------------------------------------------------


def _base_source(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return pretty(program)


def _build_corpus():
    corpus = []
    for seed in SEEDS:
        base = _base_source(seed)
        for mutator in MUTATORS:
            rng = random.Random(1000 * seed + MUTATORS.index(mutator))
            edited = mutator(parse(base), rng)
            if edited is None or edited == base:
                continue
            corpus.append(
                ("seed%d-%s" % (seed, mutator.__name__[7:]), base, edited)
            )
    return corpus


CORPUS = _build_corpus()


def test_mutation_corpus_is_large_enough():
    """The acceptance floor: ~30 generated single-procedure edits."""
    assert len(CORPUS) >= 25
    kinds = {label.split("-", 1)[1] for label, _base, _edited in CORPUS}
    assert kinds == {
        "rename_local",
        "add_dead_stmt",
        "change_constant",
        "duplicate_call",
        "remove_call",
    }


# -- the differential check --------------------------------------------------------


def _front_half_fingerprint(sdg):
    return (
        {
            vid: (vertex.kind, vertex.proc, vertex.label, vertex.role, vertex.site_label)
            for vid, vertex in sdg.vertices.items()
        },
        set(sdg._edge_set),
        {
            label: (site.caller, site.callee, site.call_vertex,
                    dict(site.actual_ins), dict(site.actual_outs))
            for label, site in sdg.call_sites.items()
        },
        dict(sdg.entry_vertex),
        {name: dict(roles) for name, roles in sdg.formal_ins.items()},
        {name: dict(roles) for name, roles in sdg.formal_outs.items()},
    )


@pytest.mark.parametrize(
    "label,base,edited", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_incremental_slices_byte_identical_to_cold(label, base, edited):
    session = SlicingSession(base)
    # Warm the session the way an editor loop would: slice everything
    # once before the edit, so the update has real state to invalidate.
    base_prints = len(session.sdg.print_call_vertices())
    session.slice_many(
        [("print", index) for index in range(min(base_prints, MAX_CRITERIA))]
    )

    summary = session.update_source(edited)
    cold = SlicingSession(edited)

    # The assembled front half is the cold front half: same vertex ids,
    # labels, edges, and call sites (statement uids aside).
    assert _front_half_fingerprint(session.sdg) == _front_half_fingerprint(cold.sdg)

    prints = cold.sdg.print_call_vertices()
    criteria = [("print", index) for index in range(min(len(prints), MAX_CRITERIA))]
    criteria.append("prints")
    for criterion in criteria:
        incremental = session.slice(criterion)
        reference = cold.slice(criterion)
        assert incremental.closure_elems() == reference.closure_elems(), (
            label,
            criterion,
        )
        assert incremental.version_counts() == reference.version_counts(), (
            label,
            criterion,
        )
        assert pretty(session.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), (label, criterion)
    # The summary is coherent: every procedure is accounted for.
    assert summary["procs_reused"] + summary["procs_rebuilt"] == len(
        cold.sdg.procedures()
    )


def test_label_edit_retargets_kept_executables_to_the_new_parse():
    """A label-only edit keeps the memoized executables of every slice
    it cannot affect, and their ``stmt_map`` must name statements of the
    *edited* parse (fresh uids): a subset of ``session.program``'s
    statements, and the slice's prints map onto the criterion print when
    both programs run on shared inputs."""
    from repro.workloads.wc import scaled_wc_source

    from tests.test_differential_baselines import _check_criterion_prints

    base = scaled_wc_source(4)
    session = SlicingSession(base)
    criteria = [("print", i) for i in range(len(session.sdg.print_call_vertices()))]
    session.slice_many(criteria)
    before = {criterion: session.executable(criterion) for criterion in criteria}
    assert session.update_source(base.replace("c % 6 == 0", "c % 6 == 5"))[
        "fast_path"
    ]
    uids = {
        stmt.uid for proc in session.program.procs for stmt in A.walk_stmts(proc.body)
    }
    prints = session.sdg.print_call_vertices()
    kept = 0
    for index, criterion in enumerate(criteria):
        executable = session.executable(criterion)
        kept += executable is before[criterion]
        assert set(executable.stmt_map.values()) <= uids, criterion
        criterion_uid = session.sdg.vertices[prints[index]].stmt_uid
        assert _check_criterion_prints(session, executable, criterion_uid, index)
    # Only the edited category's slice was rendered again.
    assert kept == len(criteria) - 1


def test_whitespace_and_comment_edit_reuses_everything():
    base = _base_source(0)
    session = SlicingSession(base)
    session.slice("prints")
    edited = "// a comment\n" + base.replace("\n", "\n\n", 3) + "\n/* trailing */\n"
    summary = session.update_source(edited)
    assert summary["fast_path"] is True
    assert summary["procs_rebuilt"] == 0
    assert summary["results_kept"] >= 1 and summary["results_dropped"] == 0
    cold = SlicingSession(edited)
    assert pretty(session.executable("prints").program) == pretty(
        cold.executable("prints").program
    )


#: ``a`` is only ever an address: every slice of print 0 stubs it (§6.2)
STUB_BASE = (
    "fnptr fp; int g;\n"
    "void a(int x) { g = x; }\n"
    "void setfp() { fp = &a; }\n"
    "int main() { int v = input(); setfp(); "
    'if (fp == &a) { print("%d\\n", 1); } print("%d\\n", v); return 0; }\n'
)


@pytest.mark.parametrize(
    "body,fast",
    [("{ g = y; }", True), ("{ g = y; g = g + 1; }", False)],
    ids=["label_edit", "structural_edit"],
)
def test_kept_rendering_restubs_an_edited_procedure(body, fast):
    """A stub copies its procedure's parameter list, which the slice's
    footprint does not cover: after renaming ``a``'s parameter, the
    kept slice's rendering is rendered again and stubs ``a(int y)``, as
    a cold session's does, on the fast and the structural path."""
    session = SlicingSession(STUB_BASE)
    assert "void a(int x)" in pretty(session.executable(("print", 0)).program)
    edited = STUB_BASE.replace("void a(int x) { g = x; }", "void a(int y) " + body)
    summary = session.update_source(edited)
    assert summary["fast_path"] is fast
    assert summary["results_kept"] == 1
    rendered = pretty(session.executable(("print", 0)).program)
    assert "void a(int y)" in rendered
    assert rendered == pretty(SlicingSession(edited).executable(("print", 0)).program)


def test_moved_procedure_keeps_configuration_saturations_cold():
    """A configuration criterion's query names its states by each
    configuration's position in the sorted key, so a move that reorders
    its vertices must not carry its Prestar under stale names: every
    saturation the updated session holds pickles to cold bytes."""
    import pickle

    base = (
        "int g; int h;\n"
        "void a(int x) { g = x; }\n"
        "void b(int y) { h = y; }\n"
        "int main() { int v = input(); a(v); b(v); "
        'print("%d", g); print("%d", h); return 0; }\n'
    )
    moved = "void a(int x) { g = x; }\n"
    edited = base.replace(moved, "").replace("int main()", moved + "int main()")

    def entries(session):
        sdg = session.sdg
        return [
            (sdg.entry_vertex[site.callee], (label,))
            for label, site in sorted(sdg.call_sites.items())
            if site.callee in ("a", "b")
        ]

    session = SlicingSession(base)
    session.slice(entries(session))
    assert session.update_source(edited)["fast_path"] is False
    cold = SlicingSession(edited)
    cold.slice(entries(cold))
    cold_bytes = _saturation_bytes(cold)
    for key, blob in _saturation_bytes(session).items():
        assert blob == cold_bytes[key], key
    assert pretty(session.executable(entries(cold)).program) == pretty(
        cold.executable(entries(cold)).program
    )


def test_moved_procedure_renders_in_the_new_order():
    """Moving a procedure below ``scan`` changes no content key, so
    every slice result survives, renamed; but procedures render in
    program order, so the renderings are rendered again and match a
    cold session's."""
    from repro.workloads.wc import scaled_wc_source

    base = scaled_wc_source(3)
    moved = base[base.index("void count_cat_0") : base.index("void count_cat_1")]
    edited = base.replace(moved, "").replace("int main()", moved + "int main()")
    session = SlicingSession(base)
    criteria = [("print", i) for i in range(len(session.sdg.print_call_vertices()))]
    _slice_and_render(session, criteria)
    summary = session.update_source(edited)
    assert summary["fast_path"] is False
    assert summary["results_dropped"] == 0
    cold = SlicingSession(edited)
    for criterion in criteria:
        assert pretty(session.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), criterion


@pytest.mark.parametrize(
    "label,base,edited", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_cross_revision_discovery_byte_identical_to_cold(
    label, base, edited, tmp_path
):
    """The cross-process variant of the differential: a session on the
    *base* text files its artifacts in a store and exits; a brand-new
    store-backed session on the *edited* text (no ``update_source``, no
    live donor) loads whatever the index of its pushdown system holds
    — every base saturation after a label edit, none after a structural
    one — and every slice it serves must still be byte-identical to a
    storeless cold session."""
    from repro.store import SliceStore

    cache = str(tmp_path / "cache")
    writer = SlicingSession(base, store=SliceStore(cache))
    base_prints = len(writer.sdg.print_call_vertices())
    writer.slice_many(
        [("print", index) for index in range(min(base_prints, MAX_CRITERIA))]
    )
    del writer  # the donor process is gone

    reader = SlicingSession(edited, store=SliceStore(cache))
    cold = SlicingSession(edited)
    assert _front_half_fingerprint(reader.sdg) == _front_half_fingerprint(cold.sdg)

    prints = cold.sdg.print_call_vertices()
    criteria = [("print", index) for index in range(min(len(prints), MAX_CRITERIA))]
    criteria.append("prints")
    for criterion in criteria:
        discovered = reader.slice(criterion)
        reference = cold.slice(criterion)
        assert discovered.closure_elems() == reference.closure_elems(), (
            label,
            criterion,
        )
        assert discovered.version_counts() == reference.version_counts(), (
            label,
            criterion,
        )
        assert pretty(reader.executable(criterion).program) == pretty(
            cold.executable(criterion).program
        ), (label, criterion)


def test_chained_updates_stay_faithful():
    """Several updates in sequence (the editor loop) keep serving
    cold-identical results."""
    base = _base_source(1)
    session = SlicingSession(base)
    session.slice("prints")
    current = base
    for step, mutator in enumerate(
        [mutate_change_constant, mutate_add_dead_stmt, mutate_rename_local]
    ):
        edited = mutator(parse(current), random.Random(step))
        if edited is None:
            continue
        session.update_source(edited)
        cold = SlicingSession(edited)
        assert pretty(session.executable("prints").program) == pretty(
            cold.executable("prints").program
        ), step
        current = edited


def _warmed_criteria(session):
    prints = len(session.sdg.print_call_vertices())
    return [("print", index) for index in range(min(prints, MAX_CRITERIA))]


def _warm(session):
    """The state an update and a store are fed: every print sliced (up
    to the cap) plus one feature removal, so the memo holds the shared
    Poststar, reachable-contexts Prestars, and a feature-cone Poststar."""
    session.slice_many(_warmed_criteria(session))
    session.remove_features_many([("print", 0)])


def _saturation_bytes(session):
    import pickle

    return {
        key: pickle.dumps(future.result())
        for (cache_kind, key), future in session._futures.items()
        if cache_kind == "saturation"
    }


def test_update_and_discovery_carry_over_the_same_saturations(tmp_path):
    """Over the whole mutation corpus, a live ``update_source`` and a
    fresh store-backed session on the edited text agree with cold
    sessions.  After a fast-equivalent edit the base revision's index
    is the edited revision's: the fresh session loads every base
    saturation through it, each pickling to cold bytes and to the bytes
    the update kept.  After a structural edit it is another pushdown
    system: the fresh session loads none.  Either way its answers are
    a storeless cold session's.  The tallies pin that the corpus is not
    vacuous (both label-only and structural edits occur, and feature
    cones survive some of them)."""
    from repro.engine.canonical import SAT_POSTSTAR
    from repro.store import SliceStore

    mismatches = []
    fast = slow = cones_kept = 0
    for number, (label, base, edited) in enumerate(CORPUS):
        session = SlicingSession(base)
        _warm(session)
        summary = session.update_source(edited)
        updated = _saturation_bytes(session)

        cache = str(tmp_path / ("cache%d" % number))
        writer = SlicingSession(base, store=SliceStore(cache))
        _warm(writer)
        filed = len(_saturation_bytes(writer))
        reader = SlicingSession(edited, store=SliceStore(cache))
        _warm(reader)
        loaded = reader.stats["sat_persist_hits"]
        cold = SlicingSession(edited)
        if summary["fast_path"]:
            fast += 1
            reopened = _saturation_bytes(reader)
            if loaded != filed or reopened != updated:
                mismatches.append((label, "loaded", loaded, filed))
            for key, blob in reopened.items():
                if blob != _cold_saturation_bytes(cold, key):
                    mismatches.append((label, "cold bytes", key))
        else:
            slow += 1
            if loaded != 0:
                mismatches.append((label, "structural load", loaded))
        for criterion in _warmed_criteria(reader):
            if pretty(reader.executable(criterion).program) != pretty(
                cold.executable(criterion).program
            ):
                mismatches.append((label, "answer", criterion))
        cones_kept += sum(
            1 for key in updated if len(key) == 2 and key[0] == SAT_POSTSTAR
        )
    assert mismatches == []
    assert (fast, slow, cones_kept) == (20, 30, 25)


def test_storeless_session_digests_one_whole_layout(monkeypatch):
    """Update compares layouts, and layouts reuse shape digests by
    content key: a storeless session digests every procedure once, at
    its first update, and afterwards only the procedures an edit
    rebuilt."""
    import repro.engine.incremental as incremental
    from repro.workloads.wc import scaled_wc_source

    digested = []
    shape_digest = incremental._shape_digest

    def counting(sdg, name):
        digested.append(name)
        return shape_digest(sdg, name)

    monkeypatch.setattr(incremental, "_shape_digest", counting)
    base = scaled_wc_source(4)
    session = SlicingSession(base)
    procs = len(session.program.procs)
    for step, constant in enumerate(("5", "4", "3")):
        del digested[:]
        summary = session.update_source(base.replace("c % 6 == 0", "c % 6 == " + constant))
        assert summary["fast_path"] and summary["procs_rebuilt"] == 1
        assert len(digested) == (procs + 1 if step == 0 else 1)


def _cold_saturation_bytes(cold, key):
    """The pickled saturation a cold session computes for ``key`` (the
    shared Poststar, or a vertex criterion's Prestar or feature cone)."""
    import pickle

    from repro.engine.canonical import REACHABLE_KEY, VERTICES

    if key == REACHABLE_KEY:
        return pickle.dumps(cold.reachable_configs_artifact())
    sat_kind, (kind, payload, contexts) = key
    assert kind == VERTICES
    return pickle.dumps(cold._saturation(sat_kind, key[1], kind, payload, contexts))


def test_carried_saturations_are_cold_bytes():
    """Relocation renames the vertex ids embedded in states as well as
    in symbols, so every saturation a live update holds after an edit —
    carried over, or the new Poststar the criterion check computed —
    pickles to the bytes a cold session computes for its key, over the
    whole mutation corpus."""
    mismatches = []
    carried = {"update": 0}
    for label, base, edited in CORPUS:
        live = SlicingSession(base)
        _warm(live)
        carried["update"] += live.update_source(edited)["saturations_kept"]
        cold = SlicingSession(edited)
        for key, blob in _saturation_bytes(live).items():
            if blob != _cold_saturation_bytes(cold, key):
                mismatches.append((label, key))
    assert mismatches == []
    # Not vacuous: 154 saturations cross the corpus's edits.
    assert carried["update"] >= 154


def _stmt_positions(executable, program):
    """An executable's statement map as (procedure, ``walk_stmts``
    index) pairs, rendered side -> original side: comparable across
    sessions, whose parses number statements differently."""

    def positions(prog):
        return {
            stmt.uid: (proc.name, index)
            for proc in prog.procs
            for index, stmt in enumerate(A.walk_stmts(proc.body))
        }

    rendered, original = positions(executable.program), positions(program)
    return {rendered[new]: original[old] for new, old in executable.stmt_map.items()}


def _kept_results_equal_cold(session, cold):
    """Compare every slice result (and rendering) an updated session
    holds with a cold session's answer for the same key; returns the
    number compared."""
    kept = [
        (key, future.result())
        for (cache_kind, key), future in session._futures.items()
        if cache_kind == "slice"
    ]
    for key, result in kept:
        reference = cold._slice_resolved(*key)
        assert result.closure_elems() == reference.closure_elems(), key
        assert result.version_counts() == reference.version_counts(), key
        assert _front_half_fingerprint(result.sdg) == _front_half_fingerprint(
            reference.sdg
        ), key
        assert result.map_back_site == reference.map_back_site, key
        executable = session._futures.get(("executable", key))
        if executable is not None:
            executable = executable.result()
            cold_executable = cold._futures[("executable", key)].result()
            assert pretty(executable.program) == pretty(cold_executable.program), key
            assert _stmt_positions(executable, session.program) == _stmt_positions(
                cold_executable, cold.program
            ), key
    return len(kept)


def _slice_and_render(session, criteria):
    session.slice_many(criteria)
    for criterion in criteria:
        session.executable(criterion)


@pytest.mark.parametrize("category", [0, 3, 15])
def test_relocated_results_equal_cold(category):
    """A structural edit keeps every slice result whose Prestar
    survived, renamed rather than recomputed: on wc16 with one new
    local in one category, 18 of the 19 results, each equal to the cold
    answer in rendered text, statement map, closure elements, version
    counts, ``R`` and ``map_back_site``."""
    from repro.workloads.wc import scaled_wc_source

    base = scaled_wc_source(16)
    header = "void count_cat_%d(int c) {" % category
    edited = base.replace(header, header + "\n  int z = 1;")
    session = SlicingSession(base)
    criteria = [("print", i) for i in range(len(session.sdg.print_call_vertices()))]
    assert len(criteria) == 19
    _slice_and_render(session, criteria)
    summary = session.update_source(edited)
    assert summary["fast_path"] is False
    assert summary["results_kept"] >= 18
    cold = SlicingSession(edited)
    _slice_and_render(cold, criteria)
    assert _kept_results_equal_cold(session, cold) >= 18


def test_relocated_results_equal_cold_over_the_corpus():
    """The same equalities for every result kept across the mutation
    corpus's edits, label-only and structural, with every print sliced
    and rendered before the edit."""
    kept = 0
    for _label, base, edited in CORPUS:
        session = SlicingSession(base)
        prints = len(session.sdg.print_call_vertices())
        _slice_and_render(session, [("print", i) for i in range(prints)])
        session.update_source(edited)
        cold = SlicingSession(edited)
        for key in [key for kind, key in session._futures if kind == "slice"]:
            cold.executable(key[1], contexts=key[2])
        kept += _kept_results_equal_cold(session, cold)
    assert kept >= 131
