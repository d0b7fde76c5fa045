"""Incremental re-slicing: per-procedure content keys and front-half
reuse across source edits.

The session engine's front half — parse, check, SDG build, PDS
encoding, ``Poststar(entry_main)`` — is keyed by whole-source hash, so
historically a one-token edit repaid all of it.  This module makes the
front half assemblable from per-procedure parts and teaches
:class:`~repro.engine.session.SlicingSession` to *update* in place:

* :func:`procedure_keys` content-addresses every procedure by the
  sha256 of its normalized lexeme stream
  (:func:`repro.lang.pretty.pretty_proc` of the checked, lowered AST),
  its own computed interface, the interfaces of its direct callees,
  and a program-level signature (rendered global declarations).  The
  interface captures exactly what the PDG builders consume across
  procedure boundaries — parameter kinds, which ref parameters are
  modified, formal-in/out globals (``MayRef``/``MayMod``/``MustMod``),
  return capture, and ``may_exit`` — so transitive analysis changes
  propagate into keys without diffing graphs.

* :func:`update_session` diffs old and new keys, lifts the unchanged
  procedures' PDGs out of the old graph and rebuilds only the changed
  PDGs via :func:`repro.sdg.assemble_sdg` (which numbers the result
  identically to a cold build).  A statement's id is its position,
  ``(procedure name, index)``, and content-key equality means
  token-identical procedures, name included, so a lifted part, a kept
  rendering's statement map and a stored result name the new parse's
  statements as they are: nothing is translated between parses.

* :func:`carry_over` is **the one survival rule** for saturations
  across a live edit.  :func:`update_session` feeds it the two
  revisions' *layouts* (:func:`session_layout`) and each memoized
  saturation's key and ownership footprint
  (:mod:`repro.engine.artifacts`):

  - **fast-equivalent** revisions (a label-only edit: same procedure
    sequence and numbering, every edited procedure shape-identical)
    share one PDS, so every saturation carries over, its footprint
    re-addressed onto the new content keys;
  - otherwise a saturation carries over iff its footprint is a subset
    of the new revision's content keys — an empty footprint always is
    — renamed through the two layouts, states included
    (:class:`~repro.engine.artifacts.Relocation`).  A reachable-contexts
    Prestar or feature cone additionally needs its criterion to be
    unchanged: restricted from the old Poststar view and renamed, it
    must equal the criterion the new revision restricts from its own
    view (early cutoff).

  Results follow their saturation: across a fast-equivalent edit a
  result survives iff its footprint avoids the label-edited procedures,
  and across a structural edit a slice result survives, renamed with
  its rendering, iff its Prestar did (see :func:`_prune_results`).

Why the subset rule is sound: a saturation can only grow or shrink
through a rule that the edit added or removed, and every such rule
mentions a changed procedure's vertex or a call site in/on a changed
procedure either on its left-hand side or in its right-hand word.  The
first changed rule used in any new derivation therefore needs a
configuration *already accepted by the old automaton* that mentions
one of those symbols — and a footprint within the unchanged
procedures' content keys means no such symbol is on any accepting
path.  An empty footprint (an empty saturation, e.g. the Prestar of an
unreachable print) stays empty for the same reason.  The argument
holds for a fixed query automaton; a reachable-contexts query is
restricted from the Poststar language, which the footprint cannot see,
so the criterion check supplies the fixed query: an equal renamed
query saturates to the renamed automaton (docs/ARCHITECTURE.md §8).

With a store attached, saturations are filed by the pushdown system
they belong to, not by revision.  A revision's :func:`layout_signature`
digests its layout without the content keys, so two revisions share a
signature exactly when :func:`_fast_translation` proves them one
pushdown system, and every saturation of one is a saturation of the
other.  Each signature has one index in ``__sats__``; its records name
footprints by procedure, and each revision resolves those names to its
own content keys.  A session reads its index once
(:func:`discover_artifacts`), when it first claims a saturation, and
loads only the saturations it answers with: a fresh process opening a
label-edited text is a warm reopen, and one opening a structurally
edited text computes its own saturations.  A live structural edit
files its survivors under the new signature; a fast-equivalent one
files nothing, since its index already holds them.
"""

import hashlib
import time
from concurrent.futures import Future

from repro.analysis.callgraph import build_call_graph
from repro.analysis.modref import compute_modref
from repro.core.criteria import reachable_contexts_criterion
from repro.core.readout import SpecializedPDG, ordered_bindings
from repro.core.specialize import SpecializationResult
from repro.engine.artifacts import Relocation, index_record, make_artifact
from repro.engine.canonical import (
    AUTOMATON,
    CONFIGS,
    REACHABLE_KEY,
    SAT_POSTSTAR,
    SAT_PRESTAR,
    VERTICES,
    is_stable_key,
    stable_key_digest,
)
from repro.fsa.serialize import structurally_equal
from repro.lang import ast_nodes as A
from repro.lang import check, parse
from repro.lang.pretty import pretty_global, pretty_proc
from repro.pds import encode_sdg
from repro.sdg.parts import ProcPart, extract_part
from repro.sdg.sdg_builder import assemble_sdg
from repro.store import source_hash


# -- the front end -----------------------------------------------------------------


def front_end(source):
    """Parse + check + lower indirect calls.  Returns ``(program,
    info)`` — the AST every content key is computed over (keys must see
    the *lowered* program, so a changed function-pointer target set
    shows up as changed dispatch-procedure text)."""
    program = parse(source)
    info = check(program)
    if info.has_indirect_calls:
        from repro.core import lower_indirect_calls

        program, info = lower_indirect_calls(program, info)
    return program, info


# -- content keys ------------------------------------------------------------------


def program_signature(program):
    """The program-level context a procedure's meaning depends on
    beyond its own text: the global declarations, in order (order
    matters — rendered slices emit globals in declaration order)."""
    return "\n".join(pretty_global(decl) for decl in program.globals)


def interface_signature(name, info, modref, may_exit):
    """Everything callers' PDGs consume about procedure ``name``: the
    shape of its call sites (actual-in/out inventory) and its own
    formal-in/out inventory.  Computed from the whole-program analyses,
    so a transitive side-effect change deep in the call graph changes
    the interfaces along the way up."""
    proc = info.procs[name].proc
    may_mod = modref.may_mod[name]
    return (
        proc.ret,
        tuple(
            (param.kind, param.kind == "ref" and param.name in may_mod)
            for param in proc.params
        ),
        tuple(sorted(modref.ref_in_globals(name, info.global_names))),
        tuple(sorted(modref.mod_out_globals(name, info.global_names))),
        name in may_exit,
    )


def procedure_keys(program, info, call_graph=None, modref=None):
    """Per-procedure content keys: name -> sha256 hex digest.

    A key covers the procedure's normalized lexeme stream, its own
    interface, its direct callees' interfaces (in sorted name order),
    and the program signature.  Two procedures get equal keys exactly
    when their PDGs — vertices, labels, dependences, and call-site
    wiring — are guaranteed identical, so keys are stable across
    whitespace/comment-only edits and across processes, and distinct
    under any semantic edit.
    """
    keys, _call_graph, _modref = keys_and_analyses(program, info, call_graph, modref)
    return keys


def keys_and_analyses(program, info, call_graph=None, modref=None):
    """:func:`procedure_keys` plus the whole-program analyses it
    computed along the way (callers feed them to
    :func:`repro.sdg.assemble_sdg` instead of recomputing)."""
    if call_graph is None:
        call_graph = build_call_graph(program)
    if modref is None:
        modref = compute_modref(program, info, call_graph)
    may_exit = call_graph.may_exit()
    prog_sig = program_signature(program)
    interfaces = {
        proc.name: interface_signature(proc.name, info, modref, may_exit)
        for proc in program.procs
    }
    keys = {}
    for proc in program.procs:
        payload = (
            prog_sig,
            pretty_proc(proc),
            interfaces[proc.name],
            tuple(
                (callee, interfaces[callee])
                for callee in sorted(call_graph.callees(proc.name))
            ),
        )
        keys[proc.name] = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
    return keys, call_graph, modref


def session_procedure_keys(session):
    """The (cached) content keys of a session's current front half."""
    if session._proc_keys is None:
        session._proc_keys = procedure_keys(
            session.program,
            session.info,
            getattr(session.sdg, "call_graph", None),
            getattr(session.sdg, "modref", None),
        )
    return session._proc_keys


# -- store-backed cold assembly ----------------------------------------------------


def load_front_half(source, store):
    """Build a front half, assembling per-procedure parts from the
    store's content-addressed table when one is attached.

    Returns ``(program, info, sdg, proc_keys, parts_hit, parts_total)``
    (``proc_keys`` is None without a store — sessions compute keys
    lazily on first update).

    A stored part is disk input, so it is checked: it is used only if
    its name and statement ids equal the target procedure's, and is a
    miss otherwise.
    """
    program, info = front_end(source)
    if store is None:
        sdg = assemble_sdg(program, info)
        # parts_total 0: no store was consulted, so the stats must not
        # read as "N parts missed".
        return program, info, sdg, None, 0, 0
    keys, call_graph, modref = keys_and_analyses(program, info)
    parts = {}
    for proc in program.procs:
        part = store.get_proc(keys[proc.name])
        if (
            isinstance(part, ProcPart)
            and part.name == proc.name
            and set(part.stmt_vertices)
            == set(stmt.uid for stmt in A.walk_stmts(proc.body))
        ):
            parts[proc.name] = part
    sdg = assemble_sdg(program, info, parts, call_graph=call_graph, modref=modref)
    for proc in program.procs:
        if proc.name not in parts:
            store.put_proc(keys[proc.name], extract_part(sdg, proc.name))
    return program, info, sdg, keys, len(parts), len(program.procs)


# -- memo remapping ----------------------------------------------------------------
#
# Which procedures a saturation or result can possibly observe is its
# artifact footprint, computed once at creation (repro.engine.artifacts)
# — the survival rule (carry_over, below) only tests footprints against
# content keys and renames keys and symbols; it never re-trims an
# automaton to re-derive ownership.


def _remap_criterion_key(key, vid_map, site_map):
    """Rename a canonical criterion key through the relocation maps, or
    return None when it references a rebuilt procedure's symbols (the
    entry then has no counterpart in the new front half)."""
    kind = key[0]
    if kind == VERTICES:
        vids = []
        for vid in key[1]:
            if vid not in vid_map:
                return None
            vids.append(vid_map[vid])
        return (VERTICES, tuple(sorted(vids)), key[2])
    if kind == CONFIGS:
        configs = []
        for vid, context in key[1]:
            if vid not in vid_map:
                return None
            sites = []
            for site in context:
                if site not in site_map:
                    return None
                sites.append(site_map[site])
            configs.append((vid_map[vid], tuple(sites)))
        if configs != sorted(configs):
            # configs_criterion numbers its states by position in the
            # sorted key: moved procedures would carry stale names.
            return None
        return (CONFIGS, tuple(configs))
    if kind == AUTOMATON:
        transitions = set()
        for (src, symbol, dst) in key[3]:
            if isinstance(symbol, int):
                symbol = vid_map.get(symbol)
            elif isinstance(symbol, str):
                symbol = site_map.get(symbol)
            if symbol is None:
                return None
            transitions.add((src, symbol, dst))
        return (AUTOMATON, key[1], key[2], frozenset(transitions))
    return None


# -- revision layouts --------------------------------------------------------------
#
# A layout is a revision's symbol coordinate system: one ``(name,
# content key, shape digest, vertex ids, call-site labels)`` entry per
# procedure, in program order, with the ids and labels in PDG build
# order.  A live update compares the old and new revisions' layouts;
# the store files saturations under a layout's signature.  Layouts are
# always computed in process, never read from disk.


def _shape_digest(sdg, name):
    """A process-stable digest of a procedure's
    :meth:`~repro.sdg.parts.ProcPart.shape_key` (the frozenset of
    positional edges is sorted first — its iteration order is not
    deterministic across interpreter runs, but its *contents* are)."""
    vertices, edges, entry, formal_ins, formal_outs, sites = extract_part(
        sdg, name
    ).shape_key()
    stable = (vertices, tuple(sorted(edges)), entry, formal_ins, formal_outs, sites)
    return hashlib.sha256(repr(stable).encode("utf-8")).hexdigest()


def _build_layout(program, sdg, keys, known=()):
    """The layout of a front half.  Shape digests are reused from the
    ``known`` layout by content key (equal keys mean identical PDGs),
    so a layout built next to its predecessor digests only the
    procedures an edit rebuilt."""
    shapes = {entry[1]: entry[2] for entry in known}
    layout = []
    for proc in program.procs:
        key = keys[proc.name]
        shape = shapes.get(key)
        if shape is None:
            shape = _shape_digest(sdg, proc.name)
        layout.append(
            (
                proc.name,
                key,
                shape,
                tuple(sdg.proc_vertices.get(proc.name, ())),
                tuple(sdg.sites_in_proc.get(proc.name, ())),
            )
        )
    return tuple(layout)


def session_layout(session):
    """The session's layout, cached per revision on the session
    (layouts are consulted on every artifact filing and update)."""
    cached = getattr(session, "_sat_layout", None)
    if cached is not None and cached[0] == session.source_hash:
        return cached[1]
    layout = _build_layout(
        session.program, session.sdg, session_procedure_keys(session)
    )
    session._sat_layout = (session.source_hash, layout)
    return layout


def layout_signature(layout):
    """The pushdown system a layout numbers, as a digest over
    everything in it *except* the content keys: procedure names, shape
    digests, vertex ids and call-site labels, in program order.  Two
    layouts have equal signatures exactly when :func:`_fast_translation`
    accepts them (a procedure whose key did not change kept its shape),
    so the signature names the store index that all revisions of one
    pushdown system share."""
    projected = tuple(
        (name, shape, vids, sites) for name, _key, shape, vids, sites in layout
    )
    return hashlib.sha256(repr(projected).encode("utf-8")).hexdigest()


def session_signature(session):
    """The :func:`layout_signature` of the session's revision, cached
    beside its layout."""
    cached = getattr(session, "_sat_signature", None)
    if cached is None or cached[0] != session.source_hash:
        cached = (session.source_hash, layout_signature(session_layout(session)))
        session._sat_signature = cached
    return cached[1]


# -- the survival rule -------------------------------------------------------------


def _fast_translation(old_layout, new_layout):
    """Whether two revisions are fast-equivalent — same procedure
    sequence, every procedure either content-identical or
    shape-identical, identical numbering throughout, which together
    prove the two revisions' PDS are *the same system*.  Returns the
    content-key translation (old -> new for the label-edited
    procedures), or None when they are not."""
    if len(old_layout) != len(new_layout):
        return None
    key_translation = {}
    for old_entry, new_entry in zip(old_layout, new_layout):
        old_name, old_key, old_shape, old_vids, old_sites = old_entry
        new_name, new_key, new_shape, new_vids, new_sites = new_entry
        if old_name != new_name or old_vids != new_vids or old_sites != new_sites:
            return None
        if old_key != new_key:
            if old_shape != new_shape:
                return None
            key_translation[old_key] = new_key
    return key_translation


def _layout_maps(old_layout, new_layout):
    """The ``(vid_map, site_map)`` renumbering between two revisions'
    layouts, covering every procedure whose content key appears in
    both (content-key equality makes the procedure ASTs
    token-identical, so the PDG builders emit their vertices and call
    sites in the same order on both sides)."""
    new_by_key = {entry[1]: (entry[3], entry[4]) for entry in new_layout}
    vid_map, site_map = {}, {}
    for _name, content_key, _shape, old_vids, old_sites in old_layout:
        new_entry = new_by_key.get(content_key)
        if new_entry is not None:
            vid_map.update(zip(old_vids, new_entry[0]))
            site_map.update(zip(old_sites, new_entry[1]))
    return vid_map, site_map


def _within(footprint, content_keys):
    """The footprint test: whether everything a saturation or result
    can observe lies in procedures with the given content keys (an
    empty footprint always does)."""
    return content_keys.issuperset(footprint)


def carry_over(old_layout, new_layout, saturations, views):
    """The one survival rule for saturations across a live edit
    (:func:`update_session`).

    ``saturations`` is a sequence of ``(key, footprint)`` pairs, one
    per saturation of the old revision.  ``views`` is a pair of
    functions returning the old revision's Poststar view (or None) and
    the new revision's, each called at most once and only when a
    reachable-contexts saturation fits.  Returns ``(fast, new_keys,
    rename)``: whether the revisions are fast-equivalent, each
    saturation's key in the new revision (input order; None when it is
    dropped), and ``rename(artifact, new_key)``.

    * Fast-equivalent revisions share one PDS: every saturation
      carries over under its own key, its footprint re-addressed onto
      the new content keys.
    * Otherwise a saturation carries over iff its footprint is within
      the new revision's content keys and its key renumbers through the
      layouts; ``rename`` is the edit's :class:`Relocation`.  A
      reachable-contexts one also needs its criterion, restricted from
      the old view and renamed, to equal the new view's (early cutoff;
      docs/ARCHITECTURE.md §8).  A fitting Poststar, renamed, is the
      new view.
    """
    translation = _fast_translation(old_layout, new_layout)
    if translation is not None:
        return (
            True,
            [key for key, _footprint in saturations],
            lambda artifact, _new_key: artifact.translated(translation),
        )
    new_key_set = frozenset(entry[1] for entry in new_layout)
    fits = [_within(footprint, new_key_set) for _key, footprint in saturations]
    if not any(fits):
        return False, [None] * len(saturations), Relocation({}, {})
    maps = _layout_maps(old_layout, new_layout)
    relocation = Relocation(*maps)
    poststar_fits = any(
        fit for (key, _footprint), fit in zip(saturations, fits) if key == REACHABLE_KEY
    )
    compared = []  # the (old view, new view) pair, once needed

    def criterion_unchanged(old_vids, new_vids):
        if not compared:
            old_view, new_view = views[0](), None
            if old_view is not None:
                new_view = (
                    relocation.automaton(old_view) if poststar_fits else views[1]()
                )
            compared.append((old_view, new_view))
        old_view, new_view = compared[0]
        return old_view is not None and structurally_equal(
            relocation.automaton(
                reachable_contexts_criterion(None, old_vids, old_view)
            ),
            reachable_contexts_criterion(None, new_vids, new_view),
        )

    def new_key(key, fit):
        if not fit:
            return None
        if key == REACHABLE_KEY:
            return key
        inner = _remap_criterion_key(key[1], *maps)
        if inner is None:
            return None
        if inner[0] == VERTICES and inner[2] == "reachable":
            if not criterion_unchanged(key[1][1], inner[1]):
                return None
        return (key[0], inner)

    return (
        False,
        [new_key(key, fit) for (key, _footprint), fit in zip(saturations, fits)],
        relocation,
    )


# -- the store index -----------------------------------------------------------------


def file_artifacts(store, signature, proc_keys, artifacts):
    """File artifacts (key digest -> artifact) in ``__sats__`` and
    record them, with one write, in the index of the pushdown system
    ``signature`` names; ``proc_keys`` (name -> content key, the
    revision the footprints address) turns each footprint into
    procedure names.  The one filing function: fresh saturations come
    from the session's
    :meth:`~repro.engine.session.SlicingSession._file_sats`, a live
    structural edit's survivors from :func:`update_session`.
    :meth:`~repro.store.SliceStore.put_sat` writes only a file that is
    missing or invalid, so an undo/redo loop returning to seen text
    writes none."""
    names = {key: name for name, key in proc_keys.items()}
    records = {}
    for digest, artifact in artifacts.items():
        file_name = store.put_sat(artifact.without_footprint())
        if file_name is not None:
            records[digest] = index_record(artifact, file_name, names)
    if records:
        store.merge_sat_index(signature, records)


def discover_artifacts(session):
    """The saturation records filed for the session's pushdown system
    (key digest -> record, see :func:`~repro.engine.artifacts
    .index_record`): the store index named by the revision's
    :func:`layout_signature`, shared by every revision of that system.

    The one reader of a session's index.  It reads the index at the
    first call for a signature — when :meth:`~repro.engine.session
    .SlicingSession._fused_batch` or the shared Poststar first claims a
    saturation — and answers later calls from the copy it keeps on the
    session.  Loading is left to the claims, so a reopen loads only
    the saturations it answers with (:func:`~repro.engine.artifacts
    .load_filed`, which resolves a record's procedure names to this
    revision's content keys)."""
    signature = session_signature(session)
    cached = session._sat_records
    if cached is None or cached[0] != signature:
        cached = (signature, session.store.get_sat_index(signature) or {})
        session._sat_records = cached
    return cached[1]


# -- the update itself -------------------------------------------------------------


def update_session(session, new_source):
    """Re-point ``session`` at ``new_source``, reusing everything the
    edit provably left intact.  Raises (leaving the session untouched)
    if the new text does not parse or check.  Returns a summary dict
    (also stored as ``session.last_update``)."""
    t0 = time.perf_counter()
    new_hash = source_hash(new_source)
    if new_hash == session.source_hash:
        return _finish(session, t0, fast=True, noop=True)

    # Front end on the new text; any error propagates before the
    # session is touched.
    program, info = front_end(new_source)
    new_keys, call_graph, modref = keys_and_analyses(program, info)
    old_keys = session_procedure_keys(session)
    old_names = [proc.name for proc in session.program.procs]
    new_names = [proc.name for proc in program.procs]
    kept = set(
        name
        for name in new_names
        if name in old_keys and old_keys[name] == new_keys[name]
    )
    changed = [name for name in new_names if name not in kept]
    new_name_set = set(new_names)
    removed = [name for name in old_names if name not in new_name_set]

    # Lift the unchanged procedures' PDGs out of the old graph: a
    # content-equal procedure has the same statement ids in the new parse.
    parts = {name: extract_part(session.sdg, name) for name in kept}
    new_sdg = assemble_sdg(program, info, parts, call_graph=call_graph, modref=modref)

    # The survival rule, fed the live memo.
    old_layout = session_layout(session)
    new_layout = _build_layout(program, new_sdg, new_keys, known=old_layout)
    with session._lock:
        snapshot = dict(session._futures)
    saturations = [
        (key, future.result())
        for (cache_kind, key), future in snapshot.items()
        if cache_kind == "saturation" and _done(future)
    ]
    old_poststar = dict(saturations).get(REACHABLE_KEY)
    fresh = []  # the new revision's Poststar, if the rule needed it

    def new_view():
        # Imported here so that a wrapper installed on the criteria
        # module by name sees this call.
        from repro.core.criteria import reachable_query_view

        sink = {}
        view = reachable_query_view(encode_sdg(new_sdg), stats=sink)
        session._absorb_kernel_stats(sink)
        fresh.append(
            make_artifact(SAT_POSTSTAR, REACHABLE_KEY, view, new_sdg, new_keys)
        )
        return view

    fast, new_sat_keys, rename = carry_over(
        old_layout,
        new_layout,
        [(key, artifact.footprint) for key, artifact in saturations],
        (lambda: None if old_poststar is None else old_poststar.automaton, new_view),
    )
    if fast:
        encoding = session.encoding
        encoding.sdg = new_sdg
        new_sdg._pds_encoding = encoding
    else:
        encoding = encode_sdg(new_sdg)
    kept_sats = {}  # old saturation key -> its survivor
    for (key, artifact), new_key in zip(saturations, new_sat_keys):
        if new_key is not None:
            kept_sats[key] = rename(artifact, new_key)
    counts = {
        "saturations_kept": len(kept_sats),
        "saturations_dropped": len(saturations) - len(kept_sats),
    }
    new_futures = {}
    survivors = {}  # stable key digest -> artifact, for the store
    for artifact in list(kept_sats.values()) + fresh:
        if artifact.key == REACHABLE_KEY:
            # The criterion constructors read the shared Poststar off
            # the encoding (as its query view); install this one.
            encoding._reachable_view = artifact.automaton
        new_futures[("saturation", artifact.key)] = _completed(artifact)
        if is_stable_key(artifact.key):
            survivors[stable_key_digest(artifact.key)] = artifact
    result_futures, result_counts, relocated = _prune_results(
        snapshot,
        new_sdg,
        encoding,
        None if fast else rename,
        kept_sats,
        frozenset(new_keys.values()),
        frozenset(changed + removed),
        [name for name in old_names if name in kept]
        == [name for name in new_names if name in kept],
    )
    new_futures.update(result_futures)
    counts.update(result_counts)

    with session._lock:
        old_hash = session.source_hash
        session.source = new_source
        session.source_hash = new_hash
        session.program = program
        session.info = info
        session.sdg = new_sdg
        session.encoding = encoding
        session._proc_keys = new_keys
        session._sat_layout = (new_hash, new_layout)
        session._futures = new_futures
        session._stats["updates"] += 1
        session._stats["procs_reused"] += len(kept)
        session._stats["procs_rebuilt"] += len(changed)
        session._stats["saturation_misses"] += len(fresh)
        for name, value in counts.items():
            session._stats[name] += value

    if session.store is not None:
        if not session.store.has_program(new_hash):
            # The bundle never holds the encoding's cached Poststar
            # (SDGEncoding.__getstate__ drops it).
            session.store.put_program(new_hash, new_sdg)
        for name in changed:
            session.store.put_proc(new_keys[name], extract_part(new_sdg, name))
        if not fast:
            # A structural edit moved to another pushdown system: file
            # every survivor in its index, so that a fresh process
            # opening the new text finds them warm (composing with the
            # __procs__ partial front-half hits).  A fast-equivalent
            # edit stays in the system whose index already holds them.
            file_artifacts(
                session.store, layout_signature(new_layout), new_keys, survivors
            )
        # The renamed results, so that such a process answers warm too.
        for key, result in relocated.items():
            digest = session._persist_digest("slice", key)
            if digest is not None:
                session._stage_result(new_hash, "slice", digest, result)
        session._file_results()

    import repro

    repro._session_rekeyed(session, old_hash)
    return _finish(
        session,
        t0,
        fast=fast,
        noop=False,
        procs_reused=len(kept),
        procs_rebuilt=len(changed),
        procs_removed=len(removed),
        **counts
    )


def _done(future):
    return future.done() and future.exception() is None


def _completed(value):
    future = Future()
    future.set_result(value)
    return future


def _prune_results(
    snapshot,
    new_sdg,
    encoding,
    relocation,
    kept_sats,
    new_key_set,
    stale,
    same_order,
):
    """Decide which results survive the update, without inspecting an
    automaton.  Across a fast-equivalent edit (``relocation`` None, the
    identity renaming) a result survives iff its footprint lies within
    the new content keys.  Across a structural edit a slice result
    survives iff its Prestar did (``kept_sats``: old saturation key ->
    survivor), renamed under the survivor's key; its rendering keeps
    its text only if the unchanged procedures kept their relative
    order (``same_order``), since procedures render in program order.
    A kept rendering that stubs (§6.2) a procedure in ``stale`` (changed
    or gone) is dropped, to be rendered again from its kept result.
    Returns the surviving memo entries, the kept/dropped counters, and
    the renamed slice results by their new key (for the store)."""
    new_futures = {}
    counts = {"results_kept": 0, "results_dropped": 0}
    moved = {"slice": {}, "feature": {}}  # old key -> (new key, result)
    for (cache_kind, key), future in snapshot.items():
        if cache_kind not in moved or not _done(future):
            continue
        value = future.result()
        if relocation is None:
            if _within(value.footprint, new_key_set):
                # The result's whole cone lies in unchanged procedures:
                # the result (and its rendered text) is still exact.
                # Re-point its front-half references at the new graph.
                # Feature removals qualify too — their footprint is the
                # *kept* cone, and on the fast path the kept language
                # itself is unchanged (same PDS, same query), so only
                # edits the residual program could render matter.
                value.source_sdg = new_sdg
                value.encoding = encoding
                moved[cache_kind][key] = (key, value)
        elif cache_kind == "slice":
            survivor = kept_sats.get((SAT_PRESTAR, key))
            if survivor is not None:
                moved[cache_kind][key] = (
                    survivor.key[1],
                    _relocated_result(value, survivor, relocation, new_sdg, encoding),
                )
        if key in moved[cache_kind]:
            new_key, value = moved[cache_kind][key]
            new_futures[(cache_kind, new_key)] = _completed(value)
            counts["results_kept"] += 1
        else:
            counts["results_dropped"] += 1

    for (cache_kind, key), future in snapshot.items():
        if cache_kind not in ("executable", "feature_clean") or not _done(future):
            continue
        # An executable rides its slice's fate and is not counted (the
        # results_* counters tally logical results); a §7 cleanup pair
        # rides its feature removal's.
        entry = moved["slice" if cache_kind == "executable" else "feature"].get(key)
        if cache_kind == "executable":
            renderings = (future.result(),)
        else:
            renderings = future.result()
        # A §6.2 stub (a procedure rendered without a specialization)
        # copies its procedure's current parameter list.
        stubs = set(
            proc.name
            for rendering in renderings
            for proc in rendering.program.procs
            if proc.name not in rendering.spec_of_proc
        )
        keep = entry is not None and same_order and not (stubs & stale)
        if keep:
            if relocation is not None:
                for rendering in renderings:
                    _retarget_executable(rendering, relocation, entry[1])
            new_futures[(cache_kind, entry[0])] = future
        if cache_kind == "feature_clean":
            counts["results_kept" if keep else "results_dropped"] += 1

    relocated = {} if relocation is None else dict(moved["slice"].values())
    return new_futures, counts, relocated


def _relocated_result(result, survivor, relocation, new_sdg, encoding):
    """A slice result renamed into the new revision beside its renamed
    Prestar ``survivor``: ``a1`` is the survivor's automaton, and the
    query automaton, ``a6``, the partition and the bindings are renamed
    (bindings in :func:`~repro.core.readout.ordered_bindings` order).
    ``R`` and its maps are built on first read, as for a fresh result."""
    state = relocation.state
    moved = SpecializationResult()
    moved.source_sdg = new_sdg
    moved.encoding = encoding
    moved.criterion = relocation.automaton(result.criterion)
    moved.a1 = survivor.automaton
    moved.a6 = relocation.automaton(result.a6)
    for spec in result.pdgs.values():
        twin = SpecializedPDG(
            state(spec.state),
            spec.proc,
            [relocation.vid_map[vid] for vid in spec.orig_vertices],
        )
        twin.name = spec.name
        moved.pdgs[twin.state] = twin
    moved.bindings = ordered_bindings(
        new_sdg,
        moved.pdgs,
        {
            (state(caller), relocation.site_map[site]): state(callee)
            for (caller, site), callee in result.bindings.items()
        },
    )
    moved.stats = dict(result.stats)
    moved.footprint = result.footprint
    return moved


def _retarget_executable(executable, relocation, result):
    """Point a surviving :class:`ExecutableSlice` at the new revision
    across a structural edit: its ``spec_of_proc`` at the renamed
    ``result``'s specializations (a fresh dict, swapped in whole).  Its
    ``stmt_map`` names statement positions, which a kept rendering's
    procedures share with the new parse."""
    executable.spec_of_proc = {
        name: result.pdgs[relocation.state(spec.state)]
        for name, spec in executable.spec_of_proc.items()
    }
    executable.result = result


def _finish(session, t0, fast, noop, **extra):
    summary = {
        "noop": noop,
        "fast_path": fast,
        "procs_reused": extra.pop("procs_reused", len(session.program.procs)),
        "procs_rebuilt": extra.pop("procs_rebuilt", 0),
        "procs_removed": extra.pop("procs_removed", 0),
        "saturations_kept": extra.pop("saturations_kept", 0),
        "saturations_dropped": extra.pop("saturations_dropped", 0),
        "results_kept": extra.pop("results_kept", 0),
        "results_dropped": extra.pop("results_dropped", 0),
        "update_seconds": time.perf_counter() - t0,
    }
    summary.update(extra)
    session.last_update = summary
    return summary
