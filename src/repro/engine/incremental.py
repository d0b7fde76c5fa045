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
  procedures' PDGs out of the old graph (re-keyed onto the new parse's
  statement uids — content-key equality makes the ASTs token-identical),
  rebuilds only the changed PDGs via :func:`repro.sdg.assemble_sdg`
  (which numbers the result identically to a cold build), and prunes
  the session memo as a pure function of **artifact footprints**
  (:mod:`repro.engine.artifacts`) — every saturation's ownership
  footprint was emitted when it was created, so the update never
  re-derives procedure ownership from automata:

  - **fast path** — every rebuilt procedure has the same
    :meth:`~repro.sdg.parts.ProcPart.shape_key` as before (label-only
    edits: changed constants, renamed locals, reworded prints): the
    PDS is unchanged, the old encoding and *every* saturation artifact
    are kept (footprints re-addressed onto the new content keys), and
    slice / feature-removal / cleanup results survive whenever their
    footprint avoids every changed procedure (surviving rendered slices
    are re-pointed at the new parse's statement uids);
  - **slow path** — dependence structure changed: the PDS is
    re-encoded, and a saturation artifact is kept (relocated through
    the renumbering maps) only when its footprint avoids every changed
    procedure's content key.  Prestar and feature-cone entries for
    ``contexts="reachable"`` criteria additionally require the shared
    Poststar to have survived, because their query automaton was
    derived from it.  Rendered results are conservatively recomputed
    (cheap: their saturation is the expensive part and it hits).

Why the keep-rule is sound: a saturation can only grow or shrink
through a rule that the edit added or removed, and every such rule
mentions a changed procedure's vertex or a call site in/on a changed
procedure either on its left-hand side or in its right-hand word.  The
first changed rule used in any new derivation therefore needs a
configuration *already accepted by the old automaton* that mentions
one of those symbols — and a footprint disjoint from every changed
procedure's content key means no such symbol is on any accepting path.
(The reachable-contexts caveat exists because those query automata
bake in the old Poststar language, which the footprint cannot see;
they are kept only when the Poststar itself is provably intact.)

With a store attached, every surviving artifact is re-filed into the
``__sats__`` table under the edited text's front-half hash, so the
on-disk saturation cache survives source edits the same way the
content-addressed ``__procs__`` table lets the front half survive
them.
"""

import hashlib
import time
from concurrent.futures import Future

from repro.analysis.callgraph import build_call_graph
from repro.analysis.modref import compute_modref
from repro.engine.artifacts import SaturationArtifact, translate_footprint
from repro.engine.canonical import (
    AUTOMATON,
    CONFIGS,
    REACHABLE_KEY,
    VERTICES,
    is_stable_key,
    stable_key_digest,
)
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
    """
    program, info = front_end(source)
    if store is None:
        sdg, _relocations = assemble_sdg(program, info)
        # parts_total 0: no store was consulted, so the stats must not
        # read as "N parts missed".
        return program, info, sdg, None, 0, 0
    keys, call_graph, modref = keys_and_analyses(program, info)
    parts = {}
    for proc in program.procs:
        part = store.get_proc(keys[proc.name])
        if isinstance(part, ProcPart) and part.name == proc.name:
            try:
                # The donor AST is token-identical (same content key);
                # re-key the part onto this parse's statement uids.
                parts[proc.name] = part.retarget_uids(proc)
            except ValueError:
                pass  # defensive: a mismatched part is just a miss
    sdg, _relocations = assemble_sdg(
        program, info, parts, call_graph=call_graph, modref=modref
    )
    for proc in program.procs:
        if proc.name not in parts:
            store.put_proc(keys[proc.name], extract_part(sdg, proc.name))
    return program, info, sdg, keys, len(parts), len(program.procs)


# -- memo remapping ----------------------------------------------------------------
#
# Which procedures a saturation or result can possibly observe is its
# artifact footprint, computed once at creation (repro.engine.artifacts)
# — the update only checks footprint disjointness and renames keys and
# symbols; it never re-trims an automaton to re-derive ownership.


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
        return (CONFIGS, tuple(sorted(configs)))
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


def _needs_poststar(key):
    """Whether a prestar memo key's query automaton was derived from
    the shared Poststar (reachable-contexts vertex criteria): such
    entries bake the old reachable-configuration language into their
    query and may only be kept while that language is provably
    unchanged.  Configuration-set and automaton criteria pin their
    contexts explicitly and are independent of the Poststar."""
    return key[0] == VERTICES and len(key) == 3 and key[2] == "reachable"


# -- cross-revision discovery ------------------------------------------------------
#
# update_session can only re-file surviving artifacts because it holds
# the *old* front half in memory.  A cold process opening edited text
# has no old session — what it has is the store's per-revision
# saturation indexes: each one records, for every artifact filed under
# a revision, the memo key, the saturation kind, and the ownership
# footprint, plus the revision's symbol *layout* (content key -> vertex
# ids and call-site labels in build order).  Discovery replays the
# exact survival check update_session performs, from the index alone:
#
#   footprint ⊆ new revision's content-key set
#     ⟺  footprint ∩ (candidate's keys \ new keys) = ∅
#     ⟺  footprint disjoint from every procedure the "edit" between the
#         two revisions changed or removed
#
# and the renumbering maps come from zipping the two layouts
# positionally (content-key equality makes the procedure ASTs
# token-identical, so the PDG builders emit their vertices and call
# sites in the same order on both sides).  Reachable-contexts Prestar
# entries are additionally gated on the candidate revision's Poststar
# *record* passing the same subset test — proving the baked-in
# reachable language unchanged without loading the Poststar's file.


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


def session_layout(session):
    """The session's symbol layout, the coordinate system artifacts are
    renumbered through across revisions: one ``(name, content key,
    shape digest, vertex ids, call-site labels)`` entry per procedure,
    in program order, with the ids and labels in PDG build order.
    Cached per revision on the session (layouts are consulted on every
    artifact filing)."""
    cached = getattr(session, "_sat_layout", None)
    if cached is not None and cached[0] == session.source_hash:
        return cached[1]
    keys = session_procedure_keys(session)
    sdg = session.sdg
    layout = tuple(
        (
            proc.name,
            keys[proc.name],
            _shape_digest(sdg, proc.name),
            tuple(sdg.proc_vertices.get(proc.name, ())),
            tuple(sdg.sites_in_proc.get(proc.name, ())),
        )
        for proc in session.program.procs
    )
    session._sat_layout = (session.source_hash, layout)
    return layout


def _layouts_fast_equivalent(old_layout, new_layout):
    """:func:`update_session`'s fast path, replayed from two layouts
    alone: same procedure sequence, every procedure either
    content-identical or shape-identical, and identical numbering
    throughout — which together prove the two revisions' PDS are *the
    same system*, so every saturation transfers verbatim.  Returns the
    content-key translation (old -> new for the label-edited
    procedures), or None when the revisions are not fast-equivalent."""
    if len(old_layout) != len(new_layout):
        return None
    key_translation = {}
    for old_entry, new_entry in zip(old_layout, new_layout):
        try:
            old_name, old_key, old_shape, old_vids, old_sites = old_entry
            new_name, new_key, new_shape, new_vids, new_sites = new_entry
        except (TypeError, ValueError):
            return None
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
    both.  None when the layouts disagree about a shared procedure's
    shape — impossible for honestly computed layouts (content-key
    equality fixes the vertex and site counts), so the whole candidate
    revision is distrusted rather than partially mapped."""
    new_by_key = {}
    for entry in new_layout:
        try:
            _name, content_key, _shape, vids, sites = entry
        except (TypeError, ValueError):
            return None
        new_by_key[content_key] = (vids, sites)
    vid_map, site_map = {}, {}
    for entry in old_layout:
        try:
            _name, content_key, _shape, old_vids, old_sites = entry
        except (TypeError, ValueError):
            return None
        new_entry = new_by_key.get(content_key)
        if new_entry is None:
            continue
        new_vids, new_sites = new_entry
        if len(old_vids) != len(new_vids) or len(old_sites) != len(new_sites):
            return None
        vid_map.update(zip(old_vids, new_vids))
        site_map.update(zip(old_sites, new_sites))
    return vid_map, site_map


def _poststar_record_intact(records, poststar_digest, new_key_set):
    """Whether a candidate revision's shared-Poststar *record* proves
    the reachable-configuration language unchanged under the new
    revision: the record exists and its footprint passes the subset
    test.  No artifact file is read."""
    record = records.get(poststar_digest)
    try:
        key, _kind, footprint = record
    except (TypeError, ValueError):
        return False
    return (
        key == REACHABLE_KEY
        and bool(footprint)
        and frozenset(footprint) <= new_key_set
    )


def discover_artifacts(session):
    """Adopt saturation artifacts filed under *other* revisions of this
    session's program, with no live donor session.

    Runs at session creation when a store is attached.  Skips instantly
    when this revision's own index already records a shared Poststar
    (the warm-reopen hot path: everything expensive is directly
    addressable).  Otherwise scans the store's saturation indexes,
    newest revision first, and for every record whose footprint is a
    subset of this revision's content keys: renumbers the memo key and
    the automaton through the two layouts, installs the survivor in the
    session memo, and re-files it (artifact + index record) under this
    revision's hash — so the adoption is paid once per edit, not once
    per process.  Adoptions count as ``index_hits`` on the store (and
    ``sats_adopted`` on the session); records whose artifact file was
    evicted or corrupted count as ``index_misses``.

    Returns the number of artifacts adopted.
    """
    store = session.store
    new_hash = session.source_hash
    poststar_digest = stable_key_digest(REACHABLE_KEY)
    own = store.get_sat_index(new_hash)
    if own is not None and poststar_digest in (own.get("artifacts") or {}):
        return 0
    t0 = time.perf_counter()
    new_keys = session_procedure_keys(session)
    new_key_set = frozenset(new_keys.values())
    new_layout = session_layout(session)
    adopted_records = {}
    adopted = 0
    # The inverted keymap narrows the scan to revisions that can
    # possibly donate — sharing a content key (footprint-subset
    # adoption needs one) or the full layout shape signature
    # (fast-equivalent label edits may share none) — so discovery
    # stays O(changed keys) however many revisions the store holds.
    candidates = store.sat_indexes_for(
        new_key_set, store.layout_signature(new_layout)
    )
    for src_hash, index in candidates:
        if src_hash == new_hash:
            continue
        records = index.get("artifacts") or {}
        if not records:
            continue
        old_layout = index.get("layout") or ()
        # Fast equivalence (a label-only edit between the revisions:
        # same shapes, same numbering => same PDS): every record
        # transfers verbatim, footprints re-addressed.  Otherwise fall
        # back to per-record footprint-subset survival — the same check
        # update_session's slow path runs, replayed from the index.
        translation = _layouts_fast_equivalent(old_layout, new_layout)
        maps = None  # built lazily, once per candidate revision
        poststar_ok = None
        for key_digest in sorted(records):
            try:
                key, _kind, footprint = records[key_digest]
            except (TypeError, ValueError):
                continue
            if translation is None:
                footprint = frozenset(footprint or ())
                if not footprint or not footprint <= new_key_set:
                    continue
                if maps is None:
                    maps = _layout_maps(old_layout, new_layout)
                    if maps is None:
                        break
                vid_map, site_map = maps
                if key == REACHABLE_KEY:
                    new_key = REACHABLE_KEY
                elif isinstance(key, tuple) and len(key) == 2:
                    if _needs_poststar(key[1]):
                        # Reachable-contexts queries bake in the donor's
                        # Poststar language; its *record* passing the
                        # subset test proves the language unchanged.
                        if poststar_ok is None:
                            poststar_ok = _poststar_record_intact(
                                records, poststar_digest, new_key_set
                            )
                        if not poststar_ok:
                            continue
                    inner = _remap_criterion_key(key[1], vid_map, site_map)
                    if inner is None:
                        continue
                    new_key = (key[0], inner)
                else:
                    continue
            else:
                new_key = key
            if not is_stable_key(new_key):
                continue
            new_digest = stable_key_digest(new_key)
            if new_digest in adopted_records:
                continue  # a newer revision already supplied this key
            with session._lock:
                if ("saturation", new_key) in session._futures:
                    continue
            artifact = store.get_sat(src_hash, key_digest)
            if not isinstance(artifact, SaturationArtifact) or artifact.key != key:
                # Stale record: the artifact file was evicted (or
                # corrupted) out from under its index entry.  The next
                # compaction walk GCs the record.
                store.count_index(False)
                continue
            if translation is not None:
                survivor = artifact.translated(translation)
            else:
                # Footprint keys are, by the subset test, unchanged
                # between the revisions — the content-key translation
                # is identity.
                survivor = artifact.relocated(new_key, vid_map, site_map, {})
            if survivor.footprint is None:
                continue
            session._install("saturation", new_key, survivor)
            if not store.has_sat(new_hash, new_digest):
                store.put_sat(new_hash, new_digest, survivor)
            adopted_records[new_digest] = (
                new_key,
                survivor.kind,
                tuple(sorted(survivor.footprint)),
            )
            store.count_index(True)
            adopted += 1
    if adopted_records:
        store.merge_sat_index(new_hash, layout=new_layout, records=adopted_records)
    with session._lock:
        session._stats["sats_adopted"] += adopted
        session._stats["discovery_seconds"] += time.perf_counter() - t0
    return adopted


# -- the update itself -------------------------------------------------------------


def update_session(session, new_source):
    """Re-point ``session`` at ``new_source``, reusing everything the
    edit provably left intact.  Raises (leaving the session untouched)
    if the new text does not parse or check.  Returns a summary dict
    (also stored as ``session.last_update``)."""
    if session.source is None:
        raise ValueError("update_source needs a session built from source text")
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

    # Lift the unchanged procedures' PDGs out of the old graph and
    # re-key them onto the new parse (token-identical by content key).
    old_sdg = session.sdg
    parts = {}
    for name in list(kept):
        try:
            parts[name] = extract_part(old_sdg, name).retarget_uids(
                program.proc(name)
            )
        except ValueError:  # defensive: rebuild rather than trust a bad part
            kept.discard(name)
            changed.append(name)
    new_sdg, relocations = assemble_sdg(
        program, info, parts, call_graph=call_graph, modref=modref
    )

    # Fast path: same procedure sequence (which rules out removals) and
    # every rebuilt procedure kept its dependence shape => the new PDS
    # is the old PDS.
    fast = new_names == old_names
    if fast:
        for name in changed:
            old_shape = extract_part(old_sdg, name).shape_key()
            if old_shape != extract_part(new_sdg, name).shape_key():
                fast = False
                break
    vid_map, site_map = {}, {}
    for part_vid_map, part_site_map in relocations.values():
        vid_map.update(part_vid_map)
        site_map.update(part_site_map)
    if fast:
        # Shape equality in program order implies identical numbering;
        # verify rather than assume.
        fast = all(old == new for old, new in vid_map.items()) and all(
            old == new for old, new in site_map.items()
        )

    if fast:
        encoding = session.encoding
        encoding.sdg = new_sdg
        new_sdg._pds_encoding = encoding
    else:
        encoding = encode_sdg(new_sdg)

    # The edit, expressed in footprint space: the old content keys of
    # every procedure the edit rebuilt or removed (a brand-new
    # procedure has no old key, but adding one edits its caller, whose
    # old key is here).  Survivors re-address their footprints through
    # the key translation — the procedures whose text (and key)
    # changed while staying shape-identical on the fast path.
    changed_content_keys = frozenset(
        old_keys[name]
        for name in list(changed) + list(removed)
        if name in old_keys
    )
    key_translation = {
        old_keys[name]: new_keys[name]
        for name in old_keys
        if name in new_keys and old_keys[name] != new_keys[name]
    }
    new_futures, counts = _prune_memo(
        session,
        new_sdg,
        encoding,
        fast,
        changed_content_keys,
        key_translation,
        vid_map,
        site_map,
    )

    with session._lock:
        old_hash = session.source_hash
        session.source = new_source
        session.source_hash = new_hash
        session.program = program
        session.info = info
        session.sdg = new_sdg
        session.encoding = encoding
        session._proc_keys = new_keys
        session._futures = new_futures
        session._stats["updates"] += 1
        session._stats["procs_reused"] += len(kept)
        session._stats["procs_rebuilt"] += len(changed)
        session._batch_queries.clear()
        for name, value in counts.items():
            session._stats[name] += value

    if session.store is not None:
        if not session.store.has_program(new_hash):
            # Persist the bundle the way a cold build would: without
            # the Poststar (or its query view) cached on the encoding —
            # saturations are first-class ``__sats__`` entries now and
            # would bloat the bundle on the editor-loop hot path.
            reachable = encoding.__dict__.pop("_reachable_configs", None)
            view = encoding.__dict__.pop("_reachable_view", None)
            try:
                session.store.put_program(new_hash, new_sdg)
            finally:
                if reachable is not None:
                    encoding._reachable_configs = reachable
                if view is not None:
                    encoding._reachable_view = view
        for name in changed:
            session.store.put_proc(new_keys[name], extract_part(new_sdg, name))
        # Footprint-aware store survival: re-file every surviving
        # artifact under the edited text's front-half hash, so a fresh
        # process opening the new text finds its saturations warm —
        # composing with the __procs__ partial front-half hits.
        # Existence-gated like the bundle above: an undo/redo loop
        # returning to already-seen text skips the re-serialization.
        sat_records = {}
        for (cache_kind, memo_key), future in new_futures.items():
            if cache_kind == "saturation" and is_stable_key(memo_key):
                digest = stable_key_digest(memo_key)
                artifact = future.result()
                if not session.store.has_sat(new_hash, digest):
                    session.store.put_sat(new_hash, digest, artifact)
                if artifact.footprint is not None:
                    sat_records[digest] = (
                        memo_key,
                        artifact.kind,
                        tuple(sorted(artifact.footprint)),
                    )
        if sat_records:
            # The per-revision saturation index (layout + records) is
            # what lets a cold process discover these artifacts later
            # (see discover_artifacts).
            session.store.merge_sat_index(
                new_hash, layout=session_layout(session), records=sat_records
            )

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


def _completed(value):
    future = Future()
    future.set_result(value)
    return future


def _prune_memo(
    session, new_sdg, encoding, fast, changed_keys, key_translation, vid_map, site_map
):
    """Decide, entry by entry, what survives the update — a pure
    function of the artifact footprints the entries were created with
    (no automaton is trimmed or inspected here).  Returns the new
    futures table and the kept/dropped counters."""
    with session._lock:
        snapshot = dict(session._futures)
    new_futures = {}
    counts = {
        "saturations_kept": 0,
        "saturations_dropped": 0,
        "results_kept": 0,
        "results_dropped": 0,
    }
    kept_result_keys = {"slice": set(), "feature": set()}
    poststar_kept = False
    # Rendered slices that survive keep their text but must name the new
    # parse's statements (its uids are fresh), through the numbering the
    # fast path verified identical.
    uid_map = _stmt_uid_map(session.sdg, new_sdg) if fast else {}

    def done(future):
        return future.done() and future.exception() is None

    # Saturation artifacts first: the Poststar verdict gates every
    # reachable-contexts entry, and result survival gates the
    # executable/cleanup tables.
    saturations = [
        (key, future)
        for (cache_kind, key), future in snapshot.items()
        if cache_kind == "saturation" and done(future)
    ]
    saturations.sort(key=lambda item: item[0] != REACHABLE_KEY)
    for key, future in saturations:
        artifact = future.result()
        if fast:
            # The PDS is unchanged, so every saturation is still exact;
            # only the footprint addressing moves to the new content
            # keys of the label-edited procedures.
            new_futures[("saturation", key)] = _completed(
                artifact.translated(key_translation)
            )
            counts["saturations_kept"] += 1
            if key == REACHABLE_KEY:
                poststar_kept = True
            continue
        if key == REACHABLE_KEY:
            if not artifact.survives(changed_keys):
                counts["saturations_dropped"] += 1
                continue
            survivor = artifact.relocated(key, vid_map, site_map, key_translation)
            # The criterion constructors read the shared Poststar off
            # the encoding (as its query view); transplant the survivor.
            encoding._reachable_configs = survivor.automaton
            encoding._reachable_view = survivor.automaton
            poststar_kept = True
            new_key = key
        else:
            if _needs_poststar(key[1]) and not poststar_kept:
                # Reachable-contexts query automata bake in the old
                # Poststar language; without it the entry is
                # unverifiable (an edit can create contexts that an
                # empty or narrow cone never witnessed).
                counts["saturations_dropped"] += 1
                continue
            inner = _remap_criterion_key(key[1], vid_map, site_map)
            if inner is None or not artifact.survives(changed_keys):
                counts["saturations_dropped"] += 1
                continue
            new_key = (key[0], inner)
            survivor = artifact.relocated(new_key, vid_map, site_map, key_translation)
        new_futures[("saturation", new_key)] = _completed(survivor)
        counts["saturations_kept"] += 1

    for (cache_kind, key), future in snapshot.items():
        if cache_kind not in ("slice", "feature") or not done(future):
            continue
        value = future.result()
        footprint = getattr(value, "footprint", None)
        if fast and footprint is not None and footprint.isdisjoint(changed_keys):
            # The result's whole cone lies in unchanged procedures: the
            # result (and its rendered text) is still exact.  Re-point
            # its front-half references at the new graph.  Feature
            # removals qualify too — their footprint is the *kept*
            # cone, and on the fast path the kept language itself is
            # unchanged (same PDS, same query), so only edits the
            # residual program could render matter.
            value.source_sdg = new_sdg
            value.encoding = encoding
            value.footprint = translate_footprint(footprint, key_translation)
            new_futures[(cache_kind, key)] = future
            kept_result_keys[cache_kind].add(key)
            counts["results_kept"] += 1
        else:
            counts["results_dropped"] += 1

    for (cache_kind, key), future in snapshot.items():
        if not done(future):
            continue
        if cache_kind == "executable":
            # Rides its slice's fate; not counted separately (the
            # results_* counters tally logical results).
            if key in kept_result_keys["slice"]:
                _retarget_executable(future.result(), uid_map)
                new_futures[(cache_kind, key)] = future
        elif cache_kind == "feature_clean":
            # The §7 cleanup pair rides its feature removal's fate.
            if key in kept_result_keys["feature"]:
                for executable in future.result():
                    _retarget_executable(executable, uid_map)
                new_futures[(cache_kind, key)] = future
                counts["results_kept"] += 1
            else:
                counts["results_dropped"] += 1

    return new_futures, counts


def _stmt_uid_map(old_sdg, new_sdg):
    """Old statement uid -> new statement uid, matched through the
    statements' vertex ids (identical across a fast-path update)."""
    new_uid = {vid: uid for uid, vid in new_sdg.vertex_of_stmt.items()}
    return {
        uid: new_uid[vid]
        for uid, vid in old_sdg.vertex_of_stmt.items()
        if vid in new_uid
    }


def _retarget_executable(executable, uid_map):
    """Point a surviving :class:`ExecutableSlice`'s ``stmt_map`` at the
    new parse's statement uids (a fresh dict, swapped in whole, like the
    surviving results' front-half references above)."""
    executable.stmt_map = {
        new: uid_map.get(old, old) for new, old in executable.stmt_map.items()
    }


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
