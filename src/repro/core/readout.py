"""Reading the specialized SDG out of the MRD automaton.

This implements Alg. 1, lines 9–24.  In the MRD automaton ``A6``:

* words have the form ``vertex-symbol call-site*`` (a configuration,
  stack read top to bottom);
* each non-initial state ``q`` denotes one partition element of the
  configuration-partitioning problem, i.e. one specialized PDG; the
  vertex symbols on transitions ``(q0, v, q)`` are its program elements;
* a transition ``(q1, C, q2)`` between non-initial states says: the
  specialized procedure of ``q2`` contains call site ``C``, and that
  call is bound to the specialized procedure of ``q1`` (``q2`` is the
  caller — stacks are read top-down, so the symbol after the callee's
  vertices is the call site in the caller).

The read-out runs in two steps.  :func:`read_out_sdg` partitions ``A6``
into specialized PDGs, binds every call site and verifies Cor. 3.19 —
parameter vertices must match exactly across each bound call site,
otherwise ``ReadoutError`` is raised (it never is, per the theorem — the
check guards our own implementation).  That is all the renderer needs.
:func:`specialized_sdg` then builds the specialized SDG ``R`` from the
partition and the bindings alone; a
:class:`~repro.core.specialize.SpecializationResult` calls it when
``R`` or its maps are first read.
"""

from repro.sdg.graph import (
    CALL,
    CONTROL,
    FLOW,
    LIBRARY,
    PARAM_IN,
    PARAM_OUT,
    CallSiteInfo,
    SystemDependenceGraph,
    VertexKind,
)

# compute_summary_edges is not called here: perfbench/tracing.py wraps it by name.
from repro.sdg.summary import compute_summary_edges


class ReadoutError(AssertionError):
    """An internal invariant of Alg. 1 failed (e.g. a parameter
    mismatch, which Cor. 3.19 proves impossible)."""


class SpecializedPDG(object):
    """One specialized procedure: a partition element of Defn. 2.10."""

    def __init__(self, state, proc, orig_vertices):
        self.state = state  # the A6 state (opaque)
        self.proc = proc  # original procedure name
        self.orig_vertices = frozenset(orig_vertices)
        self.name = None  # assigned by the read-out ("p", "p_1", ...)
        self.vertex_map = {}  # orig vid -> new vid, filled when R is built

    def __repr__(self):
        return "SpecializedPDG(%s from %s, %d vertices)" % (
            self.name,
            self.proc,
            len(self.orig_vertices),
        )


def read_out_sdg(source_sdg, a6, encoding):
    """Partition the MRD automaton and bind its call sites, checking
    every read-out invariant (Cor. 3.19 included) on the way.

    Returns ``(pdgs, bindings)``:

    * ``pdgs`` — dict: A6 state -> :class:`SpecializedPDG`;
    * ``bindings`` — dict: (caller state, original site label) ->
      callee state, in :func:`ordered_bindings` order (the order
      :func:`specialized_sdg` numbers the specialized call sites in).
    """
    # The object trim: an int-codec trim measured 12-27% slower here.
    a6 = a6.trim()
    if not a6.states:
        return {}, {}
    if len(a6.initials) != 1:
        raise ReadoutError("MRD automaton must have a single initial state")
    q0 = next(iter(a6.initials))

    # -- identify partition elements (Alg. 1 lines 12-18) -------------------
    pdgs = {}
    for (src, symbol, dst) in a6.transitions():
        if src != q0:
            continue
        if not encoding.is_vertex_symbol(symbol):
            raise ReadoutError("non-vertex symbol %r out of the initial state" % (symbol,))
        pdgs.setdefault(dst, []).append(symbol)

    specialized = {}
    for state, vids in pdgs.items():
        procs = {source_sdg.vertices[vid].proc for vid in vids}
        if len(procs) != 1:
            raise ReadoutError(
                "partition element %r mixes procedures %r" % (state, sorted(procs))
            )
        specialized[state] = SpecializedPDG(state, procs.pop(), vids)

    _assign_names(source_sdg, specialized)
    for spec in _ordered(specialized, source_sdg):
        if spec.proc in source_sdg.entry_vertex:
            if source_sdg.entry_vertex[spec.proc] not in spec.orig_vertices:
                raise ReadoutError(
                    "specialization %s lacks its entry vertex" % spec.name
                )

    # -- call bindings (lines 19-24) --------------------------------------------
    bindings = {}
    for (src, symbol, dst) in a6.transitions():
        if src == q0 or not encoding.is_site_symbol(symbol):
            continue
        callee_state, site_label, caller_state = src, symbol, dst
        if caller_state not in specialized or callee_state not in specialized:
            raise ReadoutError("call transition between unknown states")
        bindings[(caller_state, site_label)] = callee_state
        _check_site(
            source_sdg, specialized[caller_state], specialized[callee_state], site_label
        )
    return specialized, ordered_bindings(source_sdg, specialized, bindings)


def specialized_sdg(source_sdg, pdgs, bindings):
    """Build the specialized SDG from a checked read-out
    (:func:`read_out_sdg`): one vertex per specialized program element,
    the intraprocedural edges each vertex set induces (line 15), and
    one call site per binding (lines 20-23).  Fills each
    :class:`SpecializedPDG`'s ``vertex_map``.

    Returns ``(R, map_back_vertex, map_back_site)``:

    * ``R`` — the new :class:`SystemDependenceGraph`;
    * ``map_back_vertex`` — new vid -> original vid (the mapping ``MC``
      of Defn. 2.9, vertex part);
    * ``map_back_site`` — new site label -> original site label.
    """
    result = SystemDependenceGraph()
    map_back_vertex = {}
    map_back_site = {}

    # -- create vertices ------------------------------------------------------
    for spec in _ordered(pdgs, source_sdg):
        result.formal_ins[spec.name] = {}
        result.formal_outs[spec.name] = {}
        result.sites_in_proc.setdefault(spec.name, [])
        vertex_map = {}
        for vid in sorted(spec.orig_vertices):
            vertex = source_sdg.vertices[vid]
            new_vid = result.new_vertex(
                vertex.kind,
                spec.name,
                vertex.label,
                stmt_uid=vertex.stmt_uid,
                site_label=vertex.site_label,
                role=vertex.role,
            )
            vertex_map[vid] = new_vid
            map_back_vertex[new_vid] = vid
            if vertex.kind == VertexKind.ENTRY:
                result.entry_vertex[spec.name] = new_vid
            elif vertex.kind == VertexKind.FORMAL_IN:
                result.formal_ins[spec.name][vertex.role] = new_vid
            elif vertex.kind == VertexKind.FORMAL_OUT:
                result.formal_outs[spec.name][vertex.role] = new_vid
        spec.vertex_map = vertex_map

    # -- intra-PDG edges induced by each vertex set (line 15) ------------------
    intra = (CONTROL, FLOW, LIBRARY)
    for spec in pdgs.values():
        for vid in spec.orig_vertices:
            for (src, dst, kind) in source_sdg.out_edges(vid):
                if kind in intra and dst in spec.orig_vertices:
                    result.add_edge(spec.vertex_map[src], spec.vertex_map[dst], kind)

    # -- interprocedural edges (lines 20-23) --------------------------------------
    for number, ((caller_state, site_label), callee_state) in enumerate(
        bindings.items(), 1
    ):
        new_label = "%s.%d" % (site_label, number)
        map_back_site[new_label] = site_label
        _connect_site(
            source_sdg,
            result,
            pdgs[caller_state],
            pdgs[callee_state],
            site_label,
            new_label,
        )
    return result, map_back_vertex, map_back_site


def _ordered(specialized, source_sdg):
    """Specializations in a stable order: original program order of the
    procedure, then by name suffix."""
    proc_order = {name: index for index, name in enumerate(source_sdg.proc_vertices)}
    return sorted(
        specialized.values(), key=lambda spec: (proc_order.get(spec.proc, 0), spec.name)
    )


def ordered_bindings(source_sdg, pdgs, bindings):
    """``bindings`` in canonical order: by caller specialization
    (:func:`_ordered`), then by the site's position in the caller's
    ``sites_in_proc``.  ``A6``'s transition order follows the ``repr``
    order of its symbols, so without this a result renamed across an
    edit would number ``R``'s call sites differently from a cold
    read-out."""
    rank = {spec.state: index for index, spec in enumerate(_ordered(pdgs, source_sdg))}

    def key(item):
        (caller_state, site_label), _callee_state = item
        sites = source_sdg.sites_in_proc[pdgs[caller_state].proc]
        return rank[caller_state], sites.index(site_label)

    return dict(sorted(bindings.items(), key=key))


def _assign_names(source_sdg, specialized):
    """Name each specialization: a procedure with a single variant keeps
    its name; otherwise ``proc_1 .. proc_k`` in a deterministic order
    (by the sorted vertex sets)."""
    by_proc = {}
    for spec in specialized.values():
        by_proc.setdefault(spec.proc, []).append(spec)
    for proc, specs in by_proc.items():
        if len(specs) == 1:
            specs[0].name = proc
            continue
        specs.sort(key=lambda spec: tuple(sorted(spec.orig_vertices)))
        for index, spec in enumerate(specs):
            spec.name = "%s_%d" % (proc, index + 1)


def _check_site(source_sdg, caller, callee, site_label):
    """The Cor. 3.19 parameter-matching invariant at one bound call
    site: the caller keeps the call vertex, and each actual-in (actual-
    out) is kept exactly when the callee keeps its formal-in (formal-
    out)."""
    site = source_sdg.call_sites[site_label]
    if site.call_vertex not in caller.orig_vertices:
        raise ReadoutError(
            "call transition for site %s but call vertex not in caller %s"
            % (site_label, caller.name)
        )
    for role, ai in site.actual_ins.items():
        fi = source_sdg.formal_ins[site.callee].get(role)
        ai_in = ai in caller.orig_vertices
        fi_in = fi is not None and fi in callee.orig_vertices
        if ai_in != fi_in:
            raise ReadoutError(
                "parameter mismatch at %s role %r: actual-in %s, formal-in %s"
                % (site_label, role, ai_in, fi_in)
            )
    formal_outs = source_sdg.formal_outs[site.callee]
    for role, fo in formal_outs.items():
        ao = site.actual_outs.get(role)
        fo_in = fo in callee.orig_vertices
        ao_in = ao is not None and ao in caller.orig_vertices
        if ao is not None and fo_in != ao_in:
            raise ReadoutError(
                "parameter mismatch at %s role %r: formal-out %s, actual-out %s"
                % (site_label, role, fo_in, ao_in)
            )
    # An actual-out the caller keeps needs a kept formal-out to bind to
    # (e.g. a captured return whose formal-out this callee drops).
    for role, ao in site.actual_outs.items():
        fo = formal_outs.get(role)
        if ao in caller.orig_vertices and (fo is None or fo not in callee.orig_vertices):
            raise ReadoutError(
                "dangling actual-out at %s role %r in %s" % (site_label, role, caller.name)
            )


def _connect_site(source_sdg, result, caller, callee, site_label, new_label):
    """Instantiate one checked call site of the specialized SDG
    (lines 20-23) as ``new_label``."""
    site = source_sdg.call_sites[site_label]
    new_site = CallSiteInfo(
        new_label,
        caller.name,
        callee.name,
        caller.vertex_map[site.call_vertex],
        site.stmt_uid,
    )
    # Record the specialized call-site label on the new call vertex so
    # re-encoding R as a PDS works.
    result.vertices[new_site.call_vertex].site_label = new_label
    result.call_sites[new_label] = new_site
    result.sites_in_proc.setdefault(caller.name, []).append(new_label)
    result.sites_on_proc.setdefault(callee.name, []).append(new_label)

    result.add_edge(new_site.call_vertex, result.entry_vertex[callee.name], CALL)

    for role, ai in site.actual_ins.items():
        if ai in caller.orig_vertices:
            new_ai = caller.vertex_map[ai]
            result.vertices[new_ai].site_label = new_label
            new_site.actual_ins[role] = new_ai
            fi = source_sdg.formal_ins[site.callee][role]
            result.add_edge(new_ai, callee.vertex_map[fi], PARAM_IN)

    for role, fo in source_sdg.formal_outs[site.callee].items():
        ao = site.actual_outs.get(role)
        if fo in callee.orig_vertices and ao is not None and ao in caller.orig_vertices:
            new_ao = caller.vertex_map[ao]
            result.vertices[new_ao].site_label = new_label
            new_site.actual_outs[role] = new_ao
            result.add_edge(callee.vertex_map[fo], new_ao, PARAM_OUT)
