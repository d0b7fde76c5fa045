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

The read-out verifies Cor. 3.19 on the fly: parameter vertices must
match exactly across each bound call site, otherwise ``ReadoutError``
is raised (it never is, per the theorem — the check guards our own
implementation).
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
        self.vertex_map = {}  # orig vid -> new vid

    def __repr__(self):
        return "SpecializedPDG(%s from %s, %d vertices)" % (
            self.name,
            self.proc,
            len(self.orig_vertices),
        )


def read_out_sdg(source_sdg, a6, encoding, with_summary=False):
    """Construct the specialized SDG from the MRD automaton.

    Returns ``(R, pdgs, bindings, map_back_vertex, map_back_site)``:

    * ``R`` — the new :class:`SystemDependenceGraph`;
    * ``pdgs`` — dict: A6 state -> :class:`SpecializedPDG`;
    * ``bindings`` — dict: (caller state, original site label) ->
      callee state;
    * ``map_back_vertex`` — new vid -> original vid (the mapping ``MC``
      of Defn. 2.9, vertex part);
    * ``map_back_site`` — new site label -> original site label.
    """
    # The object trim: an int-codec trim measured 10-27% slower here.
    a6 = a6.trim()
    result = SystemDependenceGraph()
    if not a6.states:
        return result, {}, {}, {}, {}
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

    # -- create vertices ------------------------------------------------------
    map_back_vertex = {}
    for spec in _ordered(specialized, source_sdg):
        result.formal_ins[spec.name] = {}
        result.formal_outs[spec.name] = {}
        result.sites_in_proc.setdefault(spec.name, [])
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
            spec.vertex_map[vid] = new_vid
            map_back_vertex[new_vid] = vid
            if vertex.kind == VertexKind.ENTRY:
                result.entry_vertex[spec.name] = new_vid
            elif vertex.kind == VertexKind.FORMAL_IN:
                result.formal_ins[spec.name][vertex.role] = new_vid
            elif vertex.kind == VertexKind.FORMAL_OUT:
                result.formal_outs[spec.name][vertex.role] = new_vid
        if spec.proc in source_sdg.entry_vertex:
            if source_sdg.entry_vertex[spec.proc] not in spec.orig_vertices:
                raise ReadoutError(
                    "specialization %s lacks its entry vertex" % spec.name
                )

    # -- intra-PDG edges induced by each vertex set (line 15) ------------------
    intra = (CONTROL, FLOW, LIBRARY)
    for spec in specialized.values():
        for vid in spec.orig_vertices:
            for (src, dst, kind) in source_sdg.out_edges(vid):
                if kind in intra and dst in spec.orig_vertices:
                    result.add_edge(spec.vertex_map[src], spec.vertex_map[dst], kind)

    # -- call bindings and interprocedural edges (lines 19-24) ------------------
    bindings = {}
    map_back_site = {}
    site_counter = [0]
    for (src, symbol, dst) in a6.transitions():
        if src == q0 or not encoding.is_site_symbol(symbol):
            continue
        callee_state, site_label, caller_state = src, symbol, dst
        if caller_state not in specialized or callee_state not in specialized:
            raise ReadoutError("call transition between unknown states")
        bindings[(caller_state, site_label)] = callee_state
        _connect_site(
            source_sdg,
            result,
            specialized[caller_state],
            specialized[callee_state],
            site_label,
            map_back_site,
            site_counter,
        )

    if with_summary:
        # Only needed when R itself is to be closure-sliced with the HRB
        # two-phase algorithm; the PDS encoding (used by the reslicing
        # check) does not consume summary edges.
        compute_summary_edges(result)
    return result, specialized, bindings, map_back_vertex, map_back_site


def _ordered(specialized, source_sdg):
    """Specializations in a stable order: original program order of the
    procedure, then by name suffix."""
    proc_order = {name: index for index, name in enumerate(source_sdg.proc_vertices)}
    return sorted(
        specialized.values(), key=lambda spec: (proc_order.get(spec.proc, 0), spec.name)
    )


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


def _connect_site(source_sdg, result, caller, callee, site_label, map_back_site, counter):
    """Instantiate one call site of the specialized SDG (lines 20-23),
    checking the Cor. 3.19 parameter-matching invariant."""
    site = source_sdg.call_sites[site_label]
    call_vid = site.call_vertex
    if call_vid not in caller.orig_vertices:
        raise ReadoutError(
            "call transition for site %s but call vertex not in caller %s"
            % (site_label, caller.name)
        )
    counter[0] += 1
    new_label = "%s.%d" % (site_label, counter[0])
    map_back_site[new_label] = site_label

    new_site = CallSiteInfo(
        new_label,
        caller.name,
        callee.name,
        caller.vertex_map[call_vid],
        site.stmt_uid,
    )
    # Record the specialized call-site label on the new call vertex so
    # re-encoding R as a PDS works.
    result.vertices[new_site.call_vertex].site_label = new_label
    result.call_sites[new_label] = new_site
    result.sites_in_proc.setdefault(caller.name, []).append(new_label)
    result.sites_on_proc.setdefault(callee.name, []).append(new_label)

    result.add_edge(new_site.call_vertex, result.entry_vertex[callee.name], CALL)

    # Parameter-in edges, with the mismatch check both ways.
    for role, ai in site.actual_ins.items():
        fi = source_sdg.formal_ins[site.callee].get(role)
        ai_in = ai in caller.orig_vertices
        fi_in = fi is not None and fi in callee.orig_vertices
        if ai_in != fi_in:
            raise ReadoutError(
                "parameter mismatch at %s role %r: actual-in %s, formal-in %s"
                % (site_label, role, ai_in, fi_in)
            )
        if ai_in:
            new_ai = caller.vertex_map[ai]
            result.vertices[new_ai].site_label = new_label
            new_site.actual_ins[role] = new_ai
            result.add_edge(new_ai, callee.vertex_map[fi], PARAM_IN)

    # Parameter-out edges.
    for role, fo in source_sdg.formal_outs[site.callee].items():
        ao = site.actual_outs.get(role)
        fo_in = fo in callee.orig_vertices
        ao_in = ao is not None and ao in caller.orig_vertices
        if ao is not None and fo_in != ao_in:
            raise ReadoutError(
                "parameter mismatch at %s role %r: formal-out %s, actual-out %s"
                % (site_label, role, fo_in, ao_in)
            )
        if fo_in and ao_in:
            new_ao = caller.vertex_map[ao]
            result.vertices[new_ao].site_label = new_label
            new_site.actual_outs[role] = new_ao
            result.add_edge(callee.vertex_map[fo], new_ao, PARAM_OUT)

    # Actual vertices not covered above (e.g. a captured return whose
    # formal-out the callee keeps but this caller drops) cannot occur —
    # verified by scanning the caller's remaining actual vertices.
    for role, ao in site.actual_outs.items():
        if ao in caller.orig_vertices and role not in new_site.actual_outs:
            raise ReadoutError(
                "dangling actual-out at %s role %r in %s" % (site_label, role, caller.name)
            )
