"""Per-procedure PDG parts: the unit of incremental SDG assembly.

A :class:`ProcPart` is one procedure's contribution to an SDG — its
vertices (in build order), intraprocedural dependence edges, interface
vertices (entry, formal-in/out), and call sites — detached from any
particular vertex-id or call-site-label numbering.  Parts support three
operations:

* :func:`extract_part` lifts a procedure's PDG out of a built SDG;
* :meth:`ProcPart.add_to` relocates a part into a new SDG, drawing
  fresh vertex ids and call-site labels so the assembled graph is
  numbered exactly as a cold :func:`repro.sdg.build_sdg` of the same
  program would number it;
* :meth:`ProcPart.shape_key` renders the part's *dependence structure*
  (positions, roles, edges, site/role wiring — not labels or statement
  ids) into a hashable value: two parts with equal shape keys
  contribute identical PDS rules under identical numbering, which is
  what lets the incremental engine keep saturations across label-only
  edits.

Summary edges are deliberately not part of a part: they depend on the
transitive contents of callees and are recomputed per assembly.

Parts are pickled into the persistent store's content-addressed
per-procedure table.  They carry no AST: a vertex names its statement
by position (``(procedure name, index)``, see
:mod:`repro.lang.ast_nodes`), and content-key equality means
token-identical procedures, name included, so a part's statement ids
are the target procedure's in any parse.
"""

from repro.sdg.graph import CONTROL, FLOW, LIBRARY, CallSiteInfo, VertexKind

#: Edge kinds a part owns (SUMMARY is recomputed per assembly, and the
#: interprocedural kinds are stitched by the assembler).
PART_EDGE_KINDS = frozenset([CONTROL, FLOW, LIBRARY])

#: Vertex kinds registered in ``sdg.vertex_of_stmt``.
_STMT_KINDS = (VertexKind.STATEMENT, VertexKind.PREDICATE, VertexKind.CALL)


class ProcPart(object):
    """One procedure's PDG, relocatable into any SDG.

    Attributes:
        name: the procedure name.
        vertices: the :class:`~repro.sdg.graph.Vertex` objects in build
            order (their ``vid`` fields are donor-local).
        edges: ``(src_vid, dst_vid, kind)`` intraprocedural edges.
        entry: donor vid of the entry vertex.
        formal_ins / formal_outs: role -> donor vid, in build order.
        sites: per call site, in program order:
            ``(label, callee, stmt_uid, call_vid, actual_ins, actual_outs)``
            with the actual maps as ``(role, donor vid)`` tuples.
        stmt_vertices: stmt uid -> donor vid.
    """

    __slots__ = (
        "name",
        "vertices",
        "edges",
        "entry",
        "formal_ins",
        "formal_outs",
        "sites",
        "stmt_vertices",
    )

    def __init__(self):
        self.name = None
        self.vertices = []
        self.edges = []
        self.entry = None
        self.formal_ins = {}
        self.formal_outs = {}
        self.sites = []
        self.stmt_vertices = {}

    def add_to(self, sdg, context):
        """Relocate this part into ``sdg``, drawing vertex ids from the
        graph and call-site labels from ``context`` in build order (the
        same order a :class:`~repro.sdg.pdg_builder.PDGBuilder` run for
        the procedure would draw them).
        """
        name = self.name
        site_map = {}
        for site in self.sites:
            site_map[site[0]] = context.next_site_label()
        vid_map = {}
        for vertex in self.vertices:
            site_label = (
                site_map[vertex.site_label] if vertex.site_label is not None else None
            )
            vid_map[vertex.vid] = sdg.new_vertex(
                vertex.kind,
                name,
                vertex.label,
                stmt_uid=vertex.stmt_uid,
                site_label=site_label,
                role=vertex.role,
            )
        sdg.entry_vertex[name] = vid_map[self.entry]
        sdg.formal_ins[name] = {
            role: vid_map[vid] for role, vid in self.formal_ins.items()
        }
        sdg.formal_outs[name] = {
            role: vid_map[vid] for role, vid in self.formal_outs.items()
        }
        sdg.sites_in_proc.setdefault(name, [])
        for (label, callee, stmt_uid, call_vid, actual_ins, actual_outs) in self.sites:
            new_label = site_map[label]
            site = CallSiteInfo(new_label, name, callee, vid_map[call_vid], stmt_uid)
            site.actual_ins = {role: vid_map[vid] for role, vid in actual_ins}
            site.actual_outs = {role: vid_map[vid] for role, vid in actual_outs}
            sdg.call_sites[new_label] = site
            sdg.sites_in_proc[name].append(new_label)
            sdg.sites_on_proc.setdefault(callee, []).append(new_label)
        for (src, dst, kind) in self.edges:
            sdg.add_edge(vid_map[src], vid_map[dst], kind)
        for uid, vid in self.stmt_vertices.items():
            sdg.vertex_of_stmt[uid] = vid_map[vid]

    def shape_key(self):
        """The part's dependence structure in position space (vertex ids
        replaced by build-order indices, site labels by site indices).
        Vertex labels and statement uids are excluded: two parts with
        equal shape keys produce identical PDS rules when relocated at
        identical numbering."""
        pos = {vertex.vid: index for index, vertex in enumerate(self.vertices)}
        return (
            tuple((vertex.kind, vertex.role) for vertex in self.vertices),
            frozenset((pos[src], pos[dst], kind) for (src, dst, kind) in self.edges),
            pos[self.entry],
            tuple((role, pos[vid]) for role, vid in self.formal_ins.items()),
            tuple((role, pos[vid]) for role, vid in self.formal_outs.items()),
            tuple(
                (
                    callee,
                    pos[call_vid],
                    tuple((role, pos[vid]) for role, vid in actual_ins),
                    tuple((role, pos[vid]) for role, vid in actual_outs),
                )
                for (_label, callee, _uid, call_vid, actual_ins, actual_outs) in self.sites
            ),
        )


def extract_part(sdg, name):
    """Lift procedure ``name`` out of a built SDG as a :class:`ProcPart`.

    The part references the SDG's :class:`Vertex` objects, which
    neither extraction nor relocation mutates, so extracting from a live
    SDG is safe.
    """
    part = ProcPart()
    part.name = name
    vids = list(sdg.proc_vertices[name])
    part.vertices = [sdg.vertices[vid] for vid in vids]
    for vid in vids:
        for (src, dst, kind) in sdg.out_edges(vid):
            if kind in PART_EDGE_KINDS:
                part.edges.append((src, dst, kind))
    part.entry = sdg.entry_vertex[name]
    part.formal_ins = dict(sdg.formal_ins.get(name, {}))
    part.formal_outs = dict(sdg.formal_outs.get(name, {}))
    for label in sdg.sites_in_proc.get(name, ()):
        site = sdg.call_sites[label]
        part.sites.append(
            (
                label,
                site.callee,
                site.stmt_uid,
                site.call_vertex,
                tuple(site.actual_ins.items()),
                tuple(site.actual_outs.items()),
            )
        )
    part.stmt_vertices = {
        vertex.stmt_uid: vertex.vid
        for vertex in part.vertices
        if vertex.stmt_uid is not None and vertex.kind in _STMT_KINDS
    }
    return part
