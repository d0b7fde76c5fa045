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
  (positions, roles, edges, site/role wiring — not labels or AST) into
  a hashable value: two parts with equal shape keys contribute
  identical PDS rules under identical numbering, which is what lets
  the incremental engine keep saturations across label-only edits.

Summary edges are deliberately not part of a part: they depend on the
transitive contents of callees and are recomputed per assembly.

Parts are pickled into the persistent store's content-addressed
per-procedure table, so they also carry the donor procedure's AST (the
SDG vertices refer back to its statement uids); before relocation,
:meth:`retarget_uids` re-keys a part onto the matching procedure of a
freshly parsed program — content-key equality guarantees the two ASTs
are token-identical, so their statement walks correspond one to one.
"""

from repro.lang import ast_nodes as A
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
        proc_ast: the procedure's :class:`~repro.lang.ast_nodes.Proc`
            node (vertices refer to its statement uids).
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
        "proc_ast",
        "vertices",
        "edges",
        "entry",
        "formal_ins",
        "formal_outs",
        "sites",
        "stmt_vertices",
        "_uid_map",
    )

    def __init__(self):
        self.name = None
        self.proc_ast = None
        self.vertices = []
        self.edges = []
        self.entry = None
        self.formal_ins = {}
        self.formal_outs = {}
        self.sites = []
        self.stmt_vertices = {}
        self._uid_map = None  # donor stmt uid -> target stmt uid

    def __getstate__(self):
        # The uid translation is relocation-local state, never stored.
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_uid_map"
        }

    def __setstate__(self, state):
        self._uid_map = None
        for slot, value in state.items():
            setattr(self, slot, value)

    def add_to(self, sdg, context):
        """Relocate this part into ``sdg``, drawing vertex ids from the
        graph and call-site labels from ``context`` in build order (the
        same order a :class:`~repro.sdg.pdg_builder.PDGBuilder` run for
        the procedure would draw them).
        """
        name = self.name
        uid_map = self._uid_map or {}
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
                stmt_uid=uid_map.get(vertex.stmt_uid, vertex.stmt_uid),
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
            site = CallSiteInfo(
                new_label, name, callee, vid_map[call_vid],
                uid_map.get(stmt_uid, stmt_uid),
            )
            site.actual_ins = {role: vid_map[vid] for role, vid in actual_ins}
            site.actual_outs = {role: vid_map[vid] for role, vid in actual_outs}
            sdg.call_sites[new_label] = site
            sdg.sites_in_proc[name].append(new_label)
            sdg.sites_on_proc.setdefault(callee, []).append(new_label)
        for (src, dst, kind) in self.edges:
            sdg.add_edge(vid_map[src], vid_map[dst], kind)
        for uid, vid in self.stmt_vertices.items():
            sdg.vertex_of_stmt[uid_map.get(uid, uid)] = vid_map[vid]

    def shape_key(self):
        """The part's dependence structure in position space (vertex ids
        replaced by build-order indices, site labels by site indices).
        Vertex labels, statement uids, and the AST are excluded: two
        parts with equal shape keys produce identical PDS rules when
        relocated at identical numbering."""
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

    def retarget_uids(self, new_proc):
        """Point the part at ``new_proc`` — the same procedure in a
        freshly parsed program.  The donor and target ASTs are
        token-identical (the part was looked up by content key), so
        their statement walks correspond one to one; the resulting uid
        translation is applied lazily during :meth:`add_to`, leaving
        the donor's vertices untouched (they may be shared with a live
        SDG).  Raises ValueError if the shapes do not line up."""
        donor_stmts = list(A.walk_stmts(self.proc_ast.body))
        target_stmts = list(A.walk_stmts(new_proc.body))
        if len(donor_stmts) != len(target_stmts) or any(
            type(a) is not type(b) for a, b in zip(donor_stmts, target_stmts)
        ):
            raise ValueError(
                "procedure %r does not structurally match its part" % self.name
            )
        self._uid_map = {
            donor.uid: target.uid for donor, target in zip(donor_stmts, target_stmts)
        }
        self.proc_ast = new_proc
        return self


def extract_part(sdg, name):
    """Lift procedure ``name`` out of a built SDG as a :class:`ProcPart`.

    The part references the SDG's :class:`Vertex` objects and the
    program's :class:`Proc` node; neither is mutated by extraction or
    relocation, so extracting from a live SDG is safe.
    """
    part = ProcPart()
    part.name = name
    part.proc_ast = sdg.program.proc(name) if sdg.program is not None else None
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
