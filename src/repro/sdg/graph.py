"""SDG data structures: vertices, edges, call sites.

Vertex roles for parameter vertices follow the paper's model:

* ``("param", i)`` — the i-th explicit parameter position;
* ``("global", g)`` — global variable ``g`` passed implicitly
  (value-result, per Horwitz et al. 1990);
* ``("ret",)`` — the return value.

Edge kinds:

* ``CONTROL`` / ``FLOW`` — intraprocedural dependences;
* ``CALL`` — call vertex to callee entry;
* ``PARAM_IN`` / ``PARAM_OUT`` — actual-in to formal-in / formal-out to
  actual-out;
* ``SUMMARY`` — transitive actual-in to actual-out dependences (used by
  HRB closure slicing only; the PDS encoding ignores them);
* ``LIBRARY`` — the §6.1 actual-in to call-vertex edges that pin a
  library call's arguments to the call.
"""


class VertexKind(object):
    ENTRY = "entry"
    STATEMENT = "statement"
    PREDICATE = "predicate"
    CALL = "call"
    ACTUAL_IN = "actual-in"
    ACTUAL_OUT = "actual-out"
    FORMAL_IN = "formal-in"
    FORMAL_OUT = "formal-out"


CONTROL = "control"
FLOW = "flow"
CALL = "call"
PARAM_IN = "param-in"
PARAM_OUT = "param-out"
SUMMARY = "summary"
LIBRARY = "library"

#: Edge kinds that stay within a single PDG.
INTRA_KINDS = frozenset([CONTROL, FLOW, SUMMARY, LIBRARY])
#: Edge kinds that cross PDGs.
INTER_KINDS = frozenset([CALL, PARAM_IN, PARAM_OUT])


class Vertex(object):
    """One SDG vertex.

    Attributes:
        vid: integer id, unique within the SDG.
        kind: a :class:`VertexKind` value.
        proc: name of the owning procedure.
        label: human-readable description (used in dumps and tests).
        stmt_uid: uid of the originating statement, if any.
        site_label: for actual-in/out and call vertices, the call-site
            label ("C1", "C2", ...); None elsewhere.
        role: for parameter vertices, the role tuple described above.
    """

    __slots__ = ("vid", "kind", "proc", "label", "stmt_uid", "site_label", "role")

    def __init__(self, vid, kind, proc, label, stmt_uid=None, site_label=None, role=None):
        self.vid = vid
        self.kind = kind
        self.proc = proc
        self.label = label
        self.stmt_uid = stmt_uid
        self.site_label = site_label
        self.role = role

    def is_parameter(self):
        return self.kind in (
            VertexKind.ACTUAL_IN,
            VertexKind.ACTUAL_OUT,
            VertexKind.FORMAL_IN,
            VertexKind.FORMAL_OUT,
        )

    def __repr__(self):
        return "Vertex(%d, %s, %s, %r)" % (self.vid, self.kind, self.proc, self.label)


class CallSiteInfo(object):
    """Everything the builders and slicers need to know about one call
    site: its label, caller/callee, call vertex, and parameter vertices
    indexed by role."""

    def __init__(self, label, caller, callee, call_vertex, stmt_uid):
        self.label = label
        self.caller = caller
        self.callee = callee
        self.call_vertex = call_vertex
        self.stmt_uid = stmt_uid
        self.actual_ins = {}  # role -> vid
        self.actual_outs = {}  # role -> vid

    def __repr__(self):
        return "CallSiteInfo(%s: %s -> %s)" % (self.label, self.caller, self.callee)


class SystemDependenceGraph(object):
    """The system dependence graph of a TinyC program."""

    def __init__(self, program=None, info=None):
        self.program = program
        self.info = info
        self.vertices = {}  # vid -> Vertex
        self._next_vid = 1
        self._out = {}  # vid -> list of (dst, kind)
        self._in = {}  # vid -> list of (src, kind)
        self._edge_set = set()  # (src, dst, kind)
        self.proc_vertices = {}  # proc name -> list of vids
        self.entry_vertex = {}  # proc name -> vid
        self.formal_ins = {}  # proc name -> {role: vid}
        self.formal_outs = {}  # proc name -> {role: vid}
        self.call_sites = {}  # label -> CallSiteInfo
        self.sites_in_proc = {}  # proc name -> list of labels
        self.sites_on_proc = {}  # callee name -> list of labels
        self.vertex_of_stmt = {}  # stmt uid -> vid (statement/call/predicate)

    def __getstate__(self):
        # The print-vertex cache stays out of pickles, so front-half
        # bundles keep their bytes (and older bundles, which never had
        # one, load unchanged).
        state = self.__dict__.copy()
        state.pop("_print_calls", None)
        return state

    # -- construction ---------------------------------------------------------

    def new_vertex(self, kind, proc, label, stmt_uid=None, site_label=None, role=None):
        vid = self._next_vid
        self._next_vid += 1
        vertex = Vertex(vid, kind, proc, label, stmt_uid, site_label, role)
        self.vertices[vid] = vertex
        self._out[vid] = []
        self._in[vid] = []
        self.proc_vertices.setdefault(proc, []).append(vid)
        return vid

    def add_edge(self, src, dst, kind):
        key = (src, dst, kind)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._out[src].append((dst, kind))
        self._in[dst].append((src, kind))
        return True

    def has_edge(self, src, dst, kind):
        return (src, dst, kind) in self._edge_set

    # -- queries ---------------------------------------------------------------

    def successors(self, vid, kinds=None):
        if kinds is None:
            return [dst for dst, _ in self._out[vid]]
        return [dst for dst, kind in self._out[vid] if kind in kinds]

    def predecessors(self, vid, kinds=None):
        if kinds is None:
            return [src for src, _ in self._in[vid]]
        return [src for src, kind in self._in[vid] if kind in kinds]

    def out_edges(self, vid):
        return [(vid, dst, kind) for dst, kind in self._out[vid]]

    def edges(self, kinds=None):
        for (src, dst, kind) in self._edge_set:
            if kinds is None or kind in kinds:
                yield (src, dst, kind)

    def vertex(self, vid):
        return self.vertices[vid]

    def vertex_count(self):
        return len(self.vertices)

    def edge_count(self, kinds=None):
        if kinds is None:
            return len(self._edge_set)
        return sum(1 for _ in self.edges(kinds))

    def procedures(self):
        return list(self.proc_vertices)

    # -- criterion helpers --------------------------------------------------------

    def print_call_vertices(self):
        """Call vertices of ``print`` statements, in program order.

        The vertex table is scanned once and the answer cached against
        its size, so resolving every ``("print", i)`` of a program costs
        one scan, and a graph still gaining vertices (the read-out builds
        ``R`` vertex by vertex) is rescanned rather than answered stale.
        The cache never reaches pickles (:meth:`__getstate__`).  Only the
        library print's call vertex counts: a call of a procedure named
        ``printer`` is labelled ``call printer``."""
        count = len(self.vertices)
        cached = getattr(self, "_print_calls", None)
        if cached is None or cached[0] != count:
            vertices = self.vertices
            cached = self._print_calls = (
                count,
                tuple(
                    vid
                    for vid in sorted(vertices)
                    if vertices[vid].kind == VertexKind.CALL
                    and vertices[vid].label == "call print"
                ),
            )
        return list(cached[1])

    def print_criterion(self, vids=None):
        """The slicing criterion "the actual parameters of print": the
        actual-in vertices hanging off the given print call vertices
        (default: every print in the program)."""
        if vids is None:
            vids = self.print_call_vertices()
        criterion = set()
        for call_vid in vids:
            for dst, kind in self._in[call_vid]:
                if kind == LIBRARY:
                    criterion.add(dst)
        return criterion

    def stmt_vertices(self, uids):
        """Vertices for the given statement uids."""
        return {self.vertex_of_stmt[uid] for uid in uids}

    def describe(self, vids):
        """Readable multi-line description of a vertex set (test aid)."""
        lines = []
        for vid in sorted(vids):
            vertex = self.vertices[vid]
            lines.append(
                "%4d %-11s %-12s %s" % (vid, vertex.kind, vertex.proc, vertex.label)
            )
        return "\n".join(lines)
