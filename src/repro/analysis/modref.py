"""Interprocedural side-effect analysis: MayRef / MayMod / MustMod.

Following Cooper & Kennedy (as the paper's SDG definition prescribes),
each procedure is summarized by the set of *caller-visible* locations it
may read, may write, and definitely writes.  Caller-visible locations
are global variables and ``ref`` parameters; value parameters and locals
are internal.

Effects propagate transitively over the call graph, translating a
callee's ``ref``-parameter effects to the caller's actual variables at
each call site (a global, one of the caller's own ``ref`` parameters, or
a caller-internal local — dropped from the caller's summary in the last
case, though the call site itself still defines/uses the local, which the
PDG builder models with actual-in/out vertices).

* MayRef / MayMod: least fixpoint (start empty, grow).
* MustMod: greatest fixpoint (start full, shrink), evaluated by a forward
  must-be-assigned dataflow pass over a statement-level CFG per procedure
  — must-definedness is path-sensitive ("assigned on every path that
  returns normally"), so a flow-insensitive union would be unsound in the
  presence of early returns.

All three fixpoints are solved one call-graph SCC at a time, callees
first (iterative Tarjan): a procedure's summary depends only on its
callees', so by the time an SCC is reached everything it calls is final.
A procedure outside any cycle is evaluated once; only the members of a
recursive SCC iterate, and only among themselves.  Each procedure's
statement graph is built once, with its predecessor map, and shared by
the must-mod and upwards-exposed passes.
"""

from repro.analysis.callgraph import _call_of, build_call_graph
from repro.lang import ast_nodes as A

#: Pseudo-location modeling the program's input stream.  Every
#: ``input()`` reads and advances the stream, so it both uses and
#: (strongly) defines ``$input``; the resulting def-use chain keeps all
#: earlier reads in any slice that keeps a later one — without it,
#: slicing away a read would shift the stream under the remaining ones.
INPUT = "$input"


class ModRefInfo(object):
    """Per-procedure side-effect summaries.

    Each summary is a set of names; a name is either a global variable
    or one of the procedure's own ``ref`` parameters (the two namespaces
    are disjoint — semantic analysis forbids shadowing).
    """

    def __init__(self):
        self.may_ref = {}  # flow-insensitive: any read anywhere
        self.may_mod = {}
        self.must_mod = {}
        self.exposed_ref = {}  # flow-sensitive: reads not preceded by a must-def

    def ref_in_globals(self, proc_name, global_names):
        """The globals needing an actual-in/formal-in for calls to
        ``proc_name``: MayRef ∪ (MayMod − MustMod), restricted to
        globals (Horwitz et al. 1990).  MayRef here means *upwards-
        exposed* reads — a global always overwritten before being read
        needs no formal-in (cf. Fig. 3, where ``p`` has no ``g2_in``
        despite ``g3 = g2``).  ``$input`` counts as a global."""
        names = set(global_names) | {INPUT}
        exposed = self.exposed_ref[proc_name] & names
        weak_mod = (self.may_mod[proc_name] - self.must_mod[proc_name]) & names
        return exposed | weak_mod

    def mod_out_globals(self, proc_name, global_names):
        """The globals needing an actual-out/formal-out for calls to
        ``proc_name``: MayMod, restricted to globals (plus ``$input``)."""
        return self.may_mod[proc_name] & (set(global_names) | {INPUT})


def compute_modref(program, info, call_graph=None):
    """Compute :class:`ModRefInfo` for a checked program."""
    if call_graph is None:
        call_graph = build_call_graph(program)
    result = ModRefInfo()
    ref_params = {
        proc.name: {p.name for p in proc.params if p.kind == "ref"}
        for proc in program.procs
    }
    universe = {
        proc.name: set(info.global_names) | {INPUT} | ref_params[proc.name]
        for proc in program.procs
    }

    sccs = _callees_first_sccs(program, call_graph)
    graphs = {proc.name: _StmtGraph(proc) for proc in program.procs}
    _compute_may(program, info, call_graph, ref_params, sccs, result)
    _compute_must(program, info, graphs, sccs, universe, result)
    _compute_exposed(program, info, graphs, sccs, universe, result)
    return result


def _callees_first_sccs(program, call_graph):
    """The call graph's strongly connected components, each listed after
    every component it calls (Tarjan's algorithm with an explicit stack).

    Returns ``(members, cyclic)`` pairs: the member names in program
    order, and whether a call edge stays inside the component (mutual or
    self recursion), i.e. whether its members must iterate.
    """
    position = {proc.name: index for index, proc in enumerate(program.procs)}

    def callees(name):
        return iter([site.callee for site in call_graph.calls_from[name]])

    index, low = {}, {}
    stack, on_stack = [], set()
    sccs = []
    for proc in program.procs:
        if proc.name in index:
            continue
        index[proc.name] = low[proc.name] = len(index)
        stack.append(proc.name)
        on_stack.add(proc.name)
        work = [(proc.name, callees(proc.name))]
        while work:
            name, pending = work[-1]
            for callee in pending:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, callees(callee)))
                    break
                if callee in on_stack:
                    low[name] = min(low[name], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[name])
                if low[name] != index[name]:
                    continue
                members = []
                while not members or members[-1] != name:
                    members.append(stack.pop())
                    on_stack.discard(members[-1])
                cyclic = len(members) > 1 or name in call_graph.callees(name)
                sccs.append((sorted(members, key=position.get), cyclic))
    return sccs


def _solve_callees_first(sccs, values, evaluate):
    """Drive one interprocedural fixpoint: ``values`` holds each
    procedure's starting estimate (the bottom of a least fixpoint, the
    top of a greatest one) and ``evaluate(name)`` recomputes a summary
    from the current estimates.  A cyclic SCC repeats until none of its
    members changes."""
    for members, cyclic in sccs:
        changed = True
        while changed:
            changed = False
            for name in members:
                new = evaluate(name)
                if new != values[name]:
                    values[name] = new
                    changed = cyclic


# ---------------------------------------------------------------------------
# May analyses (flow-insensitive least fixpoint)
# ---------------------------------------------------------------------------


def _direct_effects(proc, info, ref_params):
    """(ref, mod) sets from the procedure's own statements, ignoring the
    effects of callees (those are translated during the fixpoint)."""
    visible = set(info.global_names) | ref_params[proc.name]
    ref, mod = set(), set()

    def note_reads(expr, skip_call_args=False):
        ref.update(A.expr_vars(expr, include_call_args=not skip_call_args) & visible)

    for stmt in A.walk_stmts(proc.body):
        call, _captures, _target = _call_of(stmt)
        if isinstance(stmt, (A.Assign, A.LocalDecl)):
            target = stmt.name if isinstance(stmt, A.Assign) else None
            if target in visible:
                mod.add(target)
            expr = stmt.expr if isinstance(stmt, A.Assign) else stmt.init
            if isinstance(expr, A.InputExpr):
                ref.add(INPUT)
                mod.add(INPUT)
            elif expr is not None and not isinstance(expr, A.CallExpr):
                note_reads(expr)
        elif isinstance(stmt, (A.If, A.While)):
            note_reads(stmt.cond)
        elif isinstance(stmt, A.Return):
            if stmt.expr is not None:
                note_reads(stmt.expr)
        elif isinstance(stmt, A.Print):
            for arg in stmt.args:
                note_reads(arg)
        elif isinstance(stmt, A.ExitStmt):
            if stmt.arg is not None:
                note_reads(stmt.arg)
        if call is not None:
            # Value arguments are read by the caller when evaluated;
            # ref arguments are read/written only per callee summaries.
            for arg, kind in _args_with_kinds(call, info):
                if kind != "ref":
                    note_reads(arg)
    return ref, mod


def _args_with_kinds(call, info):
    callee = info.procs[call.callee].proc
    return [(arg, param.kind) for arg, param in zip(call.args, callee.params)]


def _translate(names, site, info, caller_visible):
    """Translate a callee summary through a call site into the caller's
    name space, dropping caller-internal locals."""
    callee = info.procs[site.callee].proc
    param_kinds = {p.name: p.kind for p in callee.params}
    actual_of = {
        p.name: arg for p, arg in zip(callee.params, site.call.args)
    }
    out = set()
    for name in names:
        if name in info.global_names or name == INPUT:
            out.add(name)
        elif param_kinds.get(name) == "ref":
            actual = actual_of[name]
            if isinstance(actual, A.Var) and actual.name in caller_visible:
                out.add(actual.name)
    return out


def _compute_may(program, info, call_graph, ref_params, sccs, result):
    direct = {
        proc.name: _direct_effects(proc, info, ref_params) for proc in program.procs
    }
    may = {name: (set(ref), set(mod)) for name, (ref, mod) in direct.items()}

    def evaluate(name):
        caller_visible = set(info.global_names) | ref_params[name]
        new_ref, new_mod = set(direct[name][0]), set(direct[name][1])
        for site in call_graph.calls_from[name]:
            callee_ref, callee_mod = may[site.callee]
            new_ref |= _translate(callee_ref, site, info, caller_visible)
            new_mod |= _translate(callee_mod, site, info, caller_visible)
        return new_ref, new_mod

    _solve_callees_first(sccs, may, evaluate)
    for name, (ref, mod) in may.items():
        result.may_ref[name] = ref
        result.may_mod[name] = mod


# ---------------------------------------------------------------------------
# MustMod (flow-sensitive greatest fixpoint)
# ---------------------------------------------------------------------------


class _StmtGraph(object):
    """A small statement-level CFG used only for the must-mod dataflow.

    Nodes: ``"entry"``, ``"ret"`` (normal-return join), ``"halt"``
    (process termination via exit()), and statement uids.  ``pred`` is
    the reverse of ``succ``; ``order`` lists the statement nodes
    reachable from ``"entry"``, in reverse postorder.
    """

    def __init__(self, proc):
        self.succ = {"entry": [], "ret": [], "halt": []}
        self.stmts = {}
        last = self._wire_block(proc.body, ["entry"])
        for node in last:
            self._edge(node, "ret")
        self.pred = {node: [] for node in self.succ}
        for src, dsts in self.succ.items():
            for dst in dsts:
                self.pred[dst].append(src)
        self.order = self._reverse_postorder()

    def _reverse_postorder(self):
        seen = {"entry"}
        postorder = []
        stack = [("entry", iter(self.succ["entry"]))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.succ[succ])))
                    break
            else:
                stack.pop()
                if node not in ("entry", "ret", "halt"):
                    postorder.append(node)
        postorder.reverse()
        return postorder

    def _edge(self, src, dst):
        self.succ.setdefault(src, [])
        self.succ.setdefault(dst, [])
        if dst not in self.succ[src]:
            self.succ[src].append(dst)

    def _wire_block(self, block, dangling):
        """Wire ``block`` after the ``dangling`` open ends; returns the
        new dangling ends."""
        for stmt in block.stmts:
            self.stmts[stmt.uid] = stmt
            for node in dangling:
                self._edge(node, stmt.uid)
            if isinstance(stmt, A.Return):
                self._edge(stmt.uid, "ret")
                dangling = []
            elif isinstance(stmt, A.ExitStmt):
                self._edge(stmt.uid, "halt")
                dangling = []
            elif isinstance(stmt, A.If):
                then_ends = self._wire_block(stmt.then, [stmt.uid])
                if stmt.els is not None:
                    else_ends = self._wire_block(stmt.els, [stmt.uid])
                else:
                    else_ends = [stmt.uid]
                dangling = then_ends + else_ends
            elif isinstance(stmt, A.While):
                body_ends = self._wire_block(stmt.body, [stmt.uid])
                for node in body_ends:
                    self._edge(node, stmt.uid)
                dangling = [stmt.uid]
            else:
                dangling = [stmt.uid]
            if not dangling:
                # Code after a return/exit is unreachable; stop wiring but
                # keep walking so nested uids register.
                remaining = block.stmts[block.stmts.index(stmt) + 1 :]
                for rest in remaining:
                    self.stmts[rest.uid] = rest
                break
        return dangling


def _must_defs_of_stmt(stmt, info, must_mod, caller_visible):
    """Caller-visible names this statement definitely assigns."""
    call, captures, target = _call_of(stmt)
    out = set()
    if isinstance(stmt, A.Assign) and stmt.name in caller_visible:
        out.add(stmt.name)
    if isinstance(stmt, (A.Assign, A.LocalDecl)):
        expr = stmt.expr if isinstance(stmt, A.Assign) else stmt.init
        if isinstance(expr, A.InputExpr):
            out.add(INPUT)
    if call is not None:
        # Translate the callee's current must-mod estimate.
        callee = info.procs[call.callee].proc
        param_kinds = {p.name: p.kind for p in callee.params}
        actual_of = {p.name: arg for p, arg in zip(callee.params, call.args)}
        for name in must_mod[call.callee]:
            if name in info.global_names or name == INPUT:
                out.add(name)
            elif param_kinds.get(name) == "ref":
                actual = actual_of[name]
                if isinstance(actual, A.Var) and actual.name in caller_visible:
                    out.add(actual.name)
    return out


def _compute_must(program, info, graphs, sccs, universe, result):
    procs = {proc.name: proc for proc in program.procs}
    must_mod = {name: set(values) for name, values in universe.items()}
    _solve_callees_first(
        sccs,
        must_mod,
        lambda name: _must_at_return(procs[name], graphs[name], info, must_mod, universe),
    )
    result.must_mod = must_mod


def _must_at_return(proc, graph, info, must_mod, universe):
    """Run the forward must-be-assigned dataflow, returning the set of
    names definitely assigned at the normal-return join."""
    caller_visible = universe[proc.name]
    _in_sets, out_sets = _must_dataflow(graph, info, must_mod, caller_visible)
    preds_of_ret = graph.pred["ret"]
    if not preds_of_ret:
        # The procedure never returns normally: must-mod is vacuous.
        return set(caller_visible)
    return set(frozenset.intersection(*[out_sets[pred] for pred in preds_of_ret]))


def _must_dataflow(graph, info, must_mod, caller_visible):
    """Forward must-be-assigned dataflow over ``graph``: the greatest
    fixpoint of IN(entry) = {}, IN(n) = the intersection of OUT over n's
    predecessors, OUT(n) = IN(n) | MUSTDEF(n).  Nodes unreachable from
    the entry stay at the full set.  Returns ``(in_sets, out_sets)``."""
    full = frozenset(caller_visible)
    in_sets = dict.fromkeys(graph.succ, full)
    out_sets = dict.fromkeys(graph.succ, full)
    in_sets["entry"] = out_sets["entry"] = frozenset()
    defs = {
        node: _must_defs_of_stmt(graph.stmts[node], info, must_mod, caller_visible)
        for node in graph.order
    }
    changed = True
    while changed:
        changed = False
        for node in graph.order:
            preds = graph.pred[node]
            new_in = frozenset.intersection(*[out_sets[pred] for pred in preds])
            in_sets[node] = new_in
            new_out = new_in | defs[node]
            if new_out != out_sets[node]:
                out_sets[node] = new_out
                changed = True
    return in_sets, out_sets


# ---------------------------------------------------------------------------
# Upwards-exposed references (flow-sensitive least fixpoint)
# ---------------------------------------------------------------------------


def _node_reads(stmt, info, caller_visible, exposed, must_in):
    """Caller-visible names this statement may read *exposed to entry*:
    its own expression reads, plus the callee's exposed reads translated
    through the call site — minus whatever is already must-defined on
    every path to this node."""
    reads = set()

    def note(expr, include_call_args=True):
        reads.update(
            A.expr_vars(expr, include_call_args=include_call_args) & caller_visible
        )

    call, _captures, _target = _call_of(stmt)
    if isinstance(stmt, (A.Assign, A.LocalDecl)):
        expr = stmt.expr if isinstance(stmt, A.Assign) else stmt.init
        if isinstance(expr, A.InputExpr):
            reads.add(INPUT)
        elif expr is not None and not isinstance(expr, A.CallExpr):
            note(expr)
    elif isinstance(stmt, (A.If, A.While)):
        note(stmt.cond)
    elif isinstance(stmt, A.Return):
        if stmt.expr is not None:
            note(stmt.expr)
    elif isinstance(stmt, A.Print):
        for arg in stmt.args:
            note(arg)
    elif isinstance(stmt, A.ExitStmt):
        if stmt.arg is not None:
            note(stmt.arg)
    if call is not None:
        callee = info.procs[call.callee].proc
        param_kinds = {p.name: p.kind for p in callee.params}
        actual_of = {p.name: arg for p, arg in zip(callee.params, call.args)}
        for arg, param in zip(call.args, callee.params):
            if param.kind != "ref":
                note(arg)
        for name in exposed[call.callee]:
            if name in info.global_names or name == INPUT:
                reads.add(name)
            elif param_kinds.get(name) == "ref":
                actual = actual_of[name]
                if isinstance(actual, A.Var) and actual.name in caller_visible:
                    reads.add(actual.name)
    return reads - must_in


def _compute_exposed(program, info, graphs, sccs, universe, result):
    """Least fixpoint of the upwards-exposed reference sets."""
    must_in = {
        proc.name: _must_dataflow(
            graphs[proc.name], info, result.must_mod, universe[proc.name]
        )[0]
        for proc in program.procs
    }
    exposed = {proc.name: set() for proc in program.procs}

    def evaluate(name):
        visible = universe[name]
        new = set()
        for uid, stmt in graphs[name].stmts.items():
            node_must = must_in[name].get(uid, frozenset())
            new |= _node_reads(stmt, info, visible, exposed, node_must)
        return new

    _solve_callees_first(sccs, exposed, evaluate)
    result.exposed_ref = exposed
