"""Call graph construction and the may-exit analysis.

The call graph records, per procedure, its direct call sites (indirect
calls must be lowered by the §6.2 transformation before SDG construction,
so the graph only ever sees direct calls).

``may_exit`` computes which procedures may transitively reach an
``exit()`` statement; calls to such procedures are modeled as potential
jumps (Ball–Horwitz pseudo-predicates) so that statements following the
call become control dependent on it — the interprocedural generalization
of the paper's §6.1 treatment of ``exit``.
"""

from repro.lang import ast_nodes as A


class CallSite(object):
    """One direct call occurrence.

    Attributes:
        caller: caller procedure name.
        callee: callee procedure name.
        stmt: the statement containing the call (CallStmt or Assign).
        call: the :class:`CallExpr` node.
        captures_return: True for ``x = f(...)``.
        target_var: the assigned variable for captured returns.
        label: a process-unique call-site label (set by the SDG builder).
    """

    def __init__(self, caller, callee, stmt, call, captures_return, target_var):
        self.caller = caller
        self.callee = callee
        self.stmt = stmt
        self.call = call
        self.captures_return = captures_return
        self.target_var = target_var
        self.label = None

    def __repr__(self):
        return "CallSite(%s -> %s at uid %r)" % (self.caller, self.callee, self.stmt.uid)


class CallGraph(object):
    """Direct call graph of a program."""

    def __init__(self):
        self.sites = []  # all CallSite objects, in program order
        self.calls_from = {}  # proc name -> list of CallSite
        self.calls_to = {}  # proc name -> list of CallSite
        self.exits_directly = set()  # procs containing an exit statement

    def add_proc(self, name):
        self.calls_from.setdefault(name, [])
        self.calls_to.setdefault(name, [])

    def add_site(self, site):
        self.sites.append(site)
        self.calls_from[site.caller].append(site)
        self.calls_to.setdefault(site.callee, []).append(site)

    def callees(self, name):
        return {site.callee for site in self.calls_from.get(name, ())}

    def callers(self, name):
        return {site.caller for site in self.calls_to.get(name, ())}

    def may_exit(self):
        """Procedures that may transitively execute ``exit()``: the
        direct exiters and everything that reaches them, found by one
        walk backwards over call sites."""
        result = set(self.exits_directly)
        stack = list(result)
        while stack:
            name = stack.pop()
            for site in self.calls_to.get(name, ()):
                if site.caller not in result:
                    result.add(site.caller)
                    stack.append(site.caller)
        return result

    def reachable_from(self, root="main"):
        """Procedures reachable from ``root`` in the call graph."""
        seen = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees(name) - seen)
        return seen


def build_call_graph(program):
    """Build the direct call graph of a semantically checked program.

    Raises ``ValueError`` on indirect calls — run the §6.2 lowering
    (:func:`repro.core.funcptr.lower_indirect_calls`) first.
    """
    graph = CallGraph()
    for proc in program.procs:
        graph.add_proc(proc.name)
    for proc in program.procs:
        for stmt in A.walk_stmts(proc.body):
            if isinstance(stmt, A.ExitStmt):
                graph.exits_directly.add(proc.name)
            call, captures, target = _call_of(stmt)
            if call is None:
                continue
            if call.is_indirect:
                raise ValueError(
                    "indirect call in %r (uid %r): lower function pointers "
                    "before building the call graph" % (proc.name, stmt.uid)
                )
            graph.add_site(CallSite(proc.name, call.callee, stmt, call, captures, target))
    return graph


def _call_of(stmt):
    """Extract ``(call_expr, captures_return, target_var)`` from a
    statement, or ``(None, False, None)``."""
    if isinstance(stmt, A.CallStmt):
        return stmt.call, False, None
    if isinstance(stmt, A.Assign) and isinstance(stmt.expr, A.CallExpr):
        return stmt.expr, True, stmt.name
    if isinstance(stmt, A.LocalDecl) and isinstance(stmt.init, A.CallExpr):
        return stmt.init, True, stmt.name
    return None, False, None
