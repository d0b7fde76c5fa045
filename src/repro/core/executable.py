"""Generating an executable TinyC program from a specialized SDG.

This is step 5 of Alg. 1 (which the paper delegates to CodeSurfer's
pretty-printer).  Each :class:`SpecializedPDG` is rendered by walking
the *original* procedure's AST and keeping exactly the statements whose
vertices are in the partition element; call statements are re-targeted
to the specialization their call site is bound to, and argument lists
are filtered to the callee's surviving parameter positions (Cor. 3.19
guarantees the caller/callee filters agree).

Details the paper's examples imply:

* ``x = f(...)`` whose return actual-out was sliced away demotes to the
  call statement ``f(...);`` (the call's side effects remain relevant).
* A specialized procedure whose ``$ret`` formal-out was sliced away
  becomes ``void``; its kept ``return e;`` statements drop the value.
* A local whose declaration was sliced away (dead initial value) but
  which is still written/read gets a plain ``int x;`` re-inserted at the
  top of the body.
* Globals are emitted only if some kept statement mentions them; their
  (constant) initializers are preserved.
* Procedures referenced only as function-pointer values are emitted as
  empty stubs, preserving the address space (§6.2): every ``FuncRef`` in
  a kept statement, ``if``/``while`` conditions included, and in a kept
  global's initializer names a procedure the slice must define.

A monovariant vertex set (a Binkley or Weiser slice, §8) renders through
the same path: :func:`monovariant_program` states it as one
specialization per kept procedure, under the procedure's own name.

The statement map is built once the rendered program is, because
building a :class:`~repro.lang.ast_nodes.Program` numbers its
statements.
"""

from repro.core.readout import SpecializedPDG
from repro.core.specialize import SpecializationResult
from repro.lang import ast_nodes as A


class ExecutableError(Exception):
    """The specialized SDG cannot be rendered as a program (e.g. a kept
    call site whose callee was sliced away entirely — impossible for
    criteria anchored at program points, but reachable with artificial
    configuration criteria)."""


class ExecutableSlice(object):
    """A runnable slice.

    Attributes:
        program: the new :class:`Program` AST (semantically checked).
        stmt_map: new statement uid -> original statement uid (both
            positions, ``(procedure name, index)``, so the map names the
            same statements in any parse of the source text).
        spec_of_proc: new procedure name -> :class:`SpecializedPDG`
            (for a :func:`monovariant_program` rendering, one per kept
            procedure, named like it).
    """

    def __init__(self, program, stmt_map, spec_of_proc):
        self.program = program
        self.stmt_map = stmt_map
        self.spec_of_proc = spec_of_proc

    def original_uids(self, new_uids):
        return {self.stmt_map[uid] for uid in new_uids if uid in self.stmt_map}


def executable_program(result):
    """Render a :class:`SpecializationResult` as a runnable program."""
    source_sdg = result.source_sdg
    program = source_sdg.program
    info = source_sdg.info
    if program is None or info is None:
        raise ExecutableError("source SDG lacks program/info back-references")

    generator = _Generator(result, program, info)
    return generator.run()


def monovariant_program(sdg, slice_set):
    """Render a monovariant vertex set (a Binkley or Weiser slice) as a
    runnable program: each procedure whose entry vertex is in the set
    (and ``main`` always) keeps its name and its kept vertices, and each
    kept call site is bound to its callee."""
    kept = frozenset(slice_set)
    result = SpecializationResult()
    result.source_sdg = sdg
    for proc in sdg.program.procs:
        name = proc.name
        if sdg.entry_vertex[name] in kept or name == "main":
            spec = SpecializedPDG(
                name, name, kept.intersection(sdg.proc_vertices[name])
            )
            spec.name = name
            result.pdgs[name] = spec
    for label, site in sdg.call_sites.items():
        if (
            site.call_vertex in kept
            and site.caller in result.pdgs
            and site.callee in result.pdgs
        ):
            result.bindings[(site.caller, label)] = site.callee
    return executable_program(result)


class _Generator(object):
    def __init__(self, result, program, info):
        self.result = result
        self.program = program
        self.info = info
        self.sdg = result.source_sdg
        self.origins = []  # (rendered statement, original uid)
        self.spec_of_proc = {}

    # -- top level ------------------------------------------------------------

    def run(self):
        new_procs = []
        ordered = sorted(
            self.result.pdgs.values(),
            key=lambda spec: (
                [p.name for p in self.program.procs].index(spec.proc),
                spec.name,
            ),
        )
        for spec in ordered:
            new_procs.append(self._render_proc(spec))
            self.spec_of_proc[spec.name] = spec

        if "main" not in self.spec_of_proc:
            # Criterion unreachable or empty: the slice is the empty
            # program.
            empty_main = A.Proc("main", [], "int", A.Block([]))
            new_procs.append(empty_main)

        globals_, stubs = self._globals_and_stubs(new_procs)
        new_program = A.Program(globals_, new_procs + stubs)
        stmt_map = {new.uid: uid for new, uid in self.origins}

        from repro.lang.sema import check

        check(new_program)  # the slice must be a legal program
        return ExecutableSlice(new_program, stmt_map, self.spec_of_proc)

    # -- procedures ---------------------------------------------------------------

    def _kept_positions(self, spec):
        """Parameter positions surviving in a specialization."""
        roles = set(self.sdg.formal_ins[spec.proc]) | set(
            self.sdg.formal_outs[spec.proc]
        )
        kept = []
        for role in roles:
            if role[0] != "param":
                continue
            fi = self.sdg.formal_ins[spec.proc].get(role)
            fo = self.sdg.formal_outs[spec.proc].get(role)
            if (fi is not None and fi in spec.orig_vertices) or (
                fo is not None and fo in spec.orig_vertices
            ):
                kept.append(role[1])
        return sorted(kept)

    def _returns_value(self, spec):
        fo = self.sdg.formal_outs[spec.proc].get(("ret",))
        return fo is not None and fo in spec.orig_vertices

    def _render_proc(self, spec):
        proc = self.program.proc(spec.proc)
        positions = self._kept_positions(spec)
        params = [self._copy_param(proc.params[index]) for index in positions]
        ret = "int" if self._returns_value(spec) else "void"
        body_stmts = self._render_block(proc.body, spec)
        body = A.Block(body_stmts)
        self._ensure_local_decls(proc, body, params, spec)
        return A.Proc(spec.name, params, ret, body)

    @staticmethod
    def _copy_param(param):
        return A.Param(param.name, param.kind)

    # -- statements -----------------------------------------------------------------

    def _render_block(self, block, spec):
        rendered = []
        for stmt in block.stmts:
            new_stmt = self._render_stmt(stmt, spec)
            if new_stmt is not None:
                rendered.append(new_stmt)
        return rendered

    def _render_stmt(self, stmt, spec):
        vid = self.sdg.vertex_of_stmt.get(stmt.uid)
        if vid not in spec.orig_vertices:
            return None
        if isinstance(stmt, A.CallStmt) or isinstance(_rhs(stmt), A.CallExpr):
            return self._render_call(stmt, self.sdg.vertices[vid], spec)

        if isinstance(stmt, A.If):
            then = A.Block(self._render_block(stmt.then, spec))
            els = None
            if stmt.els is not None:
                els_stmts = self._render_block(stmt.els, spec)
                if els_stmts:
                    els = A.Block(els_stmts)
            new_stmt = A.If(_copy_expr(stmt.cond), then, els)
        elif isinstance(stmt, A.While):
            body = A.Block(self._render_block(stmt.body, spec))
            new_stmt = A.While(_copy_expr(stmt.cond), body)
        elif isinstance(stmt, A.Assign):
            new_stmt = A.Assign(stmt.name, _copy_expr(stmt.expr))
        elif isinstance(stmt, A.LocalDecl):
            init = _copy_expr(stmt.init) if stmt.init is not None else None
            new_stmt = A.LocalDecl(stmt.name, init, stmt.is_fnptr)
        elif isinstance(stmt, A.Return):
            if stmt.expr is not None and self._returns_value(spec):
                new_stmt = A.Return(_copy_expr(stmt.expr))
            else:
                new_stmt = A.Return(None)
        elif isinstance(stmt, A.Print):
            new_stmt = A.Print([_copy_expr(arg) for arg in stmt.args], stmt.fmt)
        elif isinstance(stmt, A.ExitStmt):
            arg = _copy_expr(stmt.arg) if stmt.arg is not None else None
            new_stmt = A.ExitStmt(arg)
        else:
            raise AssertionError("unknown statement %r" % stmt)
        self.origins.append((new_stmt, stmt.uid))
        return new_stmt

    def _render_call(self, stmt, call_vertex, spec):
        """A kept direct-call statement: retarget and filter arguments."""
        site = self.sdg.call_sites[call_vertex.site_label]
        callee_name = self.result.callee_name(spec, site.label)
        if callee_name is None:
            raise ExecutableError(
                "call site %s kept in %s but not bound to any specialization"
                % (site.label, spec.name)
            )
        callee_spec = next(
            s for s in self.result.pdgs.values() if s.name == callee_name
        )
        positions = self._kept_positions(callee_spec)
        call = _call_of_stmt(stmt)
        args = [_copy_expr(call.args[index]) for index in positions]
        new_call = A.CallExpr(callee_name, args)

        ret_ao = site.actual_outs.get(("ret",))
        captured = ret_ao is not None and ret_ao in spec.orig_vertices
        if captured and isinstance(stmt, A.Assign):
            new_stmt = A.Assign(stmt.name, new_call)
        elif captured and isinstance(stmt, A.LocalDecl):
            new_stmt = A.LocalDecl(stmt.name, new_call, stmt.is_fnptr)
        else:
            new_stmt = A.CallStmt(new_call)
        self.origins.append((new_stmt, stmt.uid))
        return new_stmt

    # -- post passes ---------------------------------------------------------------

    def _ensure_local_decls(self, orig_proc, body, params, spec):
        """Re-insert plain declarations for locals whose declaration was
        sliced away but which are still mentioned."""
        proc_info = self.info.procs[orig_proc.name]
        param_names = {param.name for param in params}
        declared = {
            stmt.name
            for stmt in A.walk_stmts(body)
            if isinstance(stmt, A.LocalDecl)
        }
        mentioned = set()
        for stmt in A.walk_stmts(body):
            if isinstance(stmt, (A.Assign, A.LocalDecl)):
                mentioned.add(stmt.name)
            for expr in A.stmt_exprs(stmt):
                mentioned.update(A.expr_vars(expr))
        missing = []
        for name in sorted(mentioned - declared - param_names):
            if name in proc_info.locals or name in proc_info.param_kinds:
                if name in proc_info.param_kinds:
                    # A parameter whose formal vertices were sliced away
                    # but which is still read: re-declare as a local
                    # (its value never matters to the slice).
                    is_fnptr = proc_info.param_kinds[name] == "fnptr"
                else:
                    is_fnptr = proc_info.locals[name]
                missing.append(A.LocalDecl(name, None, is_fnptr))
        body.stmts[:0] = missing

    def _globals_and_stubs(self, procs):
        """The globals the rendered procedures mention, and empty stubs
        for the procedures they reference only as function-pointer
        values (§6.2: addresses define the dispatch space) — in a kept
        statement, conditions included, or in a kept global's
        initializer."""
        mentioned = set()
        funcrefs = set()
        for proc in procs:
            for stmt in A.walk_stmts(proc.body):
                if isinstance(stmt, (A.Assign, A.LocalDecl)):
                    mentioned.add(stmt.name)
                for expr in A.stmt_exprs(stmt):
                    for sub in A.walk_exprs(expr):
                        if isinstance(sub, A.Var):
                            mentioned.add(sub.name)
                        elif isinstance(sub, A.FuncRef):
                            funcrefs.add(sub.name)
        globals_ = []
        for decl in self.program.globals:
            if decl.name in mentioned and decl.name in self.info.global_names:
                init = _copy_expr(decl.init) if decl.init is not None else None
                if isinstance(init, A.FuncRef):  # initializers are constants
                    funcrefs.add(init.name)
                globals_.append(A.GlobalDecl(decl.name, init, decl.is_fnptr))
        stubs = []
        for name in sorted(funcrefs - {proc.name for proc in procs}):
            try:
                orig = self.program.proc(name)
            except KeyError:
                continue
            params = [self._copy_param(param) for param in orig.params]
            stubs.append(A.Proc(name, params, orig.ret, A.Block([])))
        return globals_, stubs


def _rhs(stmt):
    if isinstance(stmt, A.Assign):
        return stmt.expr
    if isinstance(stmt, A.LocalDecl):
        return stmt.init
    return None


def _call_of_stmt(stmt):
    if isinstance(stmt, A.CallStmt):
        return stmt.call
    return _rhs(stmt)


def _copy_expr(expr):
    """Structural deep copy of an expression."""
    if isinstance(expr, A.Num):
        return A.Num(expr.value)
    if isinstance(expr, A.Var):
        return A.Var(expr.name)
    if isinstance(expr, A.FuncRef):
        return A.FuncRef(expr.name)
    if isinstance(expr, A.InputExpr):
        return A.InputExpr()
    if isinstance(expr, A.Bin):
        chain, operand = A.left_spine(expr)
        copied = _copy_expr(operand)
        for node in reversed(chain):
            copied = A.Bin(node.op, copied, _copy_expr(node.right))
        return copied
    if isinstance(expr, A.Un):
        return A.Un(expr.op, _copy_expr(expr.operand))
    if isinstance(expr, A.CallExpr):
        copied = A.CallExpr(expr.callee, [_copy_expr(arg) for arg in expr.args])
        copied.is_indirect = expr.is_indirect
        return copied
    raise AssertionError("unknown expression %r" % expr)
