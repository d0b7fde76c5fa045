"""Semantic analysis for TinyC.

Responsibilities:

* build symbol tables (globals, procedures, per-procedure params/locals);
* resolve names — in particular, rewrite bare identifiers that refer to
  procedures into :class:`FuncRef` nodes, and mark indirect calls
  (``CallExpr.is_indirect``) whose callee is a function-pointer variable;
* enforce the structural restrictions the SDG model relies on:

  - calls appear only in statement position or as the *entire* right-hand
    side of an assignment (never nested inside a larger expression);
  - ``input()`` likewise only as an entire right-hand side;
  - arguments bound to ``ref`` parameters are plain variables;
  - direct calls match the callee's arity and parameter kinds;
  - a procedure used as a value (function pointer), in a statement or
    a global's initializer, exists;

* collect, for the function-pointer extension (§6.2), the set of
  procedures that may flow into each function-pointer variable
  (flow-insensitive, Andersen-style — matching the paper's use of
  Andersen's analysis).
"""

from repro.lang import ast_nodes as A
from repro.lang.errors import SemanticError


class ProcInfo(object):
    """Semantic summary of one procedure."""

    def __init__(self, proc):
        self.proc = proc
        self.name = proc.name
        self.params = [param.name for param in proc.params]
        self.param_kinds = {param.name: param.kind for param in proc.params}
        self.locals = {}  # name -> is_fnptr
        self.returns_value = proc.ret == "int"

    def is_local_name(self, name):
        return name in self.locals or name in self.param_kinds

    def is_fnptr_name(self, name, program_info):
        if name in self.locals:
            return self.locals[name]
        if name in self.param_kinds:
            return self.param_kinds[name] == "fnptr"
        return name in program_info.fnptr_globals


class ProgramInfo(object):
    """Semantic summary of a whole program.

    Attributes:
        program: the (possibly rewritten) AST.
        procs: mapping of procedure name to :class:`ProcInfo`.
        global_names: set of all global variable names.
        fnptr_globals: subset of global_names holding function pointers.
        fnptr_targets: mapping of function-pointer variable *key* to the
            set of procedure names that may flow into it.  Keys are
            ``("global", name)`` or ``(proc_name, name)`` for locals and
            parameters.
        has_indirect_calls: True if any indirect call exists.
    """

    def __init__(self, program):
        self.program = program
        self.procs = {}
        self.global_names = set()
        self.fnptr_globals = set()
        self.fnptr_targets = {}
        self.has_indirect_calls = False

    def fnptr_key(self, proc_name, var_name):
        """Canonical key for a function-pointer variable occurrence."""
        proc_info = self.procs.get(proc_name)
        if proc_info is not None and proc_info.is_local_name(var_name):
            return (proc_name, var_name)
        return ("global", var_name)

    def may_point_to(self, proc_name, var_name):
        """Procedures that may flow into function-pointer ``var_name`` as
        seen inside ``proc_name`` (flow-insensitive)."""
        return frozenset(self.fnptr_targets.get(self.fnptr_key(proc_name, var_name), ()))


def _error(message, node):
    pos = node.pos or (None, None)
    raise SemanticError(message, pos[0], pos[1])


class _Checker(object):
    def __init__(self, program):
        self.program = program
        self.info = ProgramInfo(program)

    # -- entry point ---------------------------------------------------------

    def run(self):
        self._collect_globals()
        self._collect_procs()
        for decl in self.program.globals:
            # Checked once every procedure is known.
            init = decl.init
            if isinstance(init, A.FuncRef) and init.name not in self.info.procs:
                _error("unknown procedure %r" % init.name, init)
        for proc in self.program.procs:
            self._check_proc(proc)
        self._resolve_fnptr_flow()
        if "main" not in self.info.procs:
            raise SemanticError("program has no procedure named 'main'")
        if self.info.procs["main"].params:
            _error("'main' must not take parameters", self.info.procs["main"].proc)
        return self.info

    # -- symbol collection -----------------------------------------------------

    def _collect_globals(self):
        for decl in self.program.globals:
            if decl.name in self.info.global_names:
                _error("duplicate global %r" % decl.name, decl)
            self.info.global_names.add(decl.name)
            if decl.is_fnptr:
                self.info.fnptr_globals.add(decl.name)
            if decl.init is not None and not isinstance(decl.init, (A.Num, A.FuncRef)):
                _error("global initializer must be a constant", decl)

    def _collect_procs(self):
        for proc in self.program.procs:
            if proc.name in self.info.procs:
                _error("duplicate procedure %r" % proc.name, proc)
            if proc.name in self.info.global_names:
                _error("procedure %r shadows a global" % proc.name, proc)
            seen = set()
            for param in proc.params:
                if param.name in seen:
                    _error("duplicate parameter %r" % param.name, proc)
                if param.name in self.info.global_names:
                    # Shadowing would make the mod/ref name spaces overlap.
                    _error("parameter %r shadows a global" % param.name, proc)
                seen.add(param.name)
            self.info.procs[proc.name] = ProcInfo(proc)

    # -- per-procedure checks ----------------------------------------------------

    def _check_proc(self, proc):
        proc_info = self.info.procs[proc.name]
        self._check_block(proc.body, proc_info)

    def _check_block(self, block, proc_info):
        for stmt in block.stmts:
            self._check_stmt(stmt, proc_info)

    def _check_stmt(self, stmt, proc_info):
        if isinstance(stmt, A.LocalDecl):
            if (
                stmt.name in proc_info.locals
                or stmt.name in proc_info.param_kinds
            ):
                _error("duplicate local %r" % stmt.name, stmt)
            if stmt.name in self.info.procs:
                _error("local %r shadows a procedure" % stmt.name, stmt)
            if stmt.name in self.info.global_names:
                _error("local %r shadows a global" % stmt.name, stmt)
            proc_info.locals[stmt.name] = stmt.is_fnptr
            if stmt.init is not None:
                stmt.init = self._check_rhs(stmt.init, proc_info, stmt)
        elif isinstance(stmt, A.Assign):
            self._check_var_target(stmt.name, proc_info, stmt)
            stmt.expr = self._check_rhs(stmt.expr, proc_info, stmt)
        elif isinstance(stmt, A.CallStmt):
            self._check_call(stmt.call, proc_info)
        elif isinstance(stmt, A.If):
            stmt.cond = self._check_expr(stmt.cond, proc_info)
            self._check_block(stmt.then, proc_info)
            if stmt.els is not None:
                self._check_block(stmt.els, proc_info)
        elif isinstance(stmt, A.While):
            stmt.cond = self._check_expr(stmt.cond, proc_info)
            self._check_block(stmt.body, proc_info)
        elif isinstance(stmt, A.Return):
            if stmt.expr is not None:
                if not proc_info.returns_value:
                    _error(
                        "void procedure %r returns a value" % proc_info.name, stmt
                    )
                stmt.expr = self._check_expr(stmt.expr, proc_info)
            elif proc_info.returns_value:
                _error(
                    "int procedure %r returns no value" % proc_info.name, stmt
                )
        elif isinstance(stmt, A.Print):
            stmt.args = [self._check_expr(arg, proc_info) for arg in stmt.args]
        elif isinstance(stmt, A.ExitStmt):
            if stmt.arg is not None:
                stmt.arg = self._check_expr(stmt.arg, proc_info)
        else:
            raise AssertionError("unknown statement %r" % stmt)

    def _check_var_target(self, name, proc_info, stmt):
        if not proc_info.is_local_name(name) and name not in self.info.global_names:
            _error("assignment to undeclared variable %r" % name, stmt)

    # -- expression checks -------------------------------------------------------

    def _check_rhs(self, expr, proc_info, stmt):
        """Check an assignment right-hand side, where a call or input() is
        permitted as the entire expression."""
        if isinstance(expr, A.CallExpr):
            self._check_call(expr, proc_info, needs_value=True)
            return expr
        if isinstance(expr, A.InputExpr):
            return expr
        return self._check_expr(expr, proc_info)

    def _check_expr(self, expr, proc_info):
        """Check a general expression; calls and input() are rejected here
        because the SDG models them only at statement level."""
        if isinstance(expr, A.Num):
            return expr
        if isinstance(expr, A.CallExpr):
            _error("calls may only appear as a statement or entire RHS", expr)
        if isinstance(expr, A.InputExpr):
            _error("input() may only appear as an entire RHS", expr)
        if isinstance(expr, A.FuncRef):
            if expr.name not in self.info.procs:
                _error("unknown procedure %r" % expr.name, expr)
            return expr
        if isinstance(expr, A.Var):
            if proc_info.is_local_name(expr.name) or expr.name in self.info.global_names:
                return expr
            if expr.name in self.info.procs:
                # A bare procedure name used as a value.
                return A.FuncRef(expr.name, pos=expr.pos)
            _error("undeclared variable %r" % expr.name, expr)
        if isinstance(expr, A.Bin):
            chain, operand = A.left_spine(expr)
            chain[-1].left = self._check_expr(operand, proc_info)
            for node in reversed(chain):
                node.right = self._check_expr(node.right, proc_info)
            return expr
        if isinstance(expr, A.Un):
            expr.operand = self._check_expr(expr.operand, proc_info)
            return expr
        raise AssertionError("unknown expression %r" % expr)

    def _check_call(self, call, proc_info, needs_value=False):
        if call.callee in self.info.procs:
            callee = self.info.procs[call.callee]
            if len(call.args) != len(callee.params):
                _error(
                    "call to %r passes %d argument(s); %d expected"
                    % (call.callee, len(call.args), len(callee.params)),
                    call,
                )
            if needs_value and not callee.returns_value:
                _error("void procedure %r used as a value" % call.callee, call)
            call.args = [
                self._check_arg(arg, callee.param_kinds[param], proc_info, call)
                for arg, param in zip(call.args, callee.params)
            ]
            # No-alias discipline (the dependence model assumes distinct
            # storage for each ref parameter and for globals): a ref
            # argument must be a non-global variable, and no variable may
            # be passed by reference twice in one call.
            ref_names = [
                arg.name
                for arg, param in zip(call.args, callee.proc.params)
                if param.kind == "ref"
            ]
            for name in ref_names:
                if name in self.info.global_names:
                    _error(
                        "global %r passed by reference (would alias the "
                        "callee's direct accesses)" % name,
                        call,
                    )
            if len(ref_names) != len(set(ref_names)):
                _error(
                    "variable passed by reference twice in one call "
                    "(aliasing)", call
                )
        elif proc_info.is_fnptr_name(call.callee, self.info) or (
            call.callee in self.info.fnptr_globals
        ):
            call.is_indirect = True
            self.info.has_indirect_calls = True
            call.args = [self._check_expr(arg, proc_info) for arg in call.args]
        else:
            _error("call to unknown procedure %r" % call.callee, call)

    def _check_arg(self, arg, kind, proc_info, call):
        if kind == "ref":
            if not isinstance(arg, A.Var):
                _error("argument bound to a 'ref' parameter must be a variable", call)
            return self._check_expr(arg, proc_info)
        if kind == "fnptr":
            checked = self._check_expr(arg, proc_info)
            if not isinstance(checked, (A.FuncRef, A.Var)):
                _error("argument bound to a 'fnptr' parameter must name a procedure or pointer", call)
            return checked
        return self._check_expr(arg, proc_info)

    # -- function-pointer flow (Andersen-style, flow-insensitive) -----------------

    def _resolve_fnptr_flow(self):
        """Propagate procedure references through function-pointer copies
        until fixpoint.  Assignments considered: ``p = &f``/``p = f``,
        ``p = q``, fnptr arguments at direct call sites, and fnptr global
        initializers."""
        targets = {}
        copies = []  # (dst_key, src_key)

        def add(key, proc_name):
            targets.setdefault(key, set()).add(proc_name)

        for decl in self.program.globals:
            if decl.is_fnptr and isinstance(decl.init, A.FuncRef):
                add(("global", decl.name), decl.init.name)

        for proc in self.program.procs:
            proc_info = self.info.procs[proc.name]
            for stmt in A.walk_stmts(proc.body):
                if isinstance(stmt, (A.Assign, A.LocalDecl)):
                    target = stmt.name
                    expr = stmt.expr if isinstance(stmt, A.Assign) else stmt.init
                    if expr is not None and proc_info.is_fnptr_name(
                        target, self.info
                    ):
                        dst = self.info.fnptr_key(proc.name, target)
                        if isinstance(expr, A.FuncRef):
                            add(dst, expr.name)
                        elif isinstance(expr, A.Var):
                            copies.append(
                                (dst, self.info.fnptr_key(proc.name, expr.name))
                            )
                for expr in A.stmt_exprs(stmt):
                    if isinstance(expr, A.CallExpr) and not expr.is_indirect:
                        callee = self.info.procs.get(expr.callee)
                        if callee is None:
                            continue
                        for arg, param in zip(expr.args, callee.proc.params):
                            if param.kind != "fnptr":
                                continue
                            dst = (callee.name, param.name)
                            if isinstance(arg, A.FuncRef):
                                add(dst, arg.name)
                            elif isinstance(arg, A.Var):
                                copies.append(
                                    (dst, self.info.fnptr_key(proc.name, arg.name))
                                )

        changed = True
        while changed:
            changed = False
            for dst, src in copies:
                source_set = targets.get(src, set())
                dest_set = targets.setdefault(dst, set())
                before = len(dest_set)
                dest_set.update(source_set)
                changed = changed or len(dest_set) != before

        self.info.fnptr_targets = {key: frozenset(value) for key, value in targets.items()}


def check(program):
    """Run semantic analysis on ``program``; returns a :class:`ProgramInfo`.

    The AST is rewritten in place (procedure-name references become
    :class:`FuncRef`, indirect calls are marked).
    """
    return _Checker(program).run()
