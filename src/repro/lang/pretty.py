"""Pretty-printer: TinyC AST back to source text.

The specialization pipeline produces new ASTs (specialized procedures with
renamed call targets and reduced parameter lists); this module renders them
as compilable TinyC source.  ``parse(pretty(ast))`` round-trips.
"""

from repro.lang import ast_nodes as A

_INDENT = "  "

# The binding strength a left operand of each operator must have to
# go unparenthesized: the operator's own, or one tighter for a
# comparison, since comparisons do not associate.
_LEFT_OPERAND = {
    op: prec + 1 if prec == A.COMPARISON_PRECEDENCE else prec
    for op, prec in A.BINARY_PRECEDENCE.items()
}


def _expr(expr, parent_prec=0):
    if isinstance(expr, A.Num):
        return str(expr.value)
    if isinstance(expr, A.Var):
        return expr.name
    if isinstance(expr, A.FuncRef):
        return "&" + expr.name
    if isinstance(expr, A.InputExpr):
        return "input()"
    if isinstance(expr, A.CallExpr):
        return "%s(%s)" % (expr.callee, ", ".join(_expr(arg) for arg in expr.args))
    if isinstance(expr, A.Un):
        inner = _expr(expr.operand, 6)
        return "%s%s" % (expr.op, inner)
    if isinstance(expr, A.Bin):
        return _bin_chain(expr, parent_prec)
    raise AssertionError("unknown expression %r" % expr)


def _bin_chain(expr, parent_prec):
    """Render a binary operator and the chain down its left spine
    (:func:`~repro.lang.ast_nodes.left_spine`) in one loop.  A
    parenthesized link opens its parenthesis before the chain's first
    operand and closes it after its own right operand."""
    chain, operand = A.left_spine(expr)
    parts = [_expr(operand, _LEFT_OPERAND[chain[-1].op])]
    opened = 0
    for index in range(len(chain) - 1, -1, -1):
        node = chain[index]
        prec = A.BINARY_PRECEDENCE[node.op]
        parts.append(" %s %s" % (node.op, _expr(node.right, prec + 1)))
        if prec < (_LEFT_OPERAND[chain[index - 1].op] if index else parent_prec):
            opened += 1
            parts.append(")")
    return "(" * opened + "".join(parts)


def _escape(text):
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def _stmt(stmt, depth, lines):
    pad = _INDENT * depth
    if isinstance(stmt, A.LocalDecl):
        keyword = "fnptr" if stmt.is_fnptr else "int"
        if stmt.init is not None:
            lines.append("%s%s %s = %s;" % (pad, keyword, stmt.name, _expr(stmt.init)))
        else:
            lines.append("%s%s %s;" % (pad, keyword, stmt.name))
    elif isinstance(stmt, A.Assign):
        lines.append("%s%s = %s;" % (pad, stmt.name, _expr(stmt.expr)))
    elif isinstance(stmt, A.CallStmt):
        lines.append("%s%s;" % (pad, _expr(stmt.call)))
    elif isinstance(stmt, A.If):
        lines.append("%sif (%s) {" % (pad, _expr(stmt.cond)))
        _block(stmt.then, depth + 1, lines)
        if stmt.els is not None:
            lines.append("%s} else {" % pad)
            _block(stmt.els, depth + 1, lines)
        lines.append("%s}" % pad)
    elif isinstance(stmt, A.While):
        lines.append("%swhile (%s) {" % (pad, _expr(stmt.cond)))
        _block(stmt.body, depth + 1, lines)
        lines.append("%s}" % pad)
    elif isinstance(stmt, A.Return):
        if stmt.expr is not None:
            lines.append("%sreturn %s;" % (pad, _expr(stmt.expr)))
        else:
            lines.append("%sreturn;" % pad)
    elif isinstance(stmt, A.Print):
        parts = []
        if stmt.fmt is not None:
            parts.append('"%s"' % _escape(stmt.fmt))
        parts.extend(_expr(arg) for arg in stmt.args)
        lines.append("%sprint(%s);" % (pad, ", ".join(parts)))
    elif isinstance(stmt, A.ExitStmt):
        if stmt.arg is not None:
            lines.append("%sexit(%s);" % (pad, _expr(stmt.arg)))
        else:
            lines.append("%sexit();" % pad)
    else:
        raise AssertionError("unknown statement %r" % stmt)


def _block(block, depth, lines):
    for stmt in block.stmts:
        _stmt(stmt, depth, lines)


def _param(param):
    if param.kind == "ref":
        return "ref int %s" % param.name
    if param.kind == "fnptr":
        return "fnptr %s" % param.name
    return "int %s" % param.name


def pretty_global(decl):
    """Render one global declaration as a source line."""
    keyword = "fnptr" if decl.is_fnptr else "int"
    if decl.init is not None:
        return "%s %s = %s;" % (keyword, decl.name, _expr(decl.init))
    return "%s %s;" % (keyword, decl.name)


def pretty_proc(proc):
    """Render one procedure as source text.

    This is the *normalized lexeme stream* of the procedure: whitespace
    and comments are gone, and expressions carry only structurally
    necessary parentheses — the rendering the incremental engine's
    per-procedure content keys hash.
    """
    lines = [
        "%s %s(%s) {"
        % (proc.ret, proc.name, ", ".join(_param(param) for param in proc.params))
    ]
    _block(proc.body, 1, lines)
    lines.append("}")
    return "\n".join(lines)


def pretty(program):
    """Render ``program`` as TinyC source text."""
    lines = []
    for decl in program.globals:
        lines.append(pretty_global(decl))
    if program.globals:
        lines.append("")
    for proc in program.procs:
        lines.append(pretty_proc(proc))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
