"""Abstract syntax tree node classes for TinyC.

Every node carries a ``pos`` attribute (``(line, col)`` or ``None``) and
statement nodes additionally carry a ``uid``: the statement's position,
``(procedure name, index in walk_stmts order)``, set when a
:class:`Program` is built from them.  The uid is what dependence-graph
vertices and rendered statement maps refer back to.  Procedure names are
unique, so uids are unique within a program, and the same text parses
to the same uids in any process.

AST nodes are deliberately plain objects rather than frozen dataclasses,
but nothing adds, removes or moves the statements of a built
:class:`Program` (semantic checking resolves names inside expressions in
place, which leaves positions alone).  Every producer — the parser,
function-pointer lowering, the renderer, the §7 cleanup and the workload
generator — assembles fresh statements and builds a new program, which
numbers them.
"""


class Node(object):
    """Base class; provides positional equality helpers for tests."""

    pos = None

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in getattr(self, "_repr_fields", ())
        )
        return "%s(%s)" % (type(self).__name__, fields)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""


class Num(Expr):
    _repr_fields = ("value",)

    def __init__(self, value, pos=None):
        self.value = value
        self.pos = pos


class Var(Expr):
    _repr_fields = ("name",)

    def __init__(self, name, pos=None):
        self.name = name
        self.pos = pos


class FuncRef(Expr):
    """A reference to a procedure used as a value (function-pointer init,
    or comparison ``p == f``).  Produced by the parser for ``&f`` and by
    semantic analysis when a bare name resolves to a procedure."""

    _repr_fields = ("name",)

    def __init__(self, name, pos=None):
        self.name = name
        self.pos = pos


#: How tightly each binary operator binds, loosest first: the parser
#: builds ``Bin`` trees by it and the printer parenthesizes by it.  All
#: operators associate to the left except the comparisons, which do not
#: associate at all (``a < b < c`` is a syntax error).
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "%": 5,
}
COMPARISON_PRECEDENCE = 3


class Bin(Expr):
    _repr_fields = ("op", "left", "right")

    def __init__(self, op, left, right, pos=None):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos

    def __reduce__(self):
        # pickle recurses once per nested object, so a flat chain
        # ``g + g + … + g`` pickles as its bottom operand and one
        # ``(op, right, pos)`` link per node of its left spine, bottom
        # first, and unpickles in a loop (_rebuild_chain).  Only right
        # operands recurse, and their nesting counts toward MAX_NESTING.
        chain, operand = left_spine(self)
        links = [(node.op, node.right, node.pos) for node in reversed(chain)]
        return _rebuild_chain, (operand, links)


def _rebuild_chain(operand, links):
    """The inverse of :meth:`Bin.__reduce__`: stack each link's ``Bin``
    on the chain built so far, bottom first."""
    for op, right, pos in links:
        operand = Bin(op, operand, right, pos)
    return operand


class Un(Expr):
    _repr_fields = ("op", "operand")

    def __init__(self, op, operand, pos=None):
        self.op = op
        self.operand = operand
        self.pos = pos


class CallExpr(Expr):
    """A call used as the entire right-hand side of an assignment or as a
    statement.  ``callee`` is the syntactic name; semantic analysis marks
    ``is_indirect`` when the name resolves to a function-pointer variable
    rather than a procedure."""

    _repr_fields = ("callee", "args")

    def __init__(self, callee, args, pos=None):
        self.callee = callee
        self.args = args
        self.pos = pos
        self.is_indirect = False


class InputExpr(Expr):
    """``input()`` — reads the next integer from the program input."""

    _repr_fields = ()

    def __init__(self, pos=None):
        self.pos = pos


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements; ``uid`` is None until a
    :class:`Program` numbers the statement."""

    def __init__(self, pos=None):
        self.pos = pos
        self.uid = None


class Block(Node):
    _repr_fields = ("stmts",)

    def __init__(self, stmts, pos=None):
        self.stmts = list(stmts)
        self.pos = pos


class LocalDecl(Stmt):
    _repr_fields = ("name", "init", "is_fnptr")

    def __init__(self, name, init=None, is_fnptr=False, pos=None):
        Stmt.__init__(self, pos)
        self.name = name
        self.init = init
        self.is_fnptr = is_fnptr


class Assign(Stmt):
    _repr_fields = ("name", "expr")

    def __init__(self, name, expr, pos=None):
        Stmt.__init__(self, pos)
        self.name = name
        self.expr = expr


class CallStmt(Stmt):
    _repr_fields = ("call",)

    def __init__(self, call, pos=None):
        Stmt.__init__(self, pos)
        self.call = call


class If(Stmt):
    _repr_fields = ("cond",)

    def __init__(self, cond, then, els=None, pos=None):
        Stmt.__init__(self, pos)
        self.cond = cond
        self.then = then
        self.els = els


class While(Stmt):
    _repr_fields = ("cond",)

    def __init__(self, cond, body, pos=None):
        Stmt.__init__(self, pos)
        self.cond = cond
        self.body = body


class Return(Stmt):
    _repr_fields = ("expr",)

    def __init__(self, expr=None, pos=None):
        Stmt.__init__(self, pos)
        self.expr = expr


class Print(Stmt):
    """``print("fmt", e1, ..., en);`` — the canonical library call and the
    usual slicing-criterion anchor.  The format string is optional and has
    no semantics beyond labeling output."""

    _repr_fields = ("fmt", "args")

    def __init__(self, args, fmt=None, pos=None):
        Stmt.__init__(self, pos)
        self.args = list(args)
        self.fmt = fmt


class ExitStmt(Stmt):
    """``exit(e);`` — terminates the program (library call, §6.1)."""

    _repr_fields = ("arg",)

    def __init__(self, arg=None, pos=None):
        Stmt.__init__(self, pos)
        self.arg = arg


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Param(Node):
    """A formal parameter.  ``kind`` is ``"value"``, ``"ref"`` or
    ``"fnptr"``."""

    _repr_fields = ("name", "kind")

    def __init__(self, name, kind="value", pos=None):
        self.name = name
        self.kind = kind
        self.pos = pos


class GlobalDecl(Node):
    _repr_fields = ("name", "init", "is_fnptr")

    def __init__(self, name, init=None, is_fnptr=False, pos=None):
        self.name = name
        self.init = init
        self.is_fnptr = is_fnptr
        self.pos = pos


class Proc(Node):
    """A procedure declaration.  ``ret`` is ``"int"`` or ``"void"``."""

    _repr_fields = ("name", "params", "ret")

    def __init__(self, name, params, ret, body, pos=None):
        self.name = name
        self.params = list(params)
        self.ret = ret
        self.body = body
        self.pos = pos


class Program(Node):
    """A whole program.  Building one numbers its statements: each
    statement's ``uid`` becomes ``(procedure name, index in walk_stmts
    order)``."""

    _repr_fields = ("globals", "procs")

    def __init__(self, globals, procs, pos=None):
        self.globals = list(globals)
        self.procs = list(procs)
        self.pos = pos
        for proc in self.procs:
            for index, stmt in enumerate(walk_stmts(proc.body)):
                stmt.uid = (proc.name, index)

    def proc(self, name):
        """Look up a procedure by name; raises ``KeyError`` if absent."""
        for proc in self.procs:
            if proc.name == name:
                return proc
        raise KeyError(name)

    def proc_names(self):
        return [proc.name for proc in self.procs]


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def walk_stmts(block):
    """Yield every statement in ``block``, recursing into nested blocks."""
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, If):
            for inner in walk_stmts(stmt.then):
                yield inner
            if stmt.els is not None:
                for inner in walk_stmts(stmt.els):
                    yield inner
        elif isinstance(stmt, While):
            for inner in walk_stmts(stmt.body):
                yield inner


def left_spine(expr):
    """``(chain, operand)``: the ``Bin`` nodes down ``expr``'s left
    spine, ``expr`` first, and the operand below the last of them.

    ``g + g + … + g`` is one spine as long as the expression, so a walk
    follows the spine in a loop and recurses only into right operands,
    which bind tighter than their operator unless parenthesized (and
    parentheses count toward the parser's ``MAX_NESTING``)."""
    chain = []
    while isinstance(expr, Bin):
        chain.append(expr)
        expr = expr.left
    return chain, expr


def walk_exprs(expr):
    """Yield ``expr`` and every sub-expression, in preorder.

    One loop over an explicit stack, so a flat chain ``g + g + … + g``
    of any length costs no recursion and one step per node."""
    stack = [expr]
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, Bin):
            stack.append(sub.right)
            stack.append(sub.left)
        elif isinstance(sub, Un):
            stack.append(sub.operand)
        elif isinstance(sub, CallExpr):
            stack.extend(reversed(sub.args))


def stmt_exprs(stmt):
    """Yield the top-level expressions contained in a statement."""
    if isinstance(stmt, LocalDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, Assign):
        yield stmt.expr
    elif isinstance(stmt, CallStmt):
        yield stmt.call
    elif isinstance(stmt, (If, While)):
        yield stmt.cond
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            yield stmt.expr
    elif isinstance(stmt, Print):
        for arg in stmt.args:
            yield arg
    elif isinstance(stmt, ExitStmt):
        if stmt.arg is not None:
            yield stmt.arg


def expr_vars(expr, include_call_args=True):
    """The set of variable names read by ``expr``.

    With ``include_call_args=False``, does not descend into call argument
    lists — dependence-graph construction models call arguments as
    separate actual-in vertices, so the statement owning the call must not
    claim the argument reads for itself.
    """
    names = set()
    stack = [expr]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Var):
            names.add(sub.name)
        elif isinstance(sub, Bin):
            stack.append(sub.left)
            stack.append(sub.right)
        elif isinstance(sub, Un):
            stack.append(sub.operand)
        elif isinstance(sub, CallExpr):
            if include_call_args:
                stack.extend(sub.args)
            if sub.is_indirect:
                # The function-pointer variable itself is read to dispatch.
                names.add(sub.callee)
    return names
