"""A tree-walking interpreter for TinyC.

The interpreter exists to *validate slices*: an executable slice must, on
every input, print the same sequence of values at the slicing-criterion
print statements as the original program (Weiser's correctness condition).
It also powers the §5 ``wc`` speedup experiment, where we compare the
number of interpreter steps executed by a slice against the original.

Semantics notes:

* Integer division/modulo by zero evaluate to 0 (total semantics — keeps
  property-based testing free of input preconditions).
* ``&&``/``||`` are strict (expressions are side-effect free in TinyC, so
  short-circuiting is unobservable).
* ``input()`` reads the next integer from the supplied input list and
  returns 0 once the list is exhausted.
* ``ref`` parameters alias the caller's variable (call-by-reference,
  implemented with shared cells).
* Function-pointer values are procedure names.
"""

import sys

from repro.lang import ast_nodes as A


class ExecutionLimitExceeded(Exception):
    """Raised when a run exceeds its step budget (defends against
    non-terminating generated programs)."""


class OutputLimitExceeded(Exception):
    """Raised by :meth:`RunResult.render` when a printed value has more
    digits than CPython converts to text (``sys.get_int_max_str_digits()``,
    4,300 by default; the process-wide limit is left alone)."""


class _ExitSignal(Exception):
    def __init__(self, code):
        self.code = code


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _Cell(object):
    """A mutable variable slot; ``ref`` parameters share the caller's cell."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value


class RunResult(object):
    """Outcome of one program run.

    Attributes:
        prints: list of ``(stmt_uid, fmt, tuple_of_values)`` in emission
            order — one entry per executed ``print``.
        steps: number of statements executed (the §5 work metric).
        exit_code: value passed to ``exit`` or None for normal completion.
    """

    def __init__(self, prints, steps, exit_code):
        self.prints = prints
        self.steps = steps
        self.exit_code = exit_code

    @property
    def values(self):
        """The flat sequence of printed values (ignores uids/format)."""
        flat = []
        for _uid, _fmt, args in self.prints:
            flat.extend(args)
        return flat

    def prints_at(self, uids):
        """Printed value tuples restricted to the given statement uids
        (slice-equivalence checks compare these)."""
        wanted = set(uids)
        return [(uid, args) for uid, _fmt, args in self.prints if uid in wanted]

    def render(self):
        """Human-readable output text, mimicking printf.  Raises
        :class:`OutputLimitExceeded` when a printed value is too long
        to convert to text."""
        chunks = []
        for _uid, fmt, args in self.prints:
            try:
                if fmt is not None:
                    chunks.append(fmt % tuple(args) if args else fmt)
                else:
                    chunks.append(" ".join(str(value) for value in args) + "\n")
            except ValueError:
                if not any(_too_long_for_text(value) for value in args):
                    raise
                raise OutputLimitExceeded(
                    "printed value is too long (more than %d digits)"
                    % sys.get_int_max_str_digits()
                )
        return "".join(chunks)


def _too_long_for_text(value):
    """Whether ``str`` refuses ``value``: an int past the interpreter's
    int-to-text digit limit."""
    if not isinstance(value, int):
        return False
    try:
        str(value)
    except ValueError:
        return True
    return False


class Interpreter(object):
    """Interprets a semantically checked TinyC program."""

    def __init__(self, program, max_steps=1_000_000):
        self.program = program
        self.max_steps = max_steps
        self._procs = {proc.name: proc for proc in program.procs}

    # -- public API -----------------------------------------------------------

    def run(self, inputs=()):
        """Execute ``main`` with the given input integers."""
        self._inputs = list(inputs)
        self._input_pos = 0
        self._prints = []
        self._steps = 0
        self._globals = {}
        for decl in self.program.globals:
            if decl.init is None:
                value = 0
            elif isinstance(decl.init, A.FuncRef):
                value = decl.init.name
            else:
                value = decl.init.value
            self._globals[decl.name] = _Cell(value)
        exit_code = None
        try:
            self._call(self._procs["main"], [])
        except _ExitSignal as signal:
            exit_code = signal.code
        return RunResult(self._prints, self._steps, exit_code)

    # -- execution ------------------------------------------------------------

    def _tick(self):
        self._steps += 1
        if self._steps > self.max_steps:
            raise ExecutionLimitExceeded(
                "exceeded %d interpreter steps" % self.max_steps
            )

    def _call(self, proc, arg_cells_and_values):
        frame = {}
        for param, arg in zip(proc.params, arg_cells_and_values):
            if param.kind == "ref":
                frame[param.name] = arg  # shared cell
            else:
                frame[param.name] = _Cell(arg)
        try:
            self._exec_block(proc.body, frame)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    def _exec_block(self, block, frame):
        for stmt in block.stmts:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt, frame):
        self._tick()
        if isinstance(stmt, A.LocalDecl):
            value = self._eval_rhs(stmt.init, frame) if stmt.init is not None else 0
            frame[stmt.name] = _Cell(value)
        elif isinstance(stmt, A.Assign):
            value = self._eval_rhs(stmt.expr, frame)
            self._cell(stmt.name, frame).value = value
        elif isinstance(stmt, A.CallStmt):
            self._eval_call(stmt.call, frame)
        elif isinstance(stmt, A.If):
            if self._eval(stmt.cond, frame):
                self._exec_block(stmt.then, frame)
            elif stmt.els is not None:
                self._exec_block(stmt.els, frame)
        elif isinstance(stmt, A.While):
            while True:
                self._tick()  # each condition evaluation costs a step
                if not self._eval(stmt.cond, frame):
                    break
                self._exec_block(stmt.body, frame)
        elif isinstance(stmt, A.Return):
            value = self._eval(stmt.expr, frame) if stmt.expr is not None else 0
            raise _ReturnSignal(value)
        elif isinstance(stmt, A.Print):
            values = tuple(self._eval(arg, frame) for arg in stmt.args)
            self._prints.append((stmt.uid, stmt.fmt, values))
        elif isinstance(stmt, A.ExitStmt):
            code = self._eval(stmt.arg, frame) if stmt.arg is not None else 0
            raise _ExitSignal(code)
        else:
            raise AssertionError("unknown statement %r" % stmt)

    # -- evaluation -------------------------------------------------------------

    def _cell(self, name, frame):
        if name in frame:
            return frame[name]
        return self._globals[name]

    def _eval_rhs(self, expr, frame):
        if isinstance(expr, A.CallExpr):
            return self._eval_call(expr, frame)
        if isinstance(expr, A.InputExpr):
            if self._input_pos < len(self._inputs):
                value = self._inputs[self._input_pos]
                self._input_pos += 1
                return value
            return 0
        return self._eval(expr, frame)

    def _eval_call(self, call, frame):
        if call.is_indirect:
            target_name = self._cell(call.callee, frame).value
            if not isinstance(target_name, str):
                # Call through an uninitialized pointer: undefined behavior
                # in C; we make it a clean runtime error.
                raise RuntimeError(
                    "indirect call through non-pointer value %r" % (target_name,)
                )
            proc = self._procs[target_name]
        else:
            proc = self._procs[call.callee]
        args = []
        for arg, param in zip(call.args, proc.params):
            if param.kind == "ref":
                args.append(self._cell(arg.name, frame))
            else:
                args.append(self._eval(arg, frame))
        return self._call(proc, args)

    def _eval(self, expr, frame):
        if isinstance(expr, A.Num):
            return expr.value
        if isinstance(expr, A.Var):
            return self._cell(expr.name, frame).value
        if isinstance(expr, A.FuncRef):
            return expr.name
        if isinstance(expr, A.Un):
            value = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -value
            if expr.op == "!":
                return 0 if value else 1
            raise AssertionError("unknown unary %r" % expr.op)
        if isinstance(expr, A.Bin):
            chain, operand = A.left_spine(expr)
            value = self._eval(operand, frame)
            for node in reversed(chain):
                value = self._binop(node.op, value, self._eval(node.right, frame))
            return value
        raise AssertionError("unexpected expression %r" % expr)

    @staticmethod
    def _binop(op, left, right):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return 0
            return int(left / right) if (left < 0) != (right < 0) else left // right
        if op == "%":
            if right == 0:
                return 0
            return left - right * (
                int(left / right) if (left < 0) != (right < 0) else left // right
            )
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "&&":
            return 1 if (left and right) else 0
        if op == "||":
            return 1 if (left or right) else 0
        raise AssertionError("unknown operator %r" % op)


def run_program(program, inputs=(), max_steps=1_000_000):
    """One-shot helper: interpret ``program`` on ``inputs``."""
    return Interpreter(program, max_steps=max_steps).run(inputs)
