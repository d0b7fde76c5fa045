"""Recursive-descent parser for TinyC.

Grammar (EBNF; ``{x}`` = repetition, ``[x]`` = option)::

    program     = { global_decl | proc_decl } ;
    global_decl = ("int" | "fnptr") ident [ "=" expr ] ";" ;
    proc_decl   = ("void" | "int") ident "(" [ params ] ")" block ;
    params      = param { "," param } ;
    param       = "int" ident | "ref" "int" ident | "fnptr" ident ;
    block       = "{" { stmt } "}" ;
    stmt        = ("int" | "fnptr") ident [ "=" expr ] ";"
                | ident "=" expr ";"
                | ident "(" [ args ] ")" ";"
                | "if" "(" expr ")" block [ "else" (block | if_stmt) ]
                | "while" "(" expr ")" block
                | "return" [ expr ] ";"
                | "print" "(" [ string "," ] [ args ] ")" ";"
                | "exit" "(" [ expr ] ")" ";" ;
    expr        = or_expr ;
    or_expr     = and_expr { "||" and_expr } ;
    and_expr    = cmp_expr { "&&" cmp_expr } ;
    cmp_expr    = add_expr [ ("=="|"!="|"<"|"<="|">"|">=") add_expr ] ;
    add_expr    = mul_expr { ("+"|"-") mul_expr } ;
    mul_expr    = unary { ("*"|"/"|"%") unary } ;
    unary       = ("-"|"!") unary | primary ;
    primary     = num | ident | ident "(" [ args ] ")" | "&" ident
                | "input" "(" ")" | "(" expr ")" ;

Calls may appear anywhere an expression is allowed syntactically; the
semantic checker restricts them to statement position or the entire
right-hand side of an assignment (which is how the SDG models calls).

A program may nest at most :data:`MAX_NESTING` levels of ``if`` and
``while`` bodies (an ``else if`` nests inside its ``if``), parentheses
(grouping or call arguments) and unary operators, all counted together;
the opener of the next level is a :class:`ParseError`.

The parser reads the token list by index: ``_peek`` and ``_at`` look at
``tokens[index]`` directly, with no bounds clamp, since the list ends
with an ``eof`` token that ``_advance`` never moves past and a
look-ahead is only taken from a token that is not ``eof``.  The five
binary-operator levels (``or_expr`` … ``mul_expr``) are parsed by
precedence climbing (``_parse_binary``): one loop per run of operators
rather than one call per level per operand, building the same
left-associated trees, with the same errors.
"""

from repro.lang import ast_nodes as A
from repro.lang.errors import ParseError
from repro.lang.tokens import tokenize

#: The deepest nesting of ``if``/``while`` bodies, parenthesized
#: subexpressions, call argument lists, and unary operators, counted
#: together.  Every level costs several Python frames here and in each
#: later tree walk (checker, lowering, interpreter, printer, renderer);
#: at this depth the whole pipeline stays inside the interpreter's
#: default recursion limit.  Length is not nesting: ``g + g + … + g``
#: is a left spine as long as the expression, which every walk follows
#: in a loop, and a right operand binds tighter than its operator, so
#: between two of these levels the frames stack at most five deep.
MAX_NESTING = 100

_TIGHTEST = max(A.BINARY_PRECEDENCE.values())


class Parser(object):
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # open nesting levels (MAX_NESTING)

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset=0):
        return self.tokens[self.index + offset]

    def _at(self, *kinds):
        return self.tokens[self.index].kind in kinds

    def _advance(self):
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _expect(self, kind):
        token = self.tokens[self.index]
        if token.kind != kind:
            raise ParseError(
                "expected %r but found %r" % (kind, token.kind), token.line, token.col
            )
        self.index += 1  # ``kind`` is never "eof"
        return token

    @staticmethod
    def _pos(token):
        return (token.line, token.col)

    def _nest(self, token, what="expression"):
        """Open one nesting level at ``token`` (a ``(``, a unary
        operator, or — ``what="statement"`` — an ``if``/``while``); the
        caller closes it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                "%s nested deeper than %d levels" % (what, MAX_NESTING),
                token.line,
                token.col,
            )

    # -- declarations ------------------------------------------------------

    def parse_program(self):
        globals_, procs = [], []
        while not self._at("eof"):
            token = self._peek()
            if token.kind == "fnptr":
                globals_.append(self._parse_global())
            elif token.kind in ("int", "void"):
                # Distinguish "int g = ..;" / "int g;" from "int f(..) {..}".
                if self._peek(1).kind != "ident":
                    raise ParseError(
                        "expected a name after type", token.line, token.col
                    )
                if self._peek(2).kind == "(":
                    procs.append(self._parse_proc())
                else:
                    globals_.append(self._parse_global())
            else:
                raise ParseError(
                    "expected a declaration, found %r" % token.kind,
                    token.line,
                    token.col,
                )
        return A.Program(globals_, procs)

    def _parse_global(self):
        type_token = self._advance()
        is_fnptr = type_token.kind == "fnptr"
        name = self._expect("ident")
        init = None
        if self._at("="):
            self._advance()
            init = self._parse_expr()
        self._expect(";")
        return A.GlobalDecl(name.value, init, is_fnptr, pos=self._pos(type_token))

    def _parse_proc(self):
        ret_token = self._advance()  # "int" or "void"
        name = self._expect("ident")
        self._expect("(")
        params = []
        if not self._at(")"):
            params.append(self._parse_param())
            while self._at(","):
                self._advance()
                params.append(self._parse_param())
        self._expect(")")
        body = self._parse_block()
        return A.Proc(name.value, params, ret_token.kind, body, pos=self._pos(ret_token))

    def _parse_param(self):
        token = self._peek()
        if token.kind == "ref":
            self._advance()
            self._expect("int")
            name = self._expect("ident")
            return A.Param(name.value, "ref", pos=self._pos(token))
        if token.kind == "fnptr":
            self._advance()
            name = self._expect("ident")
            return A.Param(name.value, "fnptr", pos=self._pos(token))
        self._expect("int")
        name = self._expect("ident")
        return A.Param(name.value, "value", pos=self._pos(token))

    # -- statements --------------------------------------------------------

    def _parse_block(self):
        open_token = self._expect("{")
        stmts = []
        while not self._at("}"):
            stmts.append(self._parse_stmt())
        self._expect("}")
        return A.Block(stmts, pos=self._pos(open_token))

    def _parse_stmt(self):
        token = self._peek()
        if token.kind in ("int", "fnptr"):
            return self._parse_local_decl()
        if token.kind == "if":
            return self._parse_if()
        if token.kind == "while":
            return self._parse_while()
        if token.kind == "return":
            return self._parse_return()
        if token.kind == "print":
            return self._parse_print()
        if token.kind == "exit":
            return self._parse_exit()
        if token.kind == "ident":
            if self._peek(1).kind == "=":
                return self._parse_assign()
            if self._peek(1).kind == "(":
                call = self._parse_call_expr()
                self._expect(";")
                return A.CallStmt(call, pos=self._pos(token))
        raise ParseError(
            "expected a statement, found %r" % token.kind, token.line, token.col
        )

    def _parse_local_decl(self):
        type_token = self._advance()
        is_fnptr = type_token.kind == "fnptr"
        name = self._expect("ident")
        init = None
        if self._at("="):
            self._advance()
            init = self._parse_expr()
        self._expect(";")
        return A.LocalDecl(name.value, init, is_fnptr, pos=self._pos(type_token))

    def _parse_assign(self):
        name = self._expect("ident")
        self._expect("=")
        expr = self._parse_expr()
        self._expect(";")
        return A.Assign(name.value, expr, pos=self._pos(name))

    def _parse_if(self):
        token = self._expect("if")
        self._nest(token, "statement")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = self._parse_block()
        els = None
        if self._at("else"):
            self._advance()
            if self._at("if"):
                # "else if" chains desugar to a nested block.
                nested = self._parse_if()
                els = A.Block([nested], pos=nested.pos)
            else:
                els = self._parse_block()
        self.depth -= 1
        return A.If(cond, then, els, pos=self._pos(token))

    def _parse_while(self):
        token = self._expect("while")
        self._nest(token, "statement")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_block()
        self.depth -= 1
        return A.While(cond, body, pos=self._pos(token))

    def _parse_return(self):
        token = self._expect("return")
        expr = None
        if not self._at(";"):
            expr = self._parse_expr()
        self._expect(";")
        return A.Return(expr, pos=self._pos(token))

    def _parse_print(self):
        token = self._expect("print")
        self._expect("(")
        fmt = None
        args = []
        if self._at("string"):
            fmt = self._advance().value
            if self._at(","):
                self._advance()
        if not self._at(")"):
            args.append(self._parse_expr())
            while self._at(","):
                self._advance()
                args.append(self._parse_expr())
        self._expect(")")
        self._expect(";")
        return A.Print(args, fmt, pos=self._pos(token))

    def _parse_exit(self):
        token = self._expect("exit")
        self._expect("(")
        arg = None
        if not self._at(")"):
            arg = self._parse_expr()
        self._expect(")")
        self._expect(";")
        return A.ExitStmt(arg, pos=self._pos(token))

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self):
        return self._parse_binary(1)

    def _parse_binary(self, min_prec):
        """An expression whose binary operators all bind at least as
        tightly as ``min_prec`` (precedence climbing over ``or_expr`` …
        ``mul_expr``).  After ``left op right`` the loop goes on only at
        an operator binding less tightly than ``op``, or as tightly when
        ``op`` is left-associative; comparisons are not, so
        ``a < b < c`` stops at the second ``<`` and the caller reports
        it, as the grammar's ``cmp_expr`` does."""
        left = self._parse_unary()
        tokens = self.tokens
        limit = _TIGHTEST + 1
        while True:
            op = tokens[self.index]
            prec = A.BINARY_PRECEDENCE.get(op.kind, 0)
            if prec < min_prec or prec >= limit:
                return left
            self.index += 1
            right = self._parse_binary(prec + 1)
            left = A.Bin(op.kind, left, right, pos=self._pos(op))
            limit = prec if prec == A.COMPARISON_PRECEDENCE else prec + 1

    def _parse_unary(self):
        if self._at("-", "!"):
            op = self._advance()
            self._nest(op)
            operand = self._parse_unary()
            self.depth -= 1
            return A.Un(op.kind, operand, pos=self._pos(op))
        return self._parse_primary()

    def _parse_primary(self):
        token = self._peek()
        if token.kind == "num":
            self._advance()
            return A.Num(token.value, pos=self._pos(token))
        if token.kind == "&":
            self._advance()
            name = self._expect("ident")
            return A.FuncRef(name.value, pos=self._pos(token))
        if token.kind == "input":
            self._advance()
            self._expect("(")
            self._expect(")")
            return A.InputExpr(pos=self._pos(token))
        if token.kind == "ident":
            if self._peek(1).kind == "(":
                return self._parse_call_expr()
            self._advance()
            return A.Var(token.value, pos=self._pos(token))
        if token.kind == "(":
            self._nest(self._advance())
            expr = self._parse_expr()
            self._expect(")")
            self.depth -= 1
            return expr
        raise ParseError(
            "expected an expression, found %r" % token.kind, token.line, token.col
        )

    def _parse_call_expr(self):
        name = self._expect("ident")
        self._nest(self._expect("("))
        args = []
        if not self._at(")"):
            args.append(self._parse_expr())
            while self._at(","):
                self._advance()
                args.append(self._parse_expr())
        self._expect(")")
        self.depth -= 1
        return A.CallExpr(name.value, args, pos=self._pos(name))


def parse(source):
    """Parse TinyC ``source`` text into a :class:`Program`."""
    return Parser(tokenize(source)).parse_program()
