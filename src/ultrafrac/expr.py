"""Recursive-descent parser and closure compiler for right-hand-side expressions.

Grammar (standard precedence; '^' is right-associative and binds tighter
than unary minus, so -2^2 = -(2^2) and 2^-2 = 2^(-2)):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?
    atom   :=  NUMBER | IDENT '(' expr (',' expr)* ')' | IDENT | '(' expr ')'

Identifiers are the declared variables (by default r and x), the constant
q, and the function names sin cos tanh exp log abs min max pow.  An
expression nests at most :data:`MAX_DEPTH` levels deep.
:func:`make_callable` compiles a tree once into nested closures.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from .errors import ExprEvalError, ExprNameError, ExprSyntaxError
from .record import Record

__all__ = [
    "RhsExpr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "MAX_DEPTH",
    "parse_expression",
    "make_callable",
]

#: function name -> arity
FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "tanh": 1, "exp": 1, "log": 1, "abs": 1,
    "min": 2, "max": 2, "pow": 2,
}

_CONSTANTS = ("q",)

#: the deepest nesting an expression may have.  Each operator, unary minus,
#: function call and pair of parentheses is one level above its operands,
#: so ``x`` has depth 1 and ``-(x+1)`` depth 4.  The bound keeps the
#: recursion of the parser, the compiler and every evaluation far inside
#: Python's default recursion limit.
MAX_DEPTH = 100


class RhsExpr(Record):
    """Abstract syntax tree for f(r, x); nodes are immutable records.

    :func:`make_callable` compiles a tree into a function; the nodes carry
    no evaluator of their own.
    """

    __slots__ = ()


class Num(RhsExpr):
    __slots__ = ("value",)  # float


class Var(RhsExpr):
    __slots__ = ("name",)  # str


class Neg(RhsExpr):
    __slots__ = ("operand",)  # RhsExpr


class BinOp(RhsExpr):
    __slots__ = ("op", "left", "right")  # str, RhsExpr, RhsExpr


class Call(RhsExpr):
    __slots__ = ("name", "args")  # str, tuple[RhsExpr, ...]


# --- tokenizer -------------------------------------------------------------

_SINGLE = "+-*/^(),"


class _Token:
    # kind is 'num', 'ident', one of +-*/^(),, or 'eof'; pos indexes the source
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind, self.text, self.pos = kind, text, pos


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SINGLE:
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or not text[i].isdigit():
                    raise ExprSyntaxError("malformed number literal",
                                          _byte_offset(text, i), ("digit",))
                while i < n and text[i].isdigit():
                    i += 1
            toks.append(_Token("num", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append(_Token("ident", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}",
                              _byte_offset(text, i), ())
    toks.append(_Token("eof", "", n))
    return toks


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = tuple(variables) + _CONSTANTS

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ExprSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
        return ExprSyntaxError(f"unexpected {what}",
                               _byte_offset(self.text, tok.pos), expected)

    def expect(self, kind: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail((kind,))
        return self.advance()

    # Each rule parses at ``depth``, the number of levels known to lie above
    # it, and returns its node with its height in levels.  An operand cannot
    # be shallower than one level, and a binary node's height is known once
    # both operands are parsed, so these two checks raise exactly when the
    # whole expression is deeper than MAX_DEPTH.

    def too_deep(self, tok: _Token) -> ExprSyntaxError:
        return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                               _byte_offset(self.text, tok.pos))

    def join(self, op: _Token, depth: int, left: int, right: int) -> int:
        height = 1 + max(left, right)
        if depth + height > MAX_DEPTH:
            raise self.too_deep(op)
        return height

    def expr(self, depth: int) -> tuple[RhsExpr, int]:
        node, height = self.term(depth)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right, h = self.term(depth + 1)
            node, height = BinOp(op.kind, node, right), self.join(op, depth, height, h)
        return node, height

    def term(self, depth: int) -> tuple[RhsExpr, int]:
        node, height = self.unary(depth)
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right, h = self.unary(depth + 1)
            node, height = BinOp(op.kind, node, right), self.join(op, depth, height, h)
        return node, height

    def unary(self, depth: int) -> tuple[RhsExpr, int]:
        if depth >= MAX_DEPTH:  # every operand passes here
            raise self.too_deep(self.peek())
        if self.peek().kind == "-":
            self.advance()
            node, height = self.unary(depth + 1)
            return Neg(node), height + 1
        return self.power(depth)

    def power(self, depth: int) -> tuple[RhsExpr, int]:
        base, height = self.atom(depth)
        if self.peek().kind == "^":
            op = self.advance()
            exponent, h = self.unary(depth + 1)
            return BinOp("^", base, exponent), self.join(op, depth, height, h)
        return base, height

    def atom(self, depth: int) -> tuple[RhsExpr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            offset = _byte_offset(self.text, tok.pos)
            try:  # str.isdigit also takes digits such as '²' that float() rejects
                value = float(tok.text)
            except ValueError:
                raise ExprSyntaxError("malformed number literal", offset, ("digit",)) from None
            if math.isinf(value):
                raise ExprSyntaxError("number literal out of float range", offset)
            return Num(value), 1
        if tok.kind == "(":
            self.advance()
            node, height = self.expr(depth + 1)
            self.expect(")")
            return node, height + 1
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprNameError(tok.text, _byte_offset(self.text, tok.pos))
                self.advance()
                args = [self.expr(depth + 1)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr(depth + 1))
                self.expect(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{tok.text} expects {arity} argument(s), got {len(args)}",
                        _byte_offset(self.text, tok.pos), ())
                return Call(tok.text, tuple(a for a, _ in args)), 1 + max(h for _, h in args)
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(f"function {tok.text} needs arguments",
                                      _byte_offset(self.text, tok.pos), ("(",))
            if tok.text not in self.names:
                raise ExprNameError(tok.text, _byte_offset(self.text, tok.pos))
            return Var(tok.text), 1
        raise self.fail(("number", "identifier", "(", "-"))


def parse_expression(text: str, variables: tuple[str, ...] = ("r", "x")) -> RhsExpr:
    """Parse an expression over the given variables (plus the constant q).

    Raises :class:`ExprSyntaxError` with the byte offset and expected-token
    set, or :class:`ExprNameError` for unknown identifiers.  An expression
    nested deeper than :data:`MAX_DEPTH` raises :class:`ExprSyntaxError` at
    the byte offset of the token that takes it past that depth.
    """
    parser = _Parser(text, variables)
    node, _ = parser.expr(0)
    if parser.peek().kind != "eof":
        raise parser.fail(("end of input", "operator"))
    return node


# --- compiler --------------------------------------------------------------
#
# A tree compiles bottom-up, in one pass, to a float (a number, q or its
# negation) or to nested closures a -> float over the argument tuple a.
# Each closure does the float operation of its node, in the same order and
# with the same finiteness and domain checks (and ExprEvalError messages) as
# a walk of the tree over the bindings {**dict(zip(variables, a)), "q":
# float(q)}, so the results are bit-identical to that walk; the slots each
# node reads decide its memos (see make_callable).

_isfinite = math.isfinite

_Closure = Callable[[tuple], float]
_Code = tuple[float | _Closure, frozenset]  # (float or closure, slots read)

_NONE = frozenset()
_FIRST = frozenset((0,))


def _finite(value: float, what: str) -> float:
    if not _isfinite(value):
        raise ExprEvalError(f"{what} produced a non-finite value")
    return value


def _power(base: float, exponent: float) -> float:
    try:
        return _finite(math.pow(base, exponent), "power")
    except ValueError:
        raise ExprEvalError(
            f"power domain error: ({base!r}) ^ ({exponent!r})") from None
    except OverflowError:
        raise ExprEvalError("power overflow") from None


def _call_log(x: float) -> float:
    if x <= 0.0:
        raise ExprEvalError(f"log of a nonpositive value ({x!r})")
    return math.log(x)


def _call_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise ExprEvalError("exp overflow") from None


_IMPL: dict[str, Callable[..., float]] = {
    "sin": math.sin, "cos": math.cos, "tanh": math.tanh,
    "exp": _call_exp, "log": _call_log, "abs": abs,
    "min": min, "max": max, "pow": _power,
}


def _compile_var(name: str, q: float, variables: tuple[str, ...]) -> _Code:
    if name in _CONSTANTS:
        return q, _NONE
    # dict(zip(variables, a)) binds a repeated name to its last slot that
    # has an argument, so the slots are tried from the last one down
    slots = [i for i, v in enumerate(variables) if v == name][::-1]
    message = f"variable '{name}' is not bound"
    if not slots:
        def unbound(a):
            raise ExprEvalError(message)
        return unbound, _NONE
    i = slots[0]

    def var(a):
        try:
            return a[i]
        except IndexError:
            for j in slots[1:]:
                if j < len(a):
                    return a[j]
            raise ExprEvalError(message) from None
    return var, frozenset(slots)


def _divide(x: float, y: float) -> float:
    if y == 0.0:
        raise ExprEvalError("division by zero")
    return x / y


#: operator -> (function, what a non-finite result names); any other
#: operator string evaluates as a power, as '^' does
_BINOPS: dict[str, tuple[Callable[[float, float], float], str]] = {
    "+": (operator.add, "addition"), "-": (operator.sub, "subtraction"),
    "*": (operator.mul, "multiplication"), "/": (_divide, "division"),
}


def _memo(fn: _Closure) -> _Closure:
    """fn with a one-entry memo on the identity of a float a[0]: one
    (key, value) tuple, swapped whole; a raise is not stored."""
    last = (_memo, 0.0)  # no argument is this function

    def memo(a):
        nonlocal last
        key, value = last
        if a and a[0] is key:
            return value
        value = fn(a)  # raises when a is empty, since fn reads a[0]
        if type(a[0]) is float:  # immutable, so one object has one value
            last = (a[0], value)
        return value
    return memo


def _checked(fn: Callable[..., float], what: str, args: list) -> _Closure:
    """fn of the operands' values, left to right, checked finite; a float
    operand of a binary node is passed to fn as it is."""
    message = f"{what} produced a non-finite value"
    if len(args) == 2:
        a0, a1 = args
        if not callable(a0) and callable(a1):
            def call_c2(a):
                v = fn(a0, a1(a))
                if _isfinite(v):
                    return v
                raise ExprEvalError(message)
            return call_c2
        if callable(a0) and not callable(a1):
            def call_2c(a):
                v = fn(a0(a), a1)
                if _isfinite(v):
                    return v
                raise ExprEvalError(message)
            return call_2c
    # any other float operand (both operands, a unary node, 3+ operands)
    args = [c if callable(c) else (lambda a, v=c: v) for c in args]
    if len(args) == 1:
        (a0,) = args

        def call1(a):
            v = fn(a0(a))
            if _isfinite(v):
                return v
            raise ExprEvalError(message)
        return call1
    if len(args) == 2:
        a0, a1 = args

        def call2(a):
            v = fn(a0(a), a1(a))
            if _isfinite(v):
                return v
            raise ExprEvalError(message)
        return call2

    def call_n(a):
        return _finite(fn(*[c(a) for c in args]), what)
    return call_n


def _node(fn: Callable[..., float], what: str, children: tuple[RhsExpr, ...],
          q: float, variables: tuple[str, ...]) -> _Code:
    """fn over the compiled children, with a memo on each operand that reads
    only a[0] when the node reads more."""
    parts = [_compile(c, q, variables) for c in children]
    reads = _NONE.union(*[r for _, r in parts])
    memo = not reads <= _FIRST
    return _checked(fn, what, [
        _memo(c) if memo and r == _FIRST and not isinstance(child, Var) else c
        for child, (c, r) in zip(children, parts)]), reads


def _compile(node: RhsExpr, q: float, variables: tuple[str, ...]) -> _Code:
    if isinstance(node, Num):
        return node.value, _NONE
    if isinstance(node, Var):
        return _compile_var(node.name, q, variables)
    if isinstance(node, Neg):
        operand, reads = _compile(node.operand, q, variables)
        return (lambda a: -operand(a)) if callable(operand) else -operand, reads
    if isinstance(node, BinOp):
        fn, what = _BINOPS.get(node.op, (_power, "power"))
        return _node(fn, what, (node.left, node.right), q, variables)
    if isinstance(node, Call):
        return _node(_IMPL[node.name], node.name, node.args, q, variables)
    raise TypeError(f"not an expression node: {node!r}")


def make_callable(node: RhsExpr, q: float,
                  variables: tuple[str, ...] = ("r", "x")) -> Callable[..., float]:
    """Compile the tree once over q and return f(*variable values) -> float.

    Arguments bind to ``variables`` by position (extra ones are ignored);
    ``q`` evaluates to ``float(q)``.  A variable that is neither ``q`` nor
    bound by an argument raises :class:`ExprEvalError` when the function is
    called, not here.

    Numbers, ``q`` and their negations become floats that a node's
    function takes directly.  In a node that reads more than the first
    argument, an operand (not a bare variable) that reads only the first
    keeps a one-entry memo on that argument's identity, so calls that pass
    one radius object reuse its value.  Only a first argument of type
    ``float`` is stored, since a mutable number (a NumPy 0-d array, say)
    can change under one identity.  The memo holds a strong reference to
    its last key and never stores an error; no value changes.
    """
    code, _ = _compile(node, float(q), tuple(variables))
    ev = code if callable(code) else (lambda a: code)

    def call(*args: float) -> float:
        return ev(args)

    return call
