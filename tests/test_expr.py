"""Expression grammar: precedence, round-trips, typed errors."""

from __future__ import annotations

import hashlib
import math
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultrafrac import (
    FUNCTIONS,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    make_callable,
    parse_expression,
    qpow,
)
from ultrafrac.expr import MAX_DEPTH, BinOp, Call, Neg, Num, Var
from helpers import NESTINGS, eval_by_tree_walk, unparse

MALFORMED = [
    "",
    "(",
    ")",
    "sin(x",
    "1++2",
    "2^",
    "x y",
    "1.2.3",
    "foo(x)",
    "min(1)",
    "max(1,2,3)",
    "pow(x 2)",
    "log()",
    "*x",
    "x+",
    "sin",
    "0..5",
    "r $ x",
    "1e",
    "q(2)",
]


def ev(text, r=1.0, x=0.0, q=2):
    return make_callable(parse_expression(text), q)(r, x)


def test_catalog_expression_parses_and_evaluates():
    f = make_callable(parse_expression("0.5*sin(x)*min(1, r^-2)"), 2)
    assert f(1.0, 0.0) == 0.0
    assert f(0.5, math.pi / 2) == pytest.approx(0.5, rel=1e-15)
    assert f(4.0, math.pi / 2) == pytest.approx(0.5 / 16.0, rel=1e-15)


def test_power_binds_tighter_than_unary_minus():
    assert ev("2^-2*x", x=8.0) == pytest.approx(2.0)       # (2^(-2)) * x
    assert ev("-2^2") == -4.0
    assert ev("2^3^2") == 512.0                            # right associative
    assert ev("-x^2", x=3.0) == -9.0


def test_arithmetic_precedence():
    assert ev("1-2-3") == -4.0
    assert ev("2+3*4") == 14.0
    assert ev("8/4/2") == 1.0
    assert ev("(2+3)*4") == 20.0


def test_constant_q_and_variables():
    assert ev("q^2", q=3) == pytest.approx(9.0, rel=1e-15)
    assert ev("r*x", r=2.5, x=4.0) == 10.0
    fl = make_callable(parse_expression("min(0.5, q^(-0.5*l)/2)", ("l",)), 2, ("l",))
    assert fl(4.0) == pytest.approx(min(0.5, 2.0 ** -2 / 2), rel=1e-14)


def test_functions():
    assert ev("abs(-3)+max(1,2)+min(1,2)+pow(2,3)") == 3 + 2 + 1 + 8
    assert ev("exp(0)+cos(0)+tanh(0)+sin(0)") == 2.0
    assert ev("log(exp(1))") == pytest.approx(1.0, rel=1e-15)


def test_number_forms():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E+2") == 250.0
    assert ev(".5") == 0.5
    assert ev("2.") == 2.0
    assert ev("\u0663*x", x=2.0) == 6.0          # float() reads the Arabic-Indic 3


@pytest.mark.parametrize("text,offset", [("2\u00b2", 0), ("\u00b3.5", 0), ("1e\u00b2", 0),
                                         ("x + 2\u00b2", 4), ("min(1, r)*\u00b2", 10)])
def test_digits_float_rejects_are_malformed_literals(text, offset):
    # str.isdigit takes superscripts such as the square sign; float() does not
    with pytest.raises(ExprSyntaxError, match="malformed number literal") as err:
        parse_expression(text)
    assert err.value.offset == offset
    assert err.value.expected == ("digit",)


def test_literal_beyond_the_float_range_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="out of float range") as err:
        parse_expression("r + 1e999")
    assert err.value.offset == 4
    assert ev("1e-999") == 0.0


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_typed_errors(text):
    with pytest.raises((ExprSyntaxError, ExprNameError)):
        parse_expression(text)


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("sin(x")
    assert err.value.offset == 5
    assert ")" in err.value.expected
    with pytest.raises(ExprSyntaxError) as err2:
        parse_expression("1 + + 2")
    assert err2.value.offset == 4


def test_unknown_identifier_error():
    with pytest.raises(ExprNameError) as err:
        parse_expression("y + 1")
    assert err.value.name == "y"
    assert err.value.offset == 0
    parse_expression("l + 1", ("l",))          # declared variables are accepted
    with pytest.raises(ExprNameError):
        parse_expression("x + 1", ("l",))


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_past_the_limit_is_a_syntax_error(kind):
    # the deepest expression parses, compiles and evaluates as the tree walk
    # does; one level more is refused at the token that makes it too deep
    nest, offset = NESTINGS[kind]
    tree = parse_expression(nest(MAX_DEPTH))
    assert make_callable(tree, 2)(1.0, 0.5) == eval_by_tree_walk(tree, 2, ("r", "x"), 1.0, 0.5)
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
        parse_expression(nest(MAX_DEPTH + 1))
    assert err.value.offset == offset(MAX_DEPTH + 1)


def test_evaluation_errors_are_typed():
    with pytest.raises(ExprEvalError):
        ev("log(0-1)")
    with pytest.raises(ExprEvalError):
        ev("1/x", x=0.0)
    with pytest.raises(ExprEvalError):
        ev("(0-2)^0.5")
    with pytest.raises(ExprEvalError):
        ev("exp(1e9)")


def test_round_trip_on_samples():
    for text in ("0.5*sin(x)*min(1, r^-2)", "2^-2*x", "-(x+r)/q",
                 "pow(x, 2)^-1.5 - abs(r)", "max(min(x,r),0-1)"):
        tree = parse_expression(text)
        assert parse_expression(unparse(tree)) == tree


_leaf = st.one_of(
    st.floats(0.0, 100.0, allow_nan=False).map(Num),
    st.sampled_from(["r", "x", "q"]).map(Var),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "tanh", "abs"]), sub).map(
            lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max", "pow"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))),
    )


@settings(max_examples=120, deadline=None)
@given(tree=_trees(3))
def test_print_parse_round_trip(tree):
    assert parse_expression(unparse(tree)) == tree


# --- compiled evaluation against the tree walk ------------------------------

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e300, -1e300, 1e-310]
_num_values = st.one_of(st.sampled_from(_SPECIAL + [math.inf, -math.inf]),
                        st.floats(allow_nan=False))
_inputs = st.one_of(st.sampled_from(_SPECIAL + [math.nan, math.inf]), st.floats())


def _call_nodes(sub):
    def with_args(name):
        return st.tuples(*[sub] * FUNCTIONS[name]).map(lambda args: Call(name, args))
    return st.sampled_from(sorted(FUNCTIONS)).flatmap(with_args)


_any_tree = st.recursive(
    st.one_of(_num_values.map(Num),
              st.sampled_from(["r", "x", "l", "q", "y"]).map(Var)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        _call_nodes(sub)),
    max_leaves=12)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return struct.pack("<d", value)


def _same_bits(value):
    """A new float object with the bits of ``value``."""
    return struct.unpack("<d", struct.pack("<d", value))[0]


@settings(max_examples=400, deadline=None)
@example(tree=Call("tanh", (Var("x"),)), q=2, variables=("r", "x"), args=[1.0, math.nan],
         xs=[0.5], other=2.0)
@example(tree=Neg(Var("r")), q=3, variables=("r",), args=[-0.0], xs=[1.0], other=0.0)
# the radius part raises twice in a row on one radius object
@example(tree=BinOp("*", Var("x"), Call("log", (Var("r"),))), q=2, variables=("r", "x"),
         args=[-1.0, 2.0], xs=[3.0, 2.0], other=4.0)
# a reused nan radius
@example(tree=BinOp("*", Var("x"), Call("min", (Num(1.0), Var("r")))), q=2,
         variables=("r", "x"), args=[math.nan, 0.5], xs=[0.25, -1.0], other=0.5)
# the first argument is x: the memo keys on it
@example(tree=BinOp("*", Call("tanh", (Var("x"),)), Var("r")), q=5, variables=("x", "r"),
         args=[0.5, 2.0], xs=[3.0, -1.0], other=-0.5)
# a subtree that reads no argument and raises: compiling does not raise, each call does
@example(tree=BinOp("+", Var("x"), Call("log", (BinOp("-", Num(0.0), Num(1.0)),))), q=2,
         variables=("r", "x"), args=[1.0, 2.0], xs=[3.0], other=1.0)
@given(tree=_any_tree, q=st.sampled_from([2, 3, 5, 7]),
       variables=st.lists(st.sampled_from(["r", "x", "l", "q"]), max_size=3,
                          unique=True).map(tuple),
       args=st.lists(_inputs, max_size=3), xs=st.lists(_inputs, min_size=1, max_size=3),
       other=_inputs)
def test_compiled_matches_tree_walk(tree, q, variables, args, xs, other):
    # one compiled f over a sequence of calls: one first-argument object
    # with several second arguments, then an equal but distinct object, then
    # another value, so that a memo keyed on the first argument is exercised
    f = make_callable(tree, q, variables)
    first, rest = args[:1], args[2:]
    calls = [args, *([*first, x, *rest] for x in xs)]
    if first:
        copy = _same_bits(first[0])
        assert copy is not first[0]
        calls += [[copy, *args[1:]], [other, *args[1:]]]
    for call in calls:
        assert _outcome(f, *call) == _outcome(eval_by_tree_walk, tree, q, variables, *call)


class _MutableNumber:
    """A number that changes in place under one identity; math functions
    read it through __float__."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


def test_memo_rereads_a_first_argument_that_is_not_a_float():
    f = make_callable(parse_expression("x*min(1, r^-2)"), 2)
    r = _MutableNumber(4.0)
    assert f(r, 1.0) == 0.0625
    r.value = 2.0
    assert f(r, 1.0) == 0.25


def test_unbound_variable_raises_when_called():
    f = make_callable(Var("y"), 2)              # not a declared variable
    with pytest.raises(ExprEvalError, match="variable 'y' is not bound"):
        f(1.0, 2.0)
    g = make_callable(parse_expression("r*x"), 2)
    with pytest.raises(ExprEvalError, match="variable 'x' is not bound"):
        g(1.0)                                  # no argument for x
    assert g(1.0, 2.0, 99.0) == 2.0             # extra arguments are ignored


def test_q_evaluates_to_float_q():
    for q in (2, 3, 7):
        value = make_callable(Var("q"), q)(0.5, 0.5)
        assert type(value) is float and value == float(q)
    # q is the constant even where a declared variable shares its name
    assert make_callable(Var("q"), 5, ("q",))(9.0) == 5.0


_CATALOG_EXPRESSIONS = [
    ("0.1*tanh(x)*min(1, r^-2)", ("r", "x")),
    ("0.5*sin(x)*min(1, r^-2)", ("r", "x")),
    ("0.05*sin(x + 1.3)*min(1, r^-2)", ("r", "x")),
    ("0.05*x/(1 + x^2)*min(1, r^-2)", ("r", "x")),
    ("min(0.1, q^(-0.5*l)/2)", ("l",)),
    ("min(1, r)", ("r",)),
]


def test_catalog_expressions_keep_their_bits():
    # sha256 of the values the tree-walk evaluator gave on these points
    out = []
    for q in (2, 3, 5):
        for text, names in _CATALOG_EXPRESSIONS:
            f = make_callable(parse_expression(text, names), q, names)
            for k in range(-8, 9):
                r = qpow(q, k)
                if names == ("r", "x"):
                    out += [f(r, x) for x in (-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 7.0)]
                elif names == ("l",):
                    out.append(f(float(k)))
                else:
                    out.append(f(r))
    assert len(out) == 1530
    digest = hashlib.sha256(struct.pack(f"<{len(out)}d", *out)).hexdigest()
    assert digest == "ee57c10864f862988594bbe4c6314e030263b047c62d447ad280e13d79959991"


@pytest.mark.parametrize("node", ["x", 1.5, None])
def test_make_callable_rejects_a_non_node(node):
    with pytest.raises(TypeError, match=rf"^not an expression node: {re.escape(repr(node))}$"):
        make_callable(node, 2)


_ARGS = (Var("r"), Num(1.0), Var("x"))


@pytest.mark.parametrize("node", [
    # each function at every other argument count from 0 to 3
    *[Call(name, _ARGS[:n]) for name in sorted(FUNCTIONS) for n in range(4)
      if n != FUNCTIONS[name]],
    Call("foo", _ARGS[:1]),
    BinOp("%", Var("x"), Num(2.0)),
    BinOp("**", Var("x"), Num(2.0)),
], ids=repr)
def test_make_callable_rejects_a_tree_the_grammar_cannot_build(node):
    # alone or nested inside a valid tree, the node is refused by name
    nested = Call("min", (Num(1.0), BinOp("*", Var("x"), Neg(node))))
    for tree in (node, nested):
        with pytest.raises(TypeError, match=rf"^not an expression node: {re.escape(repr(node))}$"):
            make_callable(tree, 2)


@pytest.mark.parametrize("variables", [("r", "r"), ("x", "r", "x")])
def test_make_callable_rejects_repeated_variable_names(variables):
    with pytest.raises(ValueError, match="repeated variable name"):
        make_callable(parse_expression("r*x"), 2, variables)
