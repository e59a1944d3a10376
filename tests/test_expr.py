"""Expression parsing and evaluation.

The golden set pins evaluator output against 50-digit mpmath references,
so any change to parsing precedence or evaluation order shows up as a
relative error, not a silent drift.
"""

import copy
import math
import pickle
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import _EVERY_OPERAND, _walk, constant, evaluate_array_every_operand, to_text
from sugeno_bounds.exceptions import EvalError, ParseError
from sugeno_bounds.expr import (
    _ARRAY,
    _SCALAR,
    MAX_DEPTH,
    BinOp,
    Call,
    FunctionExpr,
    Neg,
    Num,
    Var,
    _compile,
    evaluate,
    evaluate_array,
    parse,
    product,
)

mpmath.mp.dps = 50


def test_basic_powers_and_division():
    f = parse("x^5/4")
    assert evaluate(f, 2.0) == pytest.approx(8.0, rel=1e-15)
    assert evaluate(f, 1.0) == pytest.approx(0.25, rel=1e-15)


def test_trivial_forms():
    assert evaluate(parse("0"), 3.7) == 0.0
    assert evaluate(parse("x"), 0.7) == 0.7
    assert evaluate(parse("1/x^2"), 2.0) == 0.25


def test_fractional_power():
    f = parse("x^(3/2)")
    assert evaluate(f, 4.0) == pytest.approx(8.0, rel=1e-15)


def test_division_by_zero_raises():
    f = parse("1/x")
    with pytest.raises(EvalError):
        evaluate(f, 0.0)


def test_power_binds_tighter_than_unary_minus():
    # -x^2 is -(x^2), not (-x)^2
    assert evaluate(parse("-x^2"), 3.0) == -9.0


def test_power_right_associative():
    # 2^3^2 = 2^(3^2) = 512
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


@pytest.mark.parametrize("u, v", [("x", "2"), ("x-1", "0.5"), ("2", "x"), ("pow(x, 2)", "-1"),
                                  ("-x", "x^2")])
def test_pow_parses_to_the_power_node(u, v):
    # a power has one node shape, so evaluation and the shape rules have one case for it
    assert parse(f"pow({u}, {v})") == parse(f"({u})^({v})")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x +* 2")
    assert exc.value.position == 3
    with pytest.raises(ParseError) as exc:
        parse("x^^")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(x+1")
    with pytest.raises(ParseError):
        parse("foo(x)")
    with pytest.raises(ParseError):
        parse("sqrt(x, 2)")


@pytest.mark.parametrize("text, position, message", [
    (" é", 1, "unexpected character 'é'"),
    ("foo(x)", 0, "unknown identifier 'foo'"),
    ("sqrt x", 5, "expected '('"),
    ("sqrt(x", 6, "expected ')'"),
    ("pow(x)", 0, "pow takes 2 argument(s), got 1"),
    ("x)", 1, "unexpected trailing input ')'"),
    ("x+  ", 4, "unexpected end of input"),
    (",", 0, "unexpected ','"),
    ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH,
     f"expression nests deeper than {MAX_DEPTH} levels"),
    ("+".join(["x"] * (MAX_DEPTH + 1)), 0, f"expression tree is deeper than {MAX_DEPTH} levels"),
])
def test_parse_error_message_and_position(text, position, message):
    # one input per ParseError message the parser can raise
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.position, exc.value.message) == (position, message)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(x-2)"), 1.0)
    with pytest.raises(EvalError):
        evaluate(parse("ln(x)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("ln(x-5)"), 1.0)
    with pytest.raises(EvalError):
        evaluate(parse("x^(1/2)"), -4.0)
    with pytest.raises(EvalError):
        evaluate(parse("x^(0-2)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("exp(x)"), 1e6)
    # integer powers of negatives are fine
    assert evaluate(parse("x^2"), -3.0) == 9.0
    assert evaluate(parse("x^3"), -2.0) == -8.0


# Each entry: (source, x, mpmath reference expression as a callable).
_GOLDEN = [
    ("x^5/4", 0.7, lambda x: x**5 / 4),
    ("x^5/4", 1.0, lambda x: x**5 / 4),
    ("x^2", 1.7, lambda x: x**2),
    ("x^2", 3.9, lambda x: x**2),
    ("1/x^4", 1.3, lambda x: 1 / x**4),
    ("1/x^4", 2.0, lambda x: 1 / x**4),
    ("x^(3/2)", 2.5, lambda x: x ** mpmath.mpf("1.5")),
    ("x^(1/2)", 2.5, lambda x: mpmath.sqrt(x)),
    ("sqrt(x)", 7.3, lambda x: mpmath.sqrt(x)),
    ("exp(x)", 1.25, lambda x: mpmath.exp(x)),
    ("exp(-x^2)", 0.8, lambda x: mpmath.exp(-(x**2))),
    ("ln(x)", 5.5, lambda x: mpmath.log(x)),
    ("ln(x+1)", 0.25, lambda x: mpmath.log(x + 1)),
    ("abs(x-1/2)", 0.2, lambda x: abs(x - mpmath.mpf(1) / 2)),
    ("abs(x-1/2)", 0.9, lambda x: abs(x - mpmath.mpf(1) / 2)),
    ("pow(x, 3)", 1.9, lambda x: x**3),
    ("pow(2, x)", 2.5, lambda x: mpmath.mpf(2) ** x),
    ("x^2/2", 0.35, lambda x: x**2 / 2),
    ("x^3/2", 0.65, lambda x: x**3 / 2),
    ("1/x^2", 1.45, lambda x: 1 / x**2),
    ("2*x+1", 0.123, lambda x: 2 * x + 1),
    ("x*(1-x)", 0.37, lambda x: x * (1 - x)),
    ("(x+1)*(x+2)", 1.1, lambda x: (x + 1) * (x + 2)),
    ("x-x^2+x^3", 0.81, lambda x: x - x**2 + x**3),
    ("-x+4", 1.5, lambda x: -x + 4),
    ("x/2/2", 6.0, lambda x: x / 4),
    ("x-2-1", 7.0, lambda x: x - 3),
    ("2^3^2", 1.0, lambda x: mpmath.mpf(512)),
    ("-x^2+10", 2.0, lambda x: -(x**2) + 10),
    ("(-x)^2", 3.0, lambda x: x**2),
    ("x^0", 5.0, lambda x: mpmath.mpf(1)),
    ("0.5-abs(x-0.5)", 0.31, lambda x: mpmath.mpf("0.5") - abs(x - mpmath.mpf("0.5"))),
    ("sqrt(x^2+1)", 1.8, lambda x: mpmath.sqrt(x**2 + 1)),
    ("exp(x)/(1+exp(x))", 0.4, lambda x: mpmath.exp(x) / (1 + mpmath.exp(x))),
    ("1/(x+1)", 0.5, lambda x: 1 / (x + 1)),
    ("x^1.5", 3.3, lambda x: x ** mpmath.mpf("1.5")),
    ("x^0.25", 9.0, lambda x: x ** mpmath.mpf("0.25")),
    ("3.5*x^2-2*x+0.75", 1.15, lambda x: mpmath.mpf("3.5") * x**2 - 2 * x + mpmath.mpf("0.75")),
    ("ln(exp(x))", 2.25, lambda x: mpmath.mpf(x)),
    ("sqrt(sqrt(x))", 16.0, lambda x: x ** mpmath.mpf("0.25")),
    ("x*x*x", 1.41, lambda x: x**3),
    ("(x/3)^2", 2.1, lambda x: (x / 3) ** 2),
    ("1-2*x", 0.05, lambda x: 1 - 2 * x),
    ("abs(-x)", 2.5, lambda x: mpmath.mpf(x)),
    ("pow(x, 1/3)", 8.0, lambda x: x ** (mpmath.mpf(1) / 3)),
    ("exp(1)", 0.0, lambda x: mpmath.e),
    ("x+x/2+x/4", 1.0, lambda x: x * mpmath.mpf("1.75")),
    ("2^x", 0.5, lambda x: mpmath.sqrt(2)),
    ("(1+x)^(1/2)", 3.0, lambda x: mpmath.mpf(2)),
    ("x^6", 1.1, lambda x: x**6),
]


@pytest.mark.parametrize("source,x,ref", _GOLDEN, ids=[f"{s}@{x}" for s, x, _ in _GOLDEN])
def test_golden_against_mpmath(source, x, ref):
    got = evaluate(parse(source), x)
    want = float(ref(mpmath.mpf(repr(x))))
    if want == 0.0:
        assert abs(got) <= 1e-12
    else:
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("source,x,ref", _GOLDEN, ids=[f"rt-{s}@{x}" for s, x, _ in _GOLDEN])
def test_roundtrip_through_text(source, x, ref):
    f = parse(source)
    g = parse(to_text(f))
    assert evaluate(g, x) == evaluate(f, x)


def _reference_eval(node, x):
    # deliberately independent of expr.evaluate: plain recursion, math module
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if node.__class__.__name__ == "Neg":
        return -_reference_eval(node.operand, x)
    if isinstance(node, BinOp):
        a = _reference_eval(node.left, x)
        b = _reference_eval(node.right, x)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a / b, "^": lambda: a**b}[node.op]()
    if isinstance(node, Call):
        args = [_reference_eval(arg, x) for arg in node.args]
        return {"sqrt": math.sqrt, "exp": math.exp, "ln": math.log,
                "abs": abs}[node.name](*args)
    raise AssertionError(node)


@pytest.mark.parametrize("source,lo,hi", [
    ("x^5/4", 0.0, 1.0),
    ("x^2", 1.0, 4.0),
    ("1/x^4", 1.0, 2.0),
    ("sqrt(x)+exp(-x)", 0.5, 3.0),
    ("3.5*x^2-2*x+0.75", 0.0, 2.0),
])
def test_scalar_eval_bit_identical_to_reference(source, lo, hi):
    # same float ops in the same order must give the same bits
    f = parse(source)
    for i in range(1000):
        x = lo + (hi - lo) * i / 999
        assert evaluate(f, x) == _reference_eval(f.root, x)


def test_array_eval_matches_scalar():
    import numpy as np

    # exp/ln may differ by 1 ulp between libm and numpy; arithmetic and sqrt
    # are exactly rounded and cannot
    f = parse("sqrt(x)*exp(-x/3)+1")
    xs = np.linspace(0.1, 5.0, 257)
    arr = evaluate_array(f, xs)
    for x, v in zip(xs, arr):
        assert evaluate(f, float(x)) == pytest.approx(float(v), rel=1e-15, abs=0.0)

    g = parse("sqrt(x)*x/4+x^2")
    arr = evaluate_array(g, xs)
    for x, v in zip(xs, arr):
        assert evaluate(g, float(x)) == float(v)


def test_array_eval_marks_bad_points_nan():
    import numpy as np

    f = parse("sqrt(x)")
    arr = evaluate_array(f, np.array([-1.0, 0.0, 4.0]))
    assert math.isnan(arr[0])
    assert arr[1] == 0.0
    assert arr[2] == 2.0


def _nested(depth):
    # one expression per way of nesting, each exactly ``depth`` levels deep
    return ["(" * (depth - 1) + "x" + ")" * (depth - 1),
            "-" * (depth - 1) + "x",
            "x" + "^1" * (depth - 1),
            "sqrt(" * (depth - 1) + "x" + ")" * (depth - 1),
            "+".join(["x"] * depth)]


def test_depth_limit():
    for text in _nested(MAX_DEPTH):
        f = parse(text)
        # a product adds one level; evaluating it must still not recurse too deep
        assert evaluate(product(f, f), 1.0) == evaluate(f, 1.0) ** 2
        assert evaluate_array(product(f, f), [1.0])[0] == evaluate(f, 1.0) ** 2
    for text in _nested(MAX_DEPTH + 1) + _nested(12 * MAX_DEPTH):
        with pytest.raises(ParseError, match="deeper than"):
            parse(text)


def test_builders():
    one = constant(1.0)
    assert evaluate(one, 17.0) == 1.0
    h = product(parse("x+1"), parse("x-1"))
    assert evaluate(h, 3.0) == 8.0
    # product text form re-parses to the same values
    assert evaluate(parse(to_text(h)), 3.0) == 8.0


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.1, max_value=4.0, allow_nan=False)),
    st.just(Var()),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(BinOp, st.sampled_from(["+", "*"]), sub, sub),
        st.builds(lambda a: Call("sqrt", (a,)), sub),
    )


@settings(max_examples=150, deadline=None)
@given(tree=_trees(4), x=st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
def test_roundtrip_random_trees(tree, x):
    f = FunctionExpr(tree)
    text = to_text(f)
    assert evaluate(parse(text), x) == evaluate(f, x)


def _same_definedness(f, x, rel=0.0):
    # the scalar form raises exactly where the array form gives NaN, and
    # elsewhere they agree to ``rel`` (libm and numpy differ by an ulp in
    # exp, ln and pow)
    got = float(evaluate_array(f, [x])[0])
    try:
        want = evaluate(f, x)
    except EvalError:
        assert math.isnan(got)
        return
    assert got == pytest.approx(want, rel=rel, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(tree=_trees(4), x=st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
def test_scalar_and_array_agree_on_trees(tree, x):
    _same_definedness(FunctionExpr(tree), x)


_wide_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=-1e300, max_value=1e300)),
    st.just(Var()),
)


def _wide_trees(depth):
    if depth == 0:
        return _wide_leaf
    sub = _wide_trees(depth - 1)
    return st.one_of(
        _wide_leaf,
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(["sqrt", "exp", "ln"]), sub),
        st.builds(Neg, sub),
    )


@settings(max_examples=300, deadline=None)
@given(tree=_wide_trees(4), x=st.floats(min_value=-1e3, max_value=1e3))
def test_scalar_and_array_agree_on_wide_trees(tree, x):
    _same_definedness(FunctionExpr(tree), x, rel=1e-9)


@pytest.mark.parametrize("source,x", [
    ("1/exp(1000*x)", 1.0),      # exp overflows; 1/inf would be 0
    ("1/ln(exp(1000*x))", 1.0),  # ln(inf) is inf; 1/inf would be 0, not 0.001
    ("exp(0-1/x)", 0.0),         # 1/0; exp(-inf) would be 0
    ("1e400", 0.5),              # a literal beyond the float range
    ("1/1e400", 0.5),
    ("exp(0-1e400)", 0.5),
    ("x^1e400", 0.5),            # a literal exponent beyond the float range
    ("1e400^0", 0.5),            # inf^0 would be 1
])
def test_non_finite_anywhere_is_undefined(source, x):
    f = parse(source)
    with pytest.raises(EvalError):
        evaluate(f, x)
    assert math.isnan(evaluate_array(f, [x])[0])
    _same_definedness(f, x)


@pytest.mark.parametrize("source,x,message", [
    ("1/x", 0.0, "division by zero"),
    ("ln(x)", 0.0, "ln of a non-positive value"),
    ("sqrt(x)", -1.0, "square root of a negative value"),
    ("exp(x)", 1e6, "overflow in exp"),
    ("x^0.5", -4.0, "fractional power of a negative base"),
    ("pow(x, 0-2)", 0.0, "zero raised to a negative power"),
    ("x^400", 10.0, "overflow in a power"),
    ("1/(x*1e308)", 10.0, "non-finite operand of /"),
    ("x*1e308", 10.0, "non-finite intermediate value"),
    # both operands fail: the left one runs first
    ("ln(0-x)/sqrt(0-x)", 1.0, "ln of a non-positive value"),
    ("sqrt(0-x)+ln(0-x)", 1.0, "square root of a negative value"),
])
def test_eval_error_names_the_operation(source, x, message):
    with pytest.raises(EvalError, match=message):
        evaluate(parse(source), x)


def test_array_output_is_never_the_input():
    import numpy as np

    xs = np.array([-1.0, 0.5, np.inf])
    for source in ("x", "2", "1e400"):
        out = evaluate_array(parse(source), xs)
        assert out is not xs and out.shape == xs.shape
    out = evaluate_array(parse("x"), xs)
    assert math.isnan(out[2]) and xs[2] == np.inf  # masked in the copy, not the input


# Powers: the array table checks no operand of a power with a positive finite
# float exponent, yet every point must come out as when both operands are checked.  The wrappers
# feed the power to consumers that would turn an unchecked infinity finite
# if the power's own check were needed: 1/inf, exp(-inf), inf*0 and inf^0.
_POINTS = [-2.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0,
           1e308, -1e308, math.inf, -math.inf, math.nan]
_EXPONENTS = [0.5, 1.6794884338813354, 1.0, 2.0, 3.0, 1e300, 0.0, -0.5, -2.0, math.inf]
_BASES = [Var(), Neg(Var()), BinOp("-", Var(), Num(1.0)), BinOp("*", Num(1e308), Var())]
_WRAPS = [lambda p: p, lambda p: BinOp("/", Num(1.0), p), lambda p: Call("exp", (Neg(p),)),
          lambda p: BinOp("*", p, Num(0.0)), lambda p: BinOp("^", p, Num(0.0))]


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.one_of(st.sampled_from(_POINTS), st.floats(-10.0, 10.0)),
                   min_size=64, max_size=64),
       base=st.sampled_from(_BASES),
       exponent=st.one_of(st.sampled_from(_EXPONENTS).map(Num),
                          st.floats(min_value=1e-3, max_value=8.0).map(Num),
                          st.sampled_from([Var(), BinOp("-", Var(), Num(0.5))])),
       wrap=st.sampled_from(_WRAPS))
@example(xs=[-1.0] + [2.0] * 63, base=Var(), exponent=Num(0.5), wrap=_WRAPS[0])
@example(xs=[-1.0] * 32 + [math.inf] * 32, base=Var(), exponent=Num(1.5), wrap=_WRAPS[1])
def test_array_power_matches_every_operand_checks(xs, base, exponent, wrap):
    f = FunctionExpr(wrap(BinOp("^", base, exponent)))
    got, want = evaluate_array(f, xs), evaluate_array_every_operand(f, xs)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0


def test_array_power_of_no_points():
    out = evaluate_array(parse("x^0.5"), [])
    assert out.shape == (0,) and out.dtype == float


def _scalar_outcome(run):
    # the float's bits, or the message of the EvalError raised
    try:
        return struct.pack("<d", run())
    except EvalError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(tree=_wide_trees(4), x=st.floats(min_value=-1e3, max_value=1e3),
       xs=st.lists(st.one_of(st.sampled_from(_POINTS), st.floats(-1e3, 1e3)), max_size=16))
def test_compiled_matches_the_walk_oracle(tree, x, xs):
    assert _scalar_outcome(lambda: _compile(tree, _SCALAR)(x)) == \
        _scalar_outcome(lambda: _walk(tree, x, _SCALAR))
    xs = np.array(xs, dtype=float)
    for table in (_ARRAY, _EVERY_OPERAND):
        with np.errstate(all="ignore"):
            got, want = _compile(tree, table)(xs), _walk(tree, xs, table)
        assert np.broadcast_to(got, xs.shape).tobytes() == np.broadcast_to(want, xs.shape).tobytes()


def test_evaluated_expression_pickles_and_copies():
    text = "sqrt(x)*exp(0-x)+pow(x, 2.5)/(1+x)"
    f = parse(text)
    xs = np.linspace(0.0, 3.0, 7)
    value, values = evaluate(f, 0.7), evaluate_array(f, xs)  # compiles both tables
    fresh = parse(text)
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copied == fresh and hash(copied) == hash(fresh) and repr(copied) == repr(fresh)
        assert struct.pack("<d", evaluate(copied, 0.7)) == struct.pack("<d", value)
        assert evaluate_array(copied, xs).tobytes() == values.tobytes()
