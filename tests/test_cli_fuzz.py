"""Fuzz of ``run([...])``: every input ends in a documented exit code (0-3).

Random expression trees (the generator from ``test_expr``) serve as
integrands, factors and distortion maps; intervals, s and m are drawn at
random.  An exception escaping ``run`` fails the test, and so does a JSON
report that breaks the postcondition of its command.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import to_text
from sugeno_bounds.bounds import HOLDS_TOL
from sugeno_bounds.cli import build_parser, run
from sugeno_bounds.expr import FunctionExpr, evaluate, parse
from test_expr import _trees

_exprs = _trees(4).map(lambda node: to_text(FunctionExpr(node)))
_formats = st.sampled_from(["text", "json", "csv"])
_params = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def _interval(draw):
    a = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)))
    width = draw(st.floats(min_value=1e-3, max_value=50.0))
    return f"{a!r},{a + width!r}"


def _pair_args(draw):
    return ["--f", draw(_exprs), "--g", draw(_exprs), "--interval", draw(_interval()),
            "--s", repr(draw(_params)), "--m", repr(draw(_params))]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["integrate", "bound", "verify", "convexity"]))
    if command == "integrate":
        measure = draw(st.one_of(st.just("lebesgue"), _exprs))
        args = ["--f", draw(_exprs), "--interval", draw(_interval()),
                "--measure", measure, "--grid", "1001"]
    elif command == "bound":
        args = _pair_args(draw)
    elif command == "verify":
        args = _pair_args(draw) + ["--grid", "1001", "--fail-on-violation"]
    else:
        args = ["--f", draw(_exprs), "--interval", draw(_interval()),
                "--s", repr(draw(_params)), "--m", repr(draw(_params)), "--grid", "11"]
    return [command, *args, "--format", draw(_formats)]


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _check_json_report(argv, text):
    """Postconditions of a successful ``--format json`` run."""
    args = build_parser().parse_args(argv)
    if args.format != "json":
        return
    obj = json.loads(text, parse_constant=_reject_constant)
    a, b = (float(v) for v in args.interval.split(","))
    if args.command == "integrate":
        mu = b - a if args.measure == "lebesgue" else evaluate(parse(args.measure), b - a)
        assert 0.0 <= obj["value"] <= max(mu, 0.0)  # a null measure integrates to 0
    elif args.command == "bound":
        assert obj["bound"] == min(obj["beta"], b - a) and obj["bound"] >= 0.0
    elif args.command == "verify":
        assert obj["margin"] == obj["bound"] - obj["integral"]
        assert obj["holds"] == (obj["margin"] >= -HOLDS_TOL)
    else:
        witness = [obj[k] for k in ("witness_x", "witness_y", "witness_lambda", "witness_gap")]
        assert witness == [None] * 4 or all(v is not None and math.isfinite(v) for v in witness)


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
@example(argv=["integrate", "--f", "x", "--interval", "0,1", "--measure", "0*x"])
@example(argv=["bound", "--f", "1-101*(x-1)", "--g", "1-0.6*(x-1)", "--interval", "1,2",
               "--s", "1", "--m", "0.5"])
@example(argv=["integrate", "--f=" + "+".join(["x"] * 1201), "--interval", "0,1"])
@example(argv=["integrate", "--f=" + "-" * 1200 + "x", "--interval", "0,1"])
@example(argv=["integrate", "--f=" + "(" * 200 + "x" + ")" * 200, "--interval", "0,1"])
@example(argv=["integrate", "--f", "0.00001", "--interval", "0,1e60", "--grid", "1001"])
@example(argv=["bound", "--f", "x", "--g", "x", "--interval", "0,1e300", "--s", "1", "--m", "1",
               "--format", "json"])
@example(argv=["bound", "--f", "1e200", "--g", "1e200", "--interval", "0,1", "--s", "1",
               "--m", "1", "--format", "json"])
@example(argv=["convexity", "--f", "1.7e308*(1-2*x)", "--interval", "0,1", "--s", "0.5",
               "--m", "1", "--format", "json"])
@example(argv=["bound", "--f", "-1", "--g", "1", "--interval", "0,1", "--s", "1", "--m", "1",
               "--format", "json"])
@example(argv=["bound", "--f", "x-2", "--g", "x", "--interval", "0,1", "--s", "1", "--m", "1",
               "--format", "json"])
@example(argv=["bound", "--f=-1e-13", "--g", "1", "--interval", "0,1", "--s", "1", "--m", "1",
               "--format", "json"])
@example(argv=["convexity", "--f=-1.7e308", "--interval", "0,1", "--s", "0.5", "--m", "1",
               "--format", "json"])
def test_run_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (0, 1):
        assert out.getvalue()
        _check_json_report(argv, out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
