"""Sugeno integral engine.

Every numeric target here is recomputed from a closed form or a 50-digit
mpmath root, never copied from the engine under test.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (PreconditionError, check_proposition_properties, distribution_profile,
                       sugeno_integral_oracle)
from sugeno_bounds import sugeno
from sugeno_bounds.cli import run
from sugeno_bounds.exceptions import EvalError, NegativeFunctionError
from sugeno_bounds.expr import BinOp, Call, FunctionExpr, Num, Var, constant, evaluate_array, parse
from sugeno_bounds.measure import Interval, distortion, lebesgue
from sugeno_bounds.rootfind import SolverConfig
from sugeno_bounds.sugeno import DEFAULT_GRID, MAX_GRID, sugeno_integral
from test_expr import _trees

mpmath.mp.dps = 50


def _root(expr_fn, x0):
    return float(mpmath.findroot(expr_fn, x0))


# fixed point of a = 1 - (4a)^(1/5) for x^5/4 on [0,1]
QUINTIC = _root(lambda a: a + (4 * a) ** (mpmath.mpf(1) / 5) - 1, 0.13)
# fixed point of a = 4 - sqrt(a) for x^2 on [1,4]: (9 - sqrt(17)) / 2
SQUARE_14 = float((9 - mpmath.sqrt(17)) / 2)
# fixed point of a = a^(-1/4) - 1 for 1/x^4 on [1,2]
QUARTIC = _root(lambda a: a ** (-mpmath.mpf(1) / 4) - 1 - a, 0.32)
# fixed point of a = 1 - sqrt(a) for x^2 on [0,1]: (3 - sqrt(5)) / 2
SQUARE_01 = float((3 - mpmath.sqrt(5)) / 2)


def test_quintic_example():
    res = sugeno_integral(parse("x^5/4"), Interval(0.0, 1.0))
    assert res.value == pytest.approx(QUINTIC, abs=1e-9)
    assert res.residual <= 1e-9
    assert res.grid_points is None  # monotone path refines boundaries exactly


def test_square_on_one_four():
    res = sugeno_integral(parse("x^2"), Interval(1.0, 4.0))
    assert res.value == pytest.approx(SQUARE_14, abs=1e-9)


def test_reciprocal_quartic():
    res = sugeno_integral(parse("1/x^4"), Interval(1.0, 2.0))
    assert res.value == pytest.approx(QUARTIC, abs=1e-9)


def test_square_on_unit_interval():
    res = sugeno_integral(parse("x^2"), Interval(0.0, 1.0))
    assert res.value == pytest.approx(SQUARE_01, abs=1e-9)


@pytest.mark.parametrize("c,a,b", [(0.3, 0.0, 1.0), (0.5, 0.0, 1.0), (2.0, 0.0, 1.0),
                                   (0.5, 1.0, 4.0), (5.0, 1.0, 2.0), (0.0, 0.0, 1.0)])
def test_constant_integral_is_min(c, a, b):
    res = sugeno_integral(parse(repr(c)), Interval(a, b))
    assert res.value == pytest.approx(min(c, b - a), abs=1e-9)


def test_distortion_measure_integral():
    # x^2 on [0,1] under phi(t)=sqrt(t): fixed point of a = sqrt(1 - sqrt(a))
    ref = _root(lambda a: mpmath.sqrt(1 - mpmath.sqrt(a)) - a, 0.52)
    res = sugeno_integral(parse("x^2"), Interval(0.0, 1.0),
                          distortion(parse("sqrt(x)"), Interval(0.0, 1.0)))
    assert res.value == pytest.approx(ref, abs=1e-9)


def test_oracle_agrees_with_fixed_point():
    for text, a, b, want in [("x^5/4", 0.0, 1.0, QUINTIC),
                             ("x^2", 1.0, 4.0, SQUARE_14),
                             ("1/x^4", 1.0, 2.0, QUARTIC)]:
        got = sugeno_integral_oracle(parse(text), Interval(a, b),
                                     n_alpha=20001, grid=20001)
        assert got == pytest.approx(want, abs=1e-3)


def test_oracle_linear_and_zero():
    # x on [0,2]: fixed point of a = 2 - a
    got = sugeno_integral_oracle(parse("x"), Interval(0.0, 2.0), n_alpha=100001)
    assert got == pytest.approx(1.0, abs=1e-3)
    assert sugeno_integral_oracle(parse("0"), Interval(0.0, 1.0)) == 0.0


def test_grid_cap_checked_before_allocation(no_grid_alloc):
    f, box = parse("x"), Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        sugeno_integral(f, box, grid=MAX_GRID + 1)
    with pytest.raises(ValueError):
        distribution_profile(f, box, alphas=(0.5,), grid=MAX_GRID + 1)
    with pytest.raises(ValueError):
        check_proposition_properties(f, f, 0.5, box, grid=MAX_GRID + 1)


def _undefined_at(tree, c):
    """``tree + 0*ln(abs(x - c))``: the same values, undefined exactly at x = c."""
    gap = Call("abs", (BinOp("-", Var(), Num(c)),))
    hole = Call("ln", (gap,))
    return BinOp("+", tree, BinOp("*", Num(0.0), hole))


_CHUNK = sugeno._CHUNK_POINTS


@pytest.mark.filterwarnings("ignore:excluded 1 non-evaluable")
@settings(max_examples=40, deadline=None)
@given(tree=_trees(3),
       a=st.floats(min_value=0.0, max_value=1e3),
       width=st.floats(min_value=1e-6, max_value=1e3),
       grid=st.sampled_from([101, 10001, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                             DEFAULT_GRID]),
       hole=st.none() | st.integers(min_value=0, max_value=DEFAULT_GRID - 1),
       picks=st.lists(st.integers(min_value=0, max_value=DEFAULT_GRID - 1), max_size=4))
@example(tree=Var(), a=0.0, width=5e-324, grid=101, hole=None, picks=[50])  # the step underflows
@example(tree=Var(), a=0.0, width=5e-324, grid=DEFAULT_GRID, hole=None, picks=[])
@example(tree=Var(), a=0.0, width=0.1, grid=DEFAULT_GRID, hole=None,
         picks=[])  # b differs from a + (grid - 1) * step
@example(tree=parse("x^2+1").root, a=1.0, width=3.0, grid=DEFAULT_GRID, hole=_CHUNK,
         picks=[])  # an undefined interior point on a chunk edge
def test_chunked_grid_matches_linspace(tree, a, width, grid, hole, picks):
    # the chunked build gives every value bit for bit, NaN at the same places,
    # and x(i) is linspace's coordinate, at chunk edges too
    base = Interval(a, a + width)
    xs = np.linspace(base.a, base.b, grid)
    if hole is not None and grid > 1000:  # one excluded point of 101 is over the 0.1% limit
        tree = _undefined_at(tree, float(xs[hole % grid]))
    f = FunctionExpr(tree, "<built>")
    levels = sugeno._LevelSets(f, base, lebesgue(), grid)
    assert levels.vals.tobytes() == evaluate_array(f, xs).tobytes()
    edges = [i for k in range(_CHUNK, grid, _CHUNK) for i in (k - 1, k)]
    for i in [0, grid - 1, *edges, *(i % grid for i in picks)]:
        assert levels.x(i) == xs[i], i


@pytest.mark.parametrize("grid,limit_mb", [(DEFAULT_GRID, 1.6), (10**6, 12.0)])
def test_integral_memory_is_bounded(grid, limit_mb):
    # a verify-shaped product: the grid's values take 8 B per point and every
    # other buffer is chunk-sized
    f, base = parse("(x+1)*(2+exp(0-x))"), Interval(0.0, 4.0)
    tracemalloc.start()
    try:
        sugeno_integral(f, base, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20, peak


def test_intermediate_overflow_is_undefined(capsys):
    # exp(1000*x) overflows for x > 0.7098, so 1/exp(1000*x) is undefined
    # there in both evaluators, not 0: most of the grid is not evaluable
    text = "0.1*x+1-1/exp(1000*x)"
    with pytest.raises(EvalError, match="64511 of 100001"):
        sugeno_integral(parse(text), Interval(0.0, 2.0))
    assert run(["integrate", "--f", text, "--interval", "0,2"]) == 3
    assert "not evaluable" in capsys.readouterr().err


def test_non_monotone_integrand():
    # tent 1/2-|x-1/2| on [0,1]: F(a) = 1-2a, fixed point 1/3
    res = sugeno_integral(parse("1/2-abs(x-1/2)"), Interval(0.0, 1.0), grid=40001)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert res.grid_points == 40001  # counting path reports its grid


def _level_set_measure(f, base, alpha):
    ((_, measure),) = distribution_profile(f, base, alphas=(alpha,))
    return measure


def test_level_set_measure():
    box = Interval(1.0, 4.0)
    assert _level_set_measure(parse("x^2"), box, 4.0) == pytest.approx(2.0, abs=1e-9)
    assert _level_set_measure(parse("x^2"), box, 0.5) == 3.0
    assert _level_set_measure(parse("x^2"), box, 17.0) == 0.0
    assert _level_set_measure(parse("x"), Interval(0.0, 1.0), 0.3) == pytest.approx(0.7, abs=1e-9)
    # boundary of {x^5/4 >= 0.1} is (0.4)^(1/5)
    got = _level_set_measure(parse("x^5/4"), Interval(0.0, 1.0), 0.1)
    assert got == pytest.approx(1.0 - 0.4**0.2, abs=1e-5)
    assert _level_set_measure(parse("1/2"), Interval(0.0, 2.0), 0.6) == 0.0


def test_distribution_profile_square():
    prof = distribution_profile(parse("x^2"), Interval(1.0, 4.0), alphas=(1.0, 4.0, 16.0))
    assert tuple(a for a, _ in prof) == (1.0, 4.0, 16.0)
    vals = [v for _, v in prof]
    assert vals[0] == pytest.approx(3.0, abs=1e-9)
    assert vals[1] == pytest.approx(2.0, abs=1e-9)
    assert vals[2] == pytest.approx(0.0, abs=1e-9)


def test_distribution_profile_linear_and_constant():
    prof = distribution_profile(parse("x"), Interval(0.0, 1.0), alphas=(0.0, 0.5, 1.0))
    assert [v for _, v in prof] == pytest.approx([1.0, 0.5, 0.0], abs=1e-9)
    prof2 = distribution_profile(parse("0.7"), Interval(0.0, 1.0), alphas=(0.0, 0.5, 0.7))
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in prof2)


def test_profile_rejects_bad_alphas():
    with pytest.raises(ValueError):
        distribution_profile(parse("x"), Interval(0.0, 1.0), alphas=())
    with pytest.raises(ValueError):
        distribution_profile(parse("x"), Interval(0.0, 1.0), alphas=(1.0, 1.0))


def test_negative_integrand_rejected_with_witness():
    with pytest.raises(NegativeFunctionError) as exc:
        sugeno_integral(parse("x-2"), Interval(0.0, 1.0))
    assert exc.value.value < 0.0
    assert 0.0 <= exc.value.witness_x <= 1.0


def test_mostly_unevaluable_rejected():
    with pytest.raises(EvalError):
        sugeno_integral(parse("sqrt(x-1/2)"), Interval(0.0, 1.0))


def test_few_bad_points_warn_but_proceed():
    # 1/x on [0,1] fails only at the single grid point x=0
    with pytest.warns(RuntimeWarning):
        res = sugeno_integral(parse("1/x"), Interval(0.0, 1.0), grid=10001)
    # F(a) = min(1/a, 1) - 0 clipped to [0,1]; fixed point of a = 1/a is 1
    assert res.value == pytest.approx(1.0, abs=1e-3)


# fixed point of a = 1 + 1/ln(a): the level set of exp(-1/x) on [0,1] is [-1/ln(a), 1]
EXP_RECIPROCAL = _root(lambda a: a - 1 - 1 / mpmath.log(a), 0.26)


@pytest.mark.parametrize("src,n_excluded", [
    ("exp(0-1/x)", 1),                # rising, undefined at a
    ("exp(0-1/(1-x))", 1),            # falling, undefined at b
    ("exp(0-1/x)+0*ln(1-x)", 2),      # rising, undefined at both ends
])
def test_excluded_interval_ends_keep_the_exact_path(src, n_excluded):
    with pytest.warns(RuntimeWarning, match=f"excluded {n_excluded} "):
        res = sugeno_integral(parse(src), Interval(0.0, 1.0))
    assert res.grid_points is None
    assert res.value == pytest.approx(EXP_RECIPROCAL, abs=1e-11)


@pytest.mark.parametrize("src,exact", [
    ("x+0*ln(abs(x-0.5))", 0.5),                 # undefined at the interior grid point 1/2
    ("0.999995+x+0*ln(x)", 0.9999975),           # the crossing x = 2.5e-6 is in the cell at 0
    ("0.000000000001/(1-x)", 1e-6),              # the crossing x = 1 - 1e-6 is in the cell at 1
])
def test_unresolved_exclusions_count_on_the_grid(src, exact):
    with pytest.warns(RuntimeWarning, match="excluded 1 "):
        res = sugeno_integral(parse(src), Interval(0.0, 1.0))
    assert res.grid_points == 100001
    assert res.value == pytest.approx(exact, abs=2e-5)


def test_monotone_integral_scalar_evaluations(monkeypatch):
    # each boundary cell's ends are evaluated once, by the sign-change solve,
    # and the threshold solve does not probe F
    calls = []
    evaluate = sugeno.evaluate
    monkeypatch.setattr(sugeno, "evaluate", lambda f, x: calls.append(x) or evaluate(f, x))
    res = sugeno_integral(parse("x^2"), Interval(1.0, 4.0))
    assert res.value == pytest.approx(SQUARE_14, abs=1e-11)
    assert len(calls) <= 1250


def test_tight_tolerance_improves_residual():
    loose = sugeno_integral(parse("x^2"), Interval(1.0, 4.0), cfg=SolverConfig(tol=1e-6))
    tight = sugeno_integral(parse("x^2"), Interval(1.0, 4.0), cfg=SolverConfig(tol=1e-13))
    assert abs(tight.value - SQUARE_14) <= abs(loose.value - SQUARE_14) + 1e-14


def test_constant_on_huge_interval():
    # bisection over [0, 1e60] needs about 240 halvings to reach tol; a step
    # cap would stop it early at a bracket far wider than the answer
    res = sugeno_integral(constant(1e-5), Interval(0.0, 1e60))
    assert res.value == pytest.approx(1e-5, abs=1e-12)


@pytest.mark.parametrize("phi", ["0*x", "0"])
def test_null_measure_integral_is_zero(phi):
    # mu(X) = 0 leaves no alpha > 0 with F(alpha) >= alpha
    box = Interval(0.0, 1.0)
    res = sugeno_integral(parse("x+1"), box, distortion(parse(phi), box))
    assert res.value == 0.0
    assert res.alpha_bracket == (0.0, 0.0)


# ---------------------------------------------------------------------------
# reference property report (tests/reference.py)


def test_property_report_passes():
    # x^2 <= x on [0,1]; their integrals are (3-sqrt(5))/2 and 1/2
    report = check_proposition_properties(parse("x^2"), parse("x"), 0.3,
                                          Interval(0.0, 1.0), lebesgue())
    assert report.all_pass, report
    assert report.integral_f == pytest.approx(SQUARE_01, abs=1e-6)
    assert report.integral_g == pytest.approx(0.5, abs=1e-6)
    assert report.integral_k == pytest.approx(0.3, abs=1e-9)
    assert report.measure_total == 1.0


def test_property_report_shifted_pair():
    report = check_proposition_properties(parse("x^2"), parse("x^2+1/10"), 0.3,
                                          Interval(0.0, 1.0), lebesgue())
    assert report.all_pass, report


def test_property_report_all_zero_degenerate():
    report = check_proposition_properties(parse("0"), parse("0"), 0.0,
                                          Interval(0.0, 1.0), lebesgue())
    assert report.all_pass, report
    assert report.integral_f == 0.0
    assert report.integral_k == 0.0


def test_property_report_dominance_precondition():
    with pytest.raises(PreconditionError) as exc:
        check_proposition_properties(parse("x"), parse("x^2"), 0.3,
                                     Interval(0.0, 1.0), lebesgue())
    assert exc.value.witness == pytest.approx(0.5, abs=1e-9)


def test_property_report_rejects_negative_constant():
    with pytest.raises(ValueError):
        check_proposition_properties(parse("x"), parse("x"), -0.1,
                                     Interval(0.0, 1.0), lebesgue())


def test_property_report_under_distortion():
    base = Interval(0.0, 1.0)
    spec = distortion(parse("x^2"), base)
    report = check_proposition_properties(parse("x^2"), parse("x"), 0.25, base, spec)
    assert report.all_pass, report
