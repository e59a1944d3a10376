"""Sugeno integral engine.

Every numeric target here is recomputed from a closed form or a 50-digit
mpmath root, never copied from the engine under test.
"""

import gc
import importlib.util
import math
import operator
import random
import re
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (PreconditionError, check_proposition_properties, constant,
                       distribution_profile, sugeno_integral_oracle)
from sugeno_bounds import expr, sugeno
from sugeno_bounds.cli import run
from sugeno_bounds.exceptions import EvalError, NegativeFunctionError
from sugeno_bounds.expr import (BinOp, Call, FunctionExpr, Num, Var, evaluate, evaluate_array,
                                parse)
from sugeno_bounds.measure import Interval, distortion, lebesgue
from sugeno_bounds.sugeno import DEFAULT_GRID, MAX_GRID, sugeno_integral
from test_expr import _trees

mpmath.mp.dps = 50


def _root(expr_fn, x0):
    return float(mpmath.findroot(expr_fn, x0))


# The three worked monotone integrals at 50 digits, then as floats.
# fixed point of a = 1 - (4a)^(1/5) for x^5/4 on [0,1]
QUINTIC_50 = mpmath.findroot(lambda a: a + (4 * a) ** (mpmath.mpf(1) / 5) - 1, 0.13)
# fixed point of a = 4 - sqrt(a) for x^2 on [1,4]: (9 - sqrt(17)) / 2
SQUARE_14_50 = (9 - mpmath.sqrt(17)) / 2
# fixed point of a = a^(-1/4) - 1 for 1/x^4 on [1,2]
QUARTIC_50 = mpmath.findroot(lambda a: a ** (-mpmath.mpf(1) / 4) - 1 - a, 0.32)
QUINTIC, SQUARE_14, QUARTIC = float(QUINTIC_50), float(SQUARE_14_50), float(QUARTIC_50)
# fixed point of a = 1 - sqrt(a) for x^2 on [0,1]: (3 - sqrt(5)) / 2
SQUARE_01 = float((3 - mpmath.sqrt(5)) / 2)
# fixed point of a = sqrt(4 - sqrt(a)) for x^2 on [1,4] under sqrt(x)
SQUARE_14_SQRT = float(mpmath.findroot(lambda a: a - mpmath.sqrt(4 - mpmath.sqrt(a)), 1.6))


def test_quintic_example():
    res = sugeno_integral(parse("x^5/4"), Interval(0.0, 1.0))
    assert res.value == pytest.approx(QUINTIC, abs=1e-9)
    assert res.residual <= 1e-9
    assert res.grid_points is None  # monotone path refines boundaries exactly


@pytest.mark.parametrize("src,base,phi", [
    ("x^2", Interval(1.0, 4.0), None),           # exact path
    ("abs(x-0.5)", Interval(0.0, 1.0), None),    # counted on the grid
    ("x^2", Interval(0.0, 1.0), "sqrt(x)"),      # exact path under a distortion
])
def test_residual_is_the_exact_distribution_at_alpha_lo(src, base, phi):
    measure = None if phi is None else distortion(parse(phi), base)
    res = sugeno_integral(parse(src), base, measure)
    lo, hi = res.alpha_bracket
    assert res.value == lo < hi
    ((_, F_lo),) = distribution_profile(parse(src), base, measure, alphas=(lo,))
    assert res.residual == abs(F_lo - lo)


def test_square_on_one_four():
    res = sugeno_integral(parse("x^2"), Interval(1.0, 4.0))
    assert res.value == pytest.approx(SQUARE_14, abs=1e-9)


def test_reciprocal_quartic():
    res = sugeno_integral(parse("1/x^4"), Interval(1.0, 2.0))
    assert res.value == pytest.approx(QUARTIC, abs=1e-9)


def _monotone_draws(seed, n):
    # the benchmark's three monotone families (power, reciprocal power,
    # exponential), each drawn rising and falling (t = b + a - x mirrors a draw on [a, b]),
    # redrawn until f dips below b - a, so that the Lebesgue integral is an
    # interior crossing and not the saturated mu(X)
    rng, i = random.Random(seed), 0
    while i < n:
        a = rng.uniform(0.0, 8.0)
        b = a + rng.uniform(0.5, min(9.0, 10.0 - a))
        c0, c1 = rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0)
        t = "x" if i % 2 == 0 else f"({a + b!r}-x)"
        family = (i // 2) % 3
        if family == 0:
            src = f"{c0!r}+{c1!r}*{t}^{rng.uniform(0.3, 4.0)!r}"
        elif family == 1:
            src = f"{c0!r}+{4 * c1!r}/({t}+{rng.uniform(0.1, 2.0)!r})^{rng.uniform(0.5, 3.0)!r}"
        else:
            src = f"{c0!r}+{c1!r}*exp({rng.uniform(0.1, 1.2)!r}*{t})"
        if np.min(evaluate_array(parse(src), np.linspace(a, b, 101))) < b - a:
            yield pytest.param(src, Interval(a, b), id=f"draw{i}")
            i += 1


# The benchmark's distortions (bench/gen.py DISTORTIONS), after Lebesgue measure.
_BENCH_MEASURES = [None, "sqrt(x)", "x^2", "x/(1+x)"]
# expr._compile's operator table over 50-digit mpmath numbers; float literals stay exact.
_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow, "exp": mpmath.exp, "sqrt": mpmath.sqrt,
           "ln": mpmath.log, "abs": abs}


def _bisected_truth(src, base, phi):
    """S of a monotone ``src`` over ``base`` under ``phi`` at 50 digits: f at the crossing
    of f(x) = phi(|end - x|), found by bisection, or mu(X) where f stays above phi."""
    f = expr._compile(parse(src).root, _MP_OPS)
    mu = expr._compile(parse(phi or "x").root, _MP_OPS)
    a, b = mpmath.mpf(base.a), mpmath.mpf(base.b)
    start, end = (a, b) if f(a) < f(b) else (b, a)  # the level sets run on to end
    if f(start) >= mu(b - a):
        return mu(b - a)
    below, above = start, end  # f < phi(|end - x|) at below, and >= at above
    for _ in range(200):  # 2^-200 of the base: past 50 digits
        mid = (below + above) / 2
        if f(mid) >= mu(abs(end - mid)):
            above = mid
        else:
            below = mid
    return f(above)


@pytest.mark.parametrize("src,base,phi,truth", [
    pytest.param("x^2", Interval(1.0, 4.0), None, SQUARE_14_50, id="x^2-1.0-4.0-truth0"),
    pytest.param("x^5/4", Interval(0.0, 1.0), None, QUINTIC_50, id="x^5/4-0.0-1.0-truth1"),
    pytest.param("1/x^4", Interval(1.0, 2.0), None, QUARTIC_50, id="1/x^4-1.0-2.0-truth2"),
    *(pytest.param(*draw.values, phi, None, id=f"{draw.id}-seed{seed}-{phi}")
      for seed in (2024, 11) for draw in _monotone_draws(seed, 6) for phi in _BENCH_MEASURES)])
def test_worked_integrals_are_within_the_solver_stop_of_the_truth(src, base, phi, truth):
    # truth, not agreement: the error against the 50-digit root, which the
    # exact path's 1e-12 bisection stop bounds.  Under a distortion, F is phi
    # of a length refined to 1e-12, so a steep phi adds phi's slope times that:
    # the worst draw here reads 1.8e-12 at S = 33.4 under x^2, and 9.3e-13
    # under Lebesgue measure.
    measure = None if phi is None else distortion(parse(phi), base)
    res = sugeno_integral(parse(src), base, measure)
    if truth is None:
        truth = _bisected_truth(src, base, phi)
    stop = 1e-12 if phi is None else 1e-12 * max(1.0, res.value)
    assert abs(mpmath.mpf(res.value) - truth) <= stop


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), family=st.integers(0, 2), mirrored=st.booleans(),
       phi=st.sampled_from(_BENCH_MEASURES))
def test_bench_monotone_integrals_are_within_the_solver_stop_of_the_truth(seed, family,
                                                                         mirrored, phi):
    # bench/gen.py's monotone families (power rises, reciprocal power falls,
    # the exponential goes either way), each also mirrored by x -> a + b - x,
    # against the 50-digit bisection under the stop of the worked integrals.
    # Over 4400 seeded draws the worst error read 0.97 of that stop, so the
    # examples are derandomized and every run checks the same ones.
    gen, rng = _load_bench_gen(), random.Random(seed)
    a, b = gen.random_interval(rng)
    src = gen.monotone_fn(rng, family).text
    if mirrored:
        src = re.sub(r"\bx\b", f"({a + b!r}-x)", src)
    base = Interval(a, b)
    measure = None if phi is None else distortion(parse(phi), base)
    res = sugeno_integral(parse(src), base, measure)
    assert res.grid_points is None
    stop = 1e-12 if phi is None else 1e-12 * max(1.0, res.value)
    assert abs(mpmath.mpf(res.value) - _bisected_truth(src, base, phi)) <= stop


@pytest.mark.parametrize("f,reflected,a,b", [("x^2", "(5-x)^2", 1.0, 4.0),
                                              ("x^5/4", "(1-x)^5/4", 0.0, 1.0),
                                              ("1/x^4", "1/(3-x)^4", 1.0, 2.0),
                                              ("exp(0-x)", "exp(x-3)", 0.0, 3.0)])
def test_reflection_leaves_exact_integrals_unchanged(f, reflected, a, b):
    # x -> a + b - x moves no level set's length, so S is unchanged
    # (Ralescu & Adams 1980); each pair takes the exact path both ways
    base = Interval(a, b)
    res, mirrored = sugeno_integral(parse(f), base), sugeno_integral(parse(reflected), base)
    assert res.grid_points is None and mirrored.grid_points is None
    assert mirrored.value == pytest.approx(res.value, abs=1e-12, rel=0.0)


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP items 6 and 11: the non-monotone member of each pair is "
                          "counted on the grid, which is biased by O(1/grid), while its "
                          "monotone rearrangement takes the exact path")
@pytest.mark.parametrize("f,rearranged", [("1/2-abs(x-1/2)", "(1-x)/2"),   # 3.3e-6 apart
                                          ("abs(x-0.5)", "x/2"),           # 3.3e-6 apart
                                          ("4*x*(1-x)", "1-x^2")])         # 7.4e-6 apart
def test_equimeasurable_integrands_have_one_integral(f, rearranged):
    # f and its monotone rearrangement have the same level-set lengths, so
    # the same S under any distorted Lebesgue measure
    base = Interval(0.0, 1.0)
    res, monotone = sugeno_integral(parse(f), base), sugeno_integral(parse(rearranged), base)
    assert res.value == pytest.approx(monotone.value, abs=1e-10, rel=0.0)


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
    f = FunctionExpr(tree)
    levels = sugeno._LevelSets(f, base, lebesgue(), grid)
    assert levels.vals.tobytes() == evaluate_array(f, xs).tobytes()
    edges = [i for k in range(_CHUNK, grid, _CHUNK) for i in (k - 1, k)]
    for i in [0, grid - 1, *edges, *(i % grid for i in picks)]:
        assert levels.x(i) == xs[i], i


def test_grid_build_compiles_the_integrand_once(monkeypatch):
    # one array form serves every chunk of the grid, not one per chunk
    f, compiled = parse("x^2"), []
    compile_ = expr._compile

    def spy(node, ops):
        if node is f.root and ops is expr._ARRAY:
            compiled.append(node)
        return compile_(node, ops)

    monkeypatch.setattr(expr, "_compile", spy)  # what evaluate_array compiles with
    monkeypatch.setattr(sugeno, "_compile", spy)
    res = sugeno_integral(f, Interval(1.0, 4.0))
    assert res.value == pytest.approx(SQUARE_14, abs=1e-11)
    assert DEFAULT_GRID > 6 * _CHUNK  # seven chunks
    assert len(compiled) == 1


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


def test_integrals_keep_no_memory_after_returning():
    # 20 integrals of distinct expressions leave nothing behind: no grid
    # (0.8 MB), and no array form (about 2 KB per expression) cached anywhere
    fs = [parse(f"{0.5 + i / 40!r}+{1 + i / 10!r}*exp(0-{2 + i!r}*(x-{0.3 + i / 50!r})^2)")
          for i in range(20)]
    base = Interval(0.0, 1.0)
    for f in fs:
        evaluate(f, 0.5)  # the scalar form is the expression's own, compiled on first use
    sugeno_integral(parse("1+exp(0-(x-0.5)^2)"), base)  # numpy's own first-use state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in fs:
            sugeno_integral(f, base)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**10, held


@pytest.mark.parametrize("src,base,phi", [("x^2", Interval(1.0, 4.0), None),
                                          ("abs(x-0.5)", Interval(0.0, 1.0), None),
                                          ("x^2", Interval(1.0, 4.0), "sqrt(x)")],
                         ids=["exact", "counted", "exact-sqrt"])
def test_level_sets_are_freed_by_reference_counting(monkeypatch, src, base, phi):
    # the grid (0.8 MB) goes as soon as the integral returns, with no wait for
    # the cycle collector: nothing the level sets hold, their point memos
    # included, refers back to them
    built, build = [], sugeno._LevelSets.__init__

    def building(self, *args):
        built.append(weakref.ref(self))
        build(self, *args)

    monkeypatch.setattr(sugeno._LevelSets, "__init__", building)
    measure = None if phi is None else distortion(parse(phi), base)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sugeno_integral(parse(src), base, measure)
        assert built and all(level_sets() is None for level_sets in built)
    finally:
        if enabled:
            gc.enable()


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


# A bump under the sqrt(x) distortion puts the crossing where F is phi of a
# count, so a settled count must feed phi the same length.  The last
# integrand is undefined at x = 0.191, a grid point at 10001 and 100001 where
# the value is near the crossing, so the bracket's samples hold an excluded
# one (NaN); grid 101 misses the hole, since one excluded point of 101 is
# over the 0.1% limit.
_COUNTED = [("abs(x-0.5)", None), ("4*x*(1-x)", None), ("exp(-((x-0.4)/0.15)^2)", None),
            ("exp(-((x-0.4)/0.15)^2)", "sqrt(x)"), ("1/2-abs(x-1/2)", None),
            ("abs(x-0.5)", "sqrt(x)"), ("4*x*(1-x)+0*sqrt(abs(x-0.191)-0.000000001)", None)]


@pytest.mark.filterwarnings("ignore:excluded 1 non-evaluable")
@pytest.mark.parametrize("grid", [101, 10001, DEFAULT_GRID])
@pytest.mark.parametrize("src,phi", _COUNTED)
def test_settled_counts_match_counting_every_query(monkeypatch, src, phi, grid):
    box = Interval(0.0, 1.0)
    measure = None if phi is None else distortion(parse(phi), box)
    settled = sugeno_integral(parse(src), box, measure, grid=grid)
    monkeypatch.setattr(sugeno._LevelSets, "_settled_count", sugeno._LevelSets._count)
    counted = sugeno_integral(parse(src), box, measure, grid=grid)
    assert settled.grid_points == grid
    assert repr(settled) == repr(counted)


@pytest.mark.parametrize("src,grid", [("abs(x-0.5)", DEFAULT_GRID), ("4*x*(1-x)", 10001)])
def test_settled_counts_skip_grid_passes(monkeypatch, src, grid):
    # here the diagonal crosses F on a flat step, so once the bisection's
    # bracket lies on that step its midpoints take the step's count without
    # a pass over the grid (where it crosses at a jump, as 4*x*(1-x) does at
    # the default grid, the bracket's ends keep different counts)
    passes, queries = [], []
    count, measure = sugeno._LevelSets._count, sugeno._LevelSets.measure
    monkeypatch.setattr(sugeno._LevelSets, "_count", lambda self, a: passes.append(a) or count(self, a))
    monkeypatch.setattr(sugeno._LevelSets, "measure",
                        lambda self, a: queries.append(a) or measure(self, a))
    res = sugeno_integral(parse(src), Interval(0.0, 1.0), grid=grid)
    assert res.grid_points == grid
    assert len(passes) <= 0.8 * len(queries), (len(passes), len(queries))


# These cross F at a jump, so the bracket's ends keep different counts to the
# end; once the bracket holds few samples, each step counts those alone.
@pytest.mark.parametrize("grid", [101, 10001, DEFAULT_GRID])
@pytest.mark.parametrize("src,phi", [("4*x*(1-x)", None), ("exp(-((x-0.4)/0.15)^2)", None),
                                     ("1/2-abs(x-1/2)", None), ("abs(x-0.5)", "sqrt(x)")])
def test_narrowing_counts_make_few_grid_passes(monkeypatch, src, phi, grid):
    box, passes = Interval(0.0, 1.0), []
    measure = None if phi is None else distortion(parse(phi), box)
    count = sugeno._LevelSets._count
    monkeypatch.setattr(sugeno._LevelSets, "_count",
                        lambda self, a: passes.append(a) or count(self, a))
    res = sugeno_integral(parse(src), box, measure, grid=grid)
    assert res.grid_points == grid
    assert len(passes) <= 9, len(passes)


def _bumpy(seed):
    """A seeded Gaussian bump, tent or cap on an interval in [0, 10], as in the benchmark."""
    rng = random.Random(seed)
    a = rng.uniform(0.0, 8.0)
    b = a + rng.uniform(0.5, min(9.0, 10.0 - a))
    c = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
    family = rng.randrange(3)
    if family == 0:
        src = (f"{rng.uniform(0.0, 2.0)!r}+{rng.uniform(0.3, 3.0)!r}"
               f"*exp(0-{rng.uniform(0.5, 20.0)!r}*(x-{c!r})^2)")
    elif family == 1:
        src = f"{rng.uniform(0.0, 1.0)!r}+{rng.uniform(0.2, 2.0)!r}*abs(x-{c!r})"
    else:  # c*x*(k-x) with k >= b, so non-negative on [a, b]
        k = rng.uniform(max(b, 2.0 * a + 0.2 * (b - a)), 2.0 * b - 0.2 * (b - a))
        src = f"{rng.uniform(0.2, 2.0)!r}*x*({k!r}-x)"
    return parse(src), Interval(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       grid=st.sampled_from([101, 10001, DEFAULT_GRID]),
       phi=st.sampled_from([None, "sqrt(x)", "x/(1+x)"]),
       targets=st.lists(st.integers(min_value=0, max_value=DEFAULT_GRID - 1)
                        | st.floats(min_value=0.0, max_value=1.0), max_size=3))
def test_narrowing_counts_match_the_oracle(seed, grid, phi, targets):
    # the integral against counting every query on the grid; then, on one
    # grid, halvings toward each target in turn (a sample value or a point of
    # the value range), so a later target's brackets leave the kept samples
    f, box = _bumpy(seed)
    measure = None if phi is None else distortion(parse(phi), box)
    settled = sugeno_integral(f, box, measure, grid=grid)
    with mock.patch.object(sugeno._LevelSets, "_settled_count", sugeno._LevelSets._count):
        counted = sugeno_integral(f, box, measure, grid=grid)
    assert repr(settled) == repr(counted)
    levels = sugeno._LevelSets(f, box, lebesgue(), grid)
    v_min, v_max = float(np.min(levels.vals)), float(np.max(levels.vals))
    for t in targets:
        target = float(levels.vals[t % grid]) if isinstance(t, int) else v_min + t * (v_max - v_min)
        lo, hi = v_min, v_max
        queries = [lo, hi]
        for _ in range(30):
            queries.append(0.5 * (lo + hi))
            lo, hi = (queries[-1], hi) if queries[-1] <= target else (lo, queries[-1])
        for alpha in [*queries, target]:
            assert levels._settled_count(alpha) == levels._count(alpha), alpha


@pytest.mark.filterwarnings("ignore:excluded 1 non-evaluable")
@pytest.mark.parametrize("src,i,width", [
    ("abs(x-0.49)+abs(x-0.51)", 5000, 0.002),  # 201 samples share the plateau's value
    (_COUNTED[-1][0], 1911, 0.01),  # next to sample 1910, which is excluded (NaN)
])
def test_kept_bracket_counts_at_its_edges(src, i, width):
    # each alpha in the kept bracket, its two ends too, against a count of
    # the whole grid; the counted alphas are cleared before each query, so
    # the kept samples answer it
    grid = 10001
    levels = sugeno._LevelSets(parse(src), Interval(0.0, 1.0), lebesgue(), grid)
    centre = float(levels.vals[i])
    lo, hi = centre - width, centre + width
    for alpha in (lo, hi, centre):  # two counts of the grid, then a narrow bracket
        levels._settled_count(alpha)
    kept_lo, kept_hi, samples, _ = levels._kept
    assert (kept_lo, kept_hi) == (lo, hi)
    assert 0 < len(samples) <= grid // sugeno._NARROW_SHARE
    assert np.count_nonzero(samples == centre) == 201 or np.isnan(levels.vals[i - 1])
    up, down = math.inf, -math.inf
    alphas = [lo, hi, centre, math.nextafter(lo, up), math.nextafter(hi, down),
              math.nextafter(centre, down), math.nextafter(centre, up), *samples[::7].tolist()]
    for alpha in alphas:
        levels._counted = ([], [])
        assert levels._settled_count(alpha) == levels._count(alpha), alpha
    assert levels._kept[2] is samples


def _load_bench_gen():
    """bench/gen.py, the benchmark's integrand families, imported without changing sys.path."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    module = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _components(fn, a, b):
    """Most intervals a level set of ``fn`` can have on [a, b]: its local maxima, ends
    included, read off the runs of its numpy twin on 10001 points."""
    steps = np.diff(fn(np.linspace(a, b, 10001)))
    ups = steps[steps != 0.0] > 0.0
    return int(np.count_nonzero(ups[:-1] & ~ups[1:])) + int(not ups[0]) + int(ups[-1])


def _bench_turns(seed):
    """Two tents, two caps, two Gaussian bumps and three bump add-ons (a monotone base of
    each family plus a bump, up to two turns) drawn as the benchmark draws them, redrawn
    until f turns on 1001 samples and dips below mu(X), each with the number of intervals
    its level sets can have."""
    gen, rng = _load_bench_gen(), random.Random(seed)
    # bench/gen.py's index: an add-on's base is monotone_fn(rng, index // 4)
    for i, (family, index) in enumerate([(gen.tent_fn, 0), (gen.tent_fn, 0),
                                         (gen.cap_fn, 0), (gen.cap_fn, 0),
                                         (gen.gaussian_bump_fn, 0), (gen.gaussian_bump_fn, 0),
                                         *((gen.bump_addon_fn, 4 * k) for k in range(3))]):
        while True:
            a, b = gen.random_interval(rng)
            fn = family(rng, a, b, index)
            steps = np.diff(fn(np.linspace(a, b, 1001)))
            if np.any(steps > 1e-9) and np.any(steps < -1e-9) and gen.dips_below(fn, a, b, b - a):
                break
        yield pytest.param(fn.text, Interval(a, b), _components(fn, a, b), None,
                           id=f"{family.__name__}{i}-seed{seed}")


def _bisect(beyond, lo, hi):
    """Where ``beyond`` turns True between ``lo`` (False) and ``hi`` (True), to 2^-200 of hi - lo."""
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if beyond(mid) else (mid, hi)
    return hi


def _illinois(g, lo, hi):
    """The sign change of a continuous ``g`` between ``lo`` and ``hi``, by regula falsi with the
    Illinois halving (Dowell & Jarratt, BIT 11, 1971), to a bracket of 1e-45 of hi - lo; each
    step keeps a bracket, as bisection does."""
    glo, ghi, width = g(lo), g(hi), abs(hi - lo) * mpmath.mpf(10) ** -45
    kept = None  # the end that the last step kept
    for _ in range(500):
        if abs(hi - lo) <= width:
            return hi
        mid = hi - ghi * (hi - lo) / (ghi - glo)
        gmid = g(mid)
        if gmid == 0:
            return mid
        if (gmid > 0) == (ghi > 0):
            hi, ghi = mid, gmid
            glo, kept = (glo / 2 if kept == "lo" else glo), "lo"
        else:
            lo, glo = mid, gmid
            ghi, kept = (ghi / 2 if kept == "hi" else ghi), "hi"
    raise AssertionError(f"no 50-digit sign change of g between {lo} and {hi} in 500 steps")


def _turning_truth(src, base):
    """S of a piecewise-monotone ``src`` over ``base`` under Lebesgue measure at 50 digits:
    each turning point, a sign change of a finite difference between two of 2001 evenly
    spaced points refined by bisection, ends a monotone run; F(alpha) sums the runs'
    level lengths, each crossing solved by ``_illinois``, and S is where F(alpha) - alpha
    changes sign, solved by ``_illinois`` too, since these integrands have no flat run and
    so F is continuous."""
    f = expr._compile(parse(src).root, _MP_OPS)
    a, b, dx, scan = mpmath.mpf(base.a), mpmath.mpf(base.b), mpmath.mpf(10) ** -30, 2000

    def rises(x):
        return f(x + dx) > f(x)

    xs = [a + (b - a) * k / scan for k in range(scan + 1)]
    ups = [rises(x) for x in xs]
    # near a smooth turn this finds it to about 1e-20 only, but any split between
    # a level set's two crossings gives the same total length
    turns = [_bisect(lambda x, up=up: rises(x) == up, lo, hi)
             for lo, hi, was, up in zip(xs, xs[1:], ups, ups[1:]) if up != was]
    ends = [a, *turns, b]
    runs = [(lo, hi, f(lo), f(hi)) for lo, hi in zip(ends, ends[1:])]

    def length(alpha):
        total = mpmath.mpf(0)
        for lo, hi, f_lo, f_hi in runs:
            if f_lo >= alpha and f_hi >= alpha:
                total += hi - lo
            elif f_lo >= alpha or f_hi >= alpha:
                cut = _illinois(lambda x: f(x) - alpha, lo, hi)
                total += cut - lo if f_lo >= alpha else hi - cut
        return total

    return _illinois(lambda alpha: length(alpha) - alpha, mpmath.mpf(0), b - a)


@pytest.mark.parametrize("src,base,components,closed_form", [
    pytest.param("abs(x-0.5)", Interval(0.0, 1.0), 2, mpmath.mpf(1) / 3, id="abs(x-0.5)"),
    pytest.param("4*x*(1-x)", Interval(0.0, 1.0), 1, (mpmath.sqrt(5) - 1) / 2, id="4*x*(1-x)"),
    *_bench_turns(11)])
def test_counted_integrals_are_within_the_grid_bias_of_the_truth(src, base, components,
                                                                 closed_form):
    # the grid count against the 50-digit truth, within the bias bound that
    # bench/check.py's integral_ok allows a counted answer: (components + 2)
    # grid steps.  At the default grid the two worked integrands read +3.33e-6
    # and -7.43e-6 against bounds of 4e-5 and 3e-5.
    truth = _turning_truth(src, base)
    if closed_form is not None:
        assert abs(truth - closed_form) < mpmath.mpf(10) ** -45
    for grid in (101, 10001, DEFAULT_GRID):
        res = sugeno_integral(parse(src), base, grid=grid)
        assert res.grid_points == grid
        bound = (components + 2) * base.length / (grid - 1)
        assert abs(mpmath.mpf(res.value) - truth) <= bound, (grid, res.value, float(truth))


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
])
def test_unresolved_exclusions_count_on_the_grid(src, exact):
    # only an excluded interior point sends an integral to the grid count
    with pytest.warns(RuntimeWarning, match="excluded 1 "):
        res = sugeno_integral(parse(src), Interval(0.0, 1.0))
    assert res.grid_points == 100001
    assert res.value == pytest.approx(exact, abs=2e-5)


@pytest.mark.parametrize("src,exact", [
    ("0.999995+x+0*ln(x)", 0.9999975),           # the crossing x = 2.5e-6 is in the cell at 0
    ("0.999995+(1-x)+0*ln(1-x)", 0.9999975),     # its mirror, in the cell at 1
    ("0.000000000001/(1-x)", 1e-6),              # the crossing x = 1 - 1e-6 is in the cell at 1
    ("0.000000000001/x", 1e-6),                  # its mirror, in the cell at 0
])
def test_excluded_end_cells_are_refined(src, exact):
    # the crossing lies in the grid cell next to an undefined interval end, so
    # that cell is halved like an interior one and the answer stays exact (a
    # grid count read 0.99999000 and 9.999985e-08 here)
    with pytest.warns(RuntimeWarning, match="excluded 1 "):
        res = sugeno_integral(parse(src), Interval(0.0, 1.0))
    assert res.grid_points is None
    assert abs(res.value - exact) <= 1e-12, res


@pytest.mark.parametrize("src", ["1e-300*exp(0.01/(1-x))", "1e-300*exp(0.01/x)"])
def test_end_cell_midpoint_errors_propagate(src):
    # exp overflows at the end cell's midpoints as it does at the excluded grid
    # points, so the refinement raises, as in an interior cell (a grid count
    # read 0.0 here; the truth is about 1.47e-5)
    with pytest.warns(RuntimeWarning, match="excluded 2 "), \
            pytest.raises(EvalError, match="^overflow in exp$"):
        sugeno_integral(parse(src), Interval(0.0, 1.0))


def _scalar_calls(monkeypatch, src, base, phi=None):
    """The integral of ``src`` over ``base`` under ``phi`` and its integrand and phi
    evaluations; phi's include mu(X)."""
    f, calls = parse(src), {"f": 0, "phi": 0}
    measure = None if phi is None else distortion(parse(phi), base)
    evaluate = expr.evaluate  # not sugeno's name, which an earlier call may have wrapped

    def counting(g, x):
        calls["f" if g is f else "phi"] += 1
        return evaluate(g, x)

    monkeypatch.setattr(sugeno, "evaluate", counting)
    return sugeno_integral(f, base, measure), calls


def test_monotone_integral_scalar_evaluations(monkeypatch):
    # the boundary bisection evaluates only midpoints (the grid has the cell
    # ends) and stops at the first bracket whose ends settle the step, with
    # phi evaluated at the end that moved; a step that the crossing cell's
    # ends settle evaluates no f, and the threshold solve does not probe F.
    # f and phi are evaluated once per point for the whole integral, so the
    # alpha steps that share a crossing cell, and the residual at alpha_lo,
    # re-walk it on remembered values: 27 f and 64 phi evaluations, and 25
    # and 58 under sqrt(x).  Re-evaluating them made 335 and 428, and 310 and
    # 399; refining every unsettled step to full depth made 650 and 116.
    for phi, truth, max_f, max_phi in [(None, SQUARE_14, 27, 64),
                                       ("sqrt(x)", SQUARE_14_SQRT, 25, 58)]:
        res, calls = _scalar_calls(monkeypatch, "x^2", Interval(1.0, 4.0), phi)
        assert res.value == pytest.approx(truth, abs=1e-11)
        assert calls["f"] <= max_f and calls["phi"] <= max_phi, (phi, calls)
        assert calls["f"] + calls["phi"] < 100, (phi, calls)  # ROADMAP item 2's target


@pytest.mark.filterwarnings("ignore:excluded 1 non-evaluable")
def test_end_cell_is_refined_at_midpoints_only(monkeypatch):
    # the crossing is in the cell [0.99999, 1] next to the excluded end x = 1:
    # its refinement evaluates f only at midpoints strictly inside the cell,
    # never at the end, and each point once per integral
    f, points, phi_calls, evaluate = parse("0.000000000001/(1-x)"), [], [], expr.evaluate

    def recording(g, x):
        (points if g is f else phi_calls).append(x)
        return evaluate(g, x)

    monkeypatch.setattr(sugeno, "evaluate", recording)
    res = sugeno_integral(f, Interval(0.0, 1.0))
    assert repr(res) == ("IntegralResult(value=9.99999429041054e-07, "
                         "residual=1.1073364447611311e-12, "
                         "alpha_bracket=(9.99999429041054e-07, 1.0000003385357559e-06), "
                         "grid_points=None)")
    cell_lo = float(np.linspace(0.0, 1.0, DEFAULT_GRID)[-2])
    assert points and all(cell_lo < x < 1.0 for x in points), points
    assert len(points) == len(set(points)) == 25
    assert len(phi_calls) == 32


@pytest.mark.parametrize("phi", _BENCH_MEASURES)
@pytest.mark.parametrize("src,base", [*_monotone_draws(2024, 6),
                                      pytest.param("x^2", Interval(1.0, 4.0), id="square"),
                                      pytest.param("x^5/4", Interval(0.0, 1.0), id="quintic"),
                                      pytest.param("1/x^4", Interval(1.0, 2.0), id="quartic")])
def test_remembered_evaluations_change_no_answer(monkeypatch, src, base, phi):
    # f and phi are pure, so a remembered value is what evaluating the point
    # again gives
    res, calls = _scalar_calls(monkeypatch, src, base, phi)
    build = sugeno._LevelSets.__init__

    def forgetful_build(self, *args):
        # the uncached callables: every point is evaluated each time it is asked for
        build(self, *args)
        self._f_of, self._phi_of = self._f_of.__wrapped__, self._phi_of.__wrapped__

    monkeypatch.setattr(sugeno._LevelSets, "__init__", forgetful_build)
    forgot, forgot_calls = _scalar_calls(monkeypatch, src, base, phi)
    assert res == forgot
    assert res.grid_points is None
    if res.alpha_bracket[0] < res.alpha_bracket[1]:  # an interior crossing, not mu(X)
        assert calls["f"] < forgot_calls["f"], (calls, forgot_calls)
    assert calls["phi"] < forgot_calls["phi"], (calls, forgot_calls)


def test_settle_margin_covers_a_phi_that_falls_within_the_distortion_slack(monkeypatch):
    # phi rises with slope 1 + 2.5e-7 and falls by 2.5e-7 * 2^-19 = 4.8e-13
    # wherever x + 1e10 rounds up to its next float, so distortion() accepts
    # it (it allows falls up to 1e-12).  At alpha, the level length is the
    # crossing of f = k*x refined just past such a fall: the exact F(alpha) is
    # below alpha, while phi at both ends of the last bracket the refinement
    # checks is above it.  Settling there without the margin would accept
    # alpha; the margin of 1e-12 * max(1, alpha) lets the step refine on.
    base = Interval(0.0, 1.0)
    phi = distortion(parse("x+2.5e-07*(x-((x+1e10)-1e10))"), base)
    f, alpha = parse("1.0000038147052648*x"), 0.50000095367438

    def step_and_exact(margin):
        monkeypatch.setattr(sugeno, "_SETTLE_MARGIN", margin)
        levels = sugeno._LevelSets(f, base, phi, DEFAULT_GRID)
        return levels.threshold_step(alpha), levels.measure(alpha)

    step, exact = step_and_exact(sugeno._SETTLE_MARGIN)
    assert exact < alpha and step < alpha
    step, exact = step_and_exact(0.0)
    assert exact < alpha <= step  # the wrong side: this case needs the margin


_MEASURES = [*_BENCH_MEASURES, "x^3-x^2+x", "(x+1e10)-1e10"]
_JUMP = "1-(abs(x-1)-(x-1))/2+(abs(x-2.8)+(x-2.8))/2"  # x, then 1 on [1, 2.8], then x - 1.8


@pytest.mark.parametrize("grid", [101, 1001, DEFAULT_GRID])
@pytest.mark.parametrize("phi", _MEASURES)
@pytest.mark.parametrize("src,base", [*_monotone_draws(2024, 6),
                                      pytest.param(_JUMP, Interval(0.0, 3.0), id="jump"),
                                      pytest.param(f"2-({_JUMP})", Interval(0.0, 3.0),
                                                   id="jump-mirrored"),
                                      pytest.param("x^2", Interval(1.0, 4.0), id="square"),
                                      pytest.param("x^5/4", Interval(0.0, 1.0), id="quintic"),
                                      pytest.param("1/x^4", Interval(1.0, 2.0), id="quartic"),
                                      pytest.param("exp(20*x)/1e8", Interval(0.0, 1.0),
                                                   id="steep-exp")])
def test_settled_steps_match_refining_every_step(monkeypatch, src, base, phi, grid):
    # At the jump pair's last accepted alpha the crossing cell settles the
    # step, so a residual read from phi at the cell's ends would be one
    # cell's length off (0.99998 instead of 1.0000000000003761 at the
    # default grid); the solve must take it from the exact F.
    measure = None if phi is None else distortion(parse(phi), base)
    settled = sugeno_integral(parse(src), base, measure, grid=grid)
    monkeypatch.setattr(sugeno._LevelSets, "threshold_step", sugeno._LevelSets.measure)
    refined = sugeno_integral(parse(src), base, measure, grid=grid)
    assert settled.grid_points is None
    assert settled == refined


def test_boundary_refinement_never_evaluates_a_grid_point(monkeypatch):
    f, grid = parse("x^2"), 1001
    points = []
    evaluate = sugeno.evaluate

    def recording(g, x):
        if g is f:  # the integrand, not the distortion
            points.append(x)
        return evaluate(g, x)

    monkeypatch.setattr(sugeno, "evaluate", recording)
    res = sugeno_integral(f, Interval(1.0, 4.0), grid=grid)
    assert res.grid_points is None and points
    assert not set(points) & set(np.linspace(1.0, 4.0, grid).tolist())


@pytest.mark.parametrize("src, i, length", [
    ("exp(x)", 2615, lambda x: 1.0 - x),   # rising: the level set is [x, 1]
    ("exp(1-x)", 562, lambda x: x),        # falling: the level set is [0, x]
])
def test_crossing_on_an_ulp_split_grid_value(src, i, length):
    # At alpha = numpy's value at grid point i, libm's value there is an ulp
    # lower, so a scalar evaluation puts both ends of the crossing cell below
    # alpha.  The refinement keeps the side the grid gives each end.
    f = parse(src)
    levels = sugeno._LevelSets(f, Interval(0.0, 1.0), lebesgue(), DEFAULT_GRID)
    x, alpha = levels.x(i), float(levels.vals[i])
    if not sugeno.evaluate(f, x) < alpha:
        pytest.skip("numpy and libm agree at this grid point on this platform")
    assert abs(levels.measure(alpha) - length(x)) <= 1e-12  # phi is x: F is the length


def test_constant_on_huge_interval():
    # bisection over [0, 1e60] needs about 240 halvings to reach tol; a step
    # cap would stop it early at a bracket far wider than the answer
    res = sugeno_integral(constant(1e-5), Interval(0.0, 1e60))
    assert res.value == pytest.approx(1e-5, abs=1e-12)


@pytest.mark.parametrize("length", [9e307, 1.7e308])
def test_near_overflow_interval_keeps_the_exact_path(length):
    # x on [0, L] integrates to L/2; the midpoints of its brackets near L
    # would overflow as 0.5 * (a + b), since a + b passes the float limit
    res = sugeno_integral(parse("x"), Interval(0.0, length))
    assert res.value == length / 2
    assert res.grid_points is None


@pytest.mark.xfail(strict=True,
                   reason="the bisection stops at an absolute 1e-12, so an integral near or "
                          "below that size is only bracketed by alpha_lo and alpha_hi")
def test_sub_tolerance_integrals_keep_their_digits():
    # x on [0, L] integrates to L/2, and c*x on [0, 1] to c/(1+c); today the
    # first two give 0.0 and the third comes out about 0.9% low
    got = [sugeno_integral(parse("x"), Interval(0.0, 1e-13)).value,
           sugeno_integral(parse("1e-13*x"), Interval(0.0, 1.0)).value,
           sugeno_integral(parse("1e-10*x"), Interval(0.0, 1.0)).value]
    want = [5e-14, 1e-13 / (1 + 1e-13), 1e-10 / (1 + 1e-10)]
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)  # approx's default abs is 1e-12


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 10: residual is |F(alpha_lo) - alpha_lo|, the jump of "
                          "F at a step or its float spacing near the overflow limit, not the "
                          "value's error")
def test_residual_bounds_the_error_of_exact_answers():
    # both values are right to the solver stop, 0.3 and 1.7e8 to an ulp, but
    # F jumps from 1 to 0 at the constant's value (residual 0.70), and near
    # 1.7e308 the level length moves in ulps of x, about 2e292 (residual 2.0e292)
    results = {src: sugeno_integral(parse(src), Interval(a, b))
               for src, a, b in [("0.3", 0.0, 1.0), ("x/1e300", 1e307, 1.7e308)]}
    assert results["0.3"].value == pytest.approx(0.3, abs=1e-12)
    assert results["x/1e300"].value == pytest.approx(1.7e8, rel=1e-15)
    assert all(res.grid_points is None for res in results.values())
    loose = {src: res.residual for src, res in results.items()
             if not res.residual <= 1e-9 * max(1.0, res.value)}
    assert loose == {}


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP items 6 and 11: ulp-level falls in the samples of a "
                          "monotone min(x^2, 2.6) cost it the exact path, so it is counted "
                          "on the grid")
def test_ulp_wiggle_keeps_the_exact_path():
    # min(x^2, 2.6) on [1, 4] has the integral of x^2, (9 - sqrt(17))/2, since
    # that lies below 2.6; counted, it comes out 2.4384356156435842 (1.16e-5 low)
    res = sugeno_integral(parse("((x^2)+(2.6)-abs((x^2)-(2.6)))/2"), Interval(1.0, 4.0))
    assert res.value == pytest.approx(SQUARE_14, rel=1e-10)


# Lattice identities of the Sugeno integral (Marichal, Fuzzy Sets Syst. 114,
# 2000): S(f ∧ c) = S(f) ∧ c, S(f ∨ c) = S(f) ∨ (c ∧ mu(X)), and, for
# comonotone f and g, S(f ∨ g) = S(f) ∨ S(g) and S(f ∧ g) = S(f) ∧ S(g).
# The grammar has no min or max, so ∧ and ∨ are written with abs.
def _meet(f, g):
    return f"(({f})+({g})-abs(({f})-({g})))/2"


def _join(f, g):
    return f"(({f})+({g})+abs(({f})-({g})))/2"


_LATTICE_INTEGRANDS = [("x^5/4", 0.0, 1.0), ("x^2", 1.0, 4.0), ("1/x^4", 1.0, 2.0),
                       ("exp(0-x)", 0.0, 3.0), ("abs(x-0.5)", 0.0, 1.0), ("4*x*(1-x)", 0.0, 1.0)]
_LATTICE_CONSTANTS = [0.1, 0.3, 0.7, 2.0]


# 1/x^4 on [1,2] reads 1.20e-6 low at c = 0.3, and exp(0-x) on [0,3] 1.04e-6 high
_COUNTED_JOINS = {("1/x^4", 0.3), ("exp(0-x)", 0.3)}
_COUNTED_JOIN = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 6: the abs form of the join falls by a few ulps, so it "
                        "is counted on the grid, about 1e-6 off")


def _lattice_value(src, a, b):
    return sugeno_integral(parse(src), Interval(a, b)).value


@pytest.mark.parametrize("c", _LATTICE_CONSTANTS)
@pytest.mark.parametrize("f,a,b", _LATTICE_INTEGRANDS)
def test_meet_with_a_constant(f, a, b, c):
    got = _lattice_value(_meet(f, repr(c)), a, b)
    assert abs(got - min(_lattice_value(f, a, b), c)) <= 1e-12


@pytest.mark.parametrize("f,a,b,c", [
    pytest.param(f, a, b, c, marks=_COUNTED_JOIN) if (f, c) in _COUNTED_JOINS else (f, a, b, c)
    for f, a, b in _LATTICE_INTEGRANDS for c in _LATTICE_CONSTANTS])
def test_join_with_a_constant(f, a, b, c):
    got = _lattice_value(_join(f, repr(c)), a, b)
    assert abs(got - max(_lattice_value(f, a, b), min(c, b - a))) <= 1e-12


@pytest.mark.parametrize("f,g,a,b", [("x^2", "3*x-2", 1.0, 4.0), ("x^5/4", "x/3", 0.0, 1.0),
                                     ("1/x^4", "2/x-1", 1.0, 2.0), ("exp(x)-1", "x^3", 0.0, 2.0)])
def test_comonotone_join_and_meet(f, g, a, b):
    s_f, s_g = _lattice_value(f, a, b), _lattice_value(g, a, b)
    assert abs(_lattice_value(_join(f, g), a, b) - max(s_f, s_g)) <= 1e-12
    assert abs(_lattice_value(_meet(f, g), a, b) - min(s_f, s_g)) <= 1e-12


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
    phi = distortion(parse("x^2"), base)
    report = check_proposition_properties(parse("x^2"), parse("x"), 0.25, base, phi)
    assert report.all_pass, report
