"""Grid membership checks, endpoint envelopes, and the reference power-sum gap."""

import copy
import math
import pickle
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import check_envelope_dominates, check_sm_convex_whole, power_sum_gap
from sugeno_bounds import convexity, expr, shape
from sugeno_bounds.convexity import (
    DEFAULT_LATTICE,
    MAX_LATTICE,
    ConvexityVerdict,
    EndpointData,
    SMParams,
    check_sm_convex,
    endpoint_data,
    envelope,
)
from sugeno_bounds.exceptions import DomainError, EvalError
from sugeno_bounds.expr import BinOp, Call, FunctionExpr, Num, Var, evaluate, evaluate_array, parse
from sugeno_bounds.measure import Interval
from test_expr import Neg, _trees
from test_sugeno import _load_bench_gen


def test_params_validation():
    SMParams(1.0, 1.0)
    SMParams(0.001, 0.5)
    for s, m in [(0.0, 1.0), (1.1, 1.0), (1.0, 0.0), (1.0, 1.5), (-0.2, 0.3)]:
        with pytest.raises(DomainError):
            SMParams(s, m)


@pytest.mark.parametrize("value", [
    SMParams(0.5, 0.75),
    ConvexityVerdict(False, (0.0, 0.4, 0.4, 0.3117362800537964), 11, 244),
    ConvexityVerdict(True, None, 101),
    ConvexityVerdict(True, None, 41, 0, proven=True),
    EndpointData(fa=1.0, fb=8.0, ga=1.0, gb=2.0),
], ids=lambda value: type(value).__name__)
def test_result_classes_are_slotted_and_round_trip(value):
    # slotted like the other result classes: no per-instance __dict__
    assert not hasattr(value, "__dict__")
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and repr(copied) == repr(value) and hash(copied) == hash(value)


# ---------------------------------------------------------------------------
# power-sum gap: 2^(1-s) - x^s - (1-x)^s


def test_gap_nonnegative_on_grid():
    xs = np.linspace(0.0, 1.0, 1001)
    for s in np.arange(1, 101) / 100.0:
        for x in xs:
            assert power_sum_gap(float(x), float(s)) >= -1e-12


def test_gap_zero_at_midpoint_s_half_and_one():
    # equality cases: x=1/2 for any s, and s=1 at every x
    for s in (0.25, 0.5, 0.75, 1.0):
        assert power_sum_gap(0.5, s) == pytest.approx(0.0, abs=1e-15)
    for x in (0.0, 0.3, 0.9, 1.0):
        assert power_sum_gap(x, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_gap_corner_value():
    # x=0, s=1/2: 2^(1/2) - 0 - 1
    assert power_sum_gap(0.0, 0.5) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)


def test_gap_domain_errors():
    with pytest.raises(DomainError):
        power_sum_gap(-0.1, 0.5)
    with pytest.raises(DomainError):
        power_sum_gap(1.1, 0.5)
    with pytest.raises(DomainError):
        power_sum_gap(0.5, 0.0)
    with pytest.raises(DomainError):
        power_sum_gap(0.5, 1.2)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0),
       s=st.floats(min_value=1e-6, max_value=1.0))
def test_gap_nonnegative_property(x, s):
    assert power_sum_gap(x, s) >= -1e-12


# ---------------------------------------------------------------------------
# membership checks


@pytest.mark.parametrize("text,interval,s,m", [
    ("x^2/2", (0.0, 1.0), 1.0 / 3.0, 1.0),
    ("x^3/2", (0.0, 1.0), 1.0 / 3.0, 1.0),
    ("x^(3/2)", (1.0, 4.0), 1.0, 1.0),
    ("1/x^2", (1.0, 2.0), 1.0, 1.0),
    ("x^2", (0.0, 1.0), 1.0, 1.0),
    ("x", (0.0, 1.0), 1.0, 1.0),
    ("0", (0.0, 1.0), 0.4, 0.7),
    ("exp(x)", (0.0, 1.0), 1.0, 1.0),
])
def test_membership_holds(text, interval, s, m):
    verdict = check_sm_convex(parse(text), Interval(*interval), SMParams(s, m))
    assert verdict.holds_on_grid, verdict
    assert verdict.witness is None


def test_membership_holds_on_coarse_grid():
    verdict = check_sm_convex(parse("x^3/2"), Interval(0.0, 1.0),
                              SMParams(1.0 / 3.0, 1.0), grid=21)
    assert verdict.holds_on_grid
    assert verdict.grid == 21


@pytest.mark.parametrize("text,interval", [("1000*x^2", (1.0, 4.0)), ("1e6*x^2", (0.0, 1.0))])
def test_membership_is_invariant_under_positive_scaling(text, interval):
    # x^2 is (1,1)-convex and the class is closed under f -> c*f for c > 0; the
    # lattice's absolute 1e-12 slack would refute these by rounding alone (gaps
    # 5.46e-12 at x = 3.325 and 3.49e-10 at x = 0.95, where x = y makes the
    # inequality an identity), but the tree proves them
    verdict = check_sm_convex(parse(text), Interval(*interval), SMParams(1.0, 1.0))
    assert verdict.holds_on_grid and verdict.proven, verdict


@pytest.mark.parametrize("text,interval,s,m", [
    ("x^2/2", (0.0, 1.0), 1.0 / 3.0, 1.0),
    ("x^3/2", (0.0, 1.0), 1.0 / 3.0, 1.0),
    ("x^(3/2)", (1.0, 4.0), 1.0, 1.0),
    ("1/x^2", (1.0, 2.0), 1.0, 1.0),
    ("1/pow(x,2)", (1.0, 2.0), 0.5, 1.0),
    ("2/(3-x)+abs(x-1.5)", (1.0, 2.0), 0.5, 1.0),
    ("(0.7)*exp((-0.4)*x)", (1.0, 3.0), 0.6, 1.0),
    ("(1.5)*x^(2.1)", (1.0, 3.0), 0.5, 0.7),
    ("0", (0.0, 1.0), 0.4, 0.7),
])
def test_convex_members_are_proven(text, interval, s, m):
    # a convex f >= 0 is in K2(s, 1), and also in K2(s, m) when it is convex on
    # [0, b] with f(0) <= 0; the four C9 memberships come first
    verdict = check_sm_convex(parse(text), Interval(*interval), SMParams(s, m))
    assert verdict == ConvexityVerdict(True, None, DEFAULT_LATTICE, 0, proven=True)


_NEVER_PROVEN = [
    ("1/2-abs(x-1/2)", (0.0, 1.0), 1.0, 1.0),  # the tent: concave
    ("x^(1/2)", (1.0, 4.0), 1.0, 1.0),  # concave
    ("(1.3)*x^(0.9995)", (1.0, 3.0), 1.0, 1.0),  # a near-linear concave power (convexity_case kind 3)
    ("(1.2)*(x-(0.9))^(1.5)", (1.0, 2.5), 0.8, 0.7),  # a shifted power at m < 1 (kind 2), undefined at 0
    ("(1.2)*x^(0.8)", (1.0, 2.5), 0.8, 0.7),  # c*x^p with p < 1
    ("(0.7)*exp((0.4)*x)", (1.0, 3.0), 0.6, 0.9),  # exp at m < 1: f(0) > 0
    ("x^2-1", (0.0, 2.0), 1.0, 1.0),  # convex but negative near 0
    ("x^2-1", (0.0, 2.0), 0.5, 0.5),
    ("x*x", (0.0, 1.0), 1.0, 1.0),  # no rule for a product of two terms in x
    ("x/(x+1)", (1.0, 3.0), 1.0, 1.0),  # nor for a quotient; this one is concave
    ("0-ln(x)", (0.0, 0.5), 1.0, 1.0),  # unbounded at 0
    ("1.7e308*(1-2*x)", (0.0, 1.0), 0.5, 1.0),
]


@pytest.mark.parametrize("text,interval,s,m", _NEVER_PROVEN)
def test_non_members_and_doubtful_inputs_are_not_proven(text, interval, s, m):
    f, base, p = parse(text), Interval(*interval), SMParams(s, m)
    assert not convexity._proven_member(f, base, p)
    assert check_sm_convex(f, base, p) == convexity._scan_lattice(f, base, p, DEFAULT_LATTICE)


@pytest.mark.parametrize("form", ["1/({})^1", "1/pow({},1)"])
def test_shape_walk_is_linear_in_a_reciprocal_power_nest(form, monkeypatch):
    # c/u^q reads u once: a nest 45 levels deep is walked once per node, where
    # walking u both as u^q and as u alone would take about 2^45 walks
    text = "x"
    for _ in range(45):
        text = form.format(text)
    calls, walk = [0], shape._walk

    def counted(node, lo, hi):
        calls[0] += 1
        assert calls[0] <= 4 * 45 + 1, "the walk revisits subtrees"
        return walk(node, lo, hi)
    monkeypatch.setattr(shape, "_walk", counted)
    start = time.perf_counter()
    got = shape.shape_of(parse(text).root, 1.0, 2.0)
    assert time.perf_counter() - start < 1.0
    assert got is not None and got.slope == -1 and got.lo <= 0.5 and got.hi >= 1.0, got


def _shaped_trees(depth):
    # every node kind that the shape rules read, with constants that keep the
    # values small enough for rounding not to swamp an absolute 1e-12
    if depth == 0:
        return _trees(0)
    sub = _shaped_trees(depth - 1)
    return st.one_of(
        _trees(0),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), sub, sub),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(["exp", "sqrt", "ln", "abs"]), sub),
        st.builds(lambda a: BinOp("-", a, Num(2.0)), sub),
        sub.map(Neg),
    )


def _tree_inputs():
    def case(tree, a, width, s, m):
        return FunctionExpr(tree), Interval(a, a + width), SMParams(s, m)
    return st.builds(case, st.one_of(_trees(4), _shaped_trees(3)), st.floats(0.0, 3.0),
                     st.floats(0.5, 3.0), st.floats(0.05, 1.0), st.sampled_from([1.0, 0.5, 0.9]))


def _bench_inputs():
    gen = _load_bench_gen()

    def draw(seed, i):
        fn, a, b, s, m = gen.convexity_case(random.Random(seed), i)
        return parse(fn.text), Interval(a, b), SMParams(s, m)
    return st.builds(draw, st.integers(0, 2**32 - 1), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(_tree_inputs(), _bench_inputs()))
@example(case=(parse("(1.5)*x^(2.1)"), Interval(1.0, 3.0), SMParams(0.5, 0.7)))
@example(case=(parse("1e6*x^2"), Interval(0.0, 1.0), SMParams(1.0, 1.0)))
def test_proven_members_hold_on_the_lattice(case):
    # the proof is sound: wherever it claims membership, the lattice skips
    # nothing and finds no gap beyond rounding at f's scale
    f, base, p = case
    if not convexity._proven_member(f, base, p):
        return
    verdict = convexity._scan_lattice(f, base, p, 41)
    assert verdict.skipped == 0
    worst = 0.0 if verdict.holds_on_grid else verdict.witness[3]
    scale = np.max(np.abs(evaluate_array(f, np.linspace(base.a, base.b, 41))))
    assert worst <= 1e-12 * max(1.0, scale), verdict


def test_tent_violation_witness():
    verdict = check_sm_convex(parse("1/2-abs(x-1/2)"), Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert not verdict.holds_on_grid
    x, y, lam, gap = verdict.witness
    assert gap == pytest.approx(0.5, abs=1e-9)
    assert {x, y} == {0.0, 1.0}
    assert lam == pytest.approx(0.5, abs=1e-9)


def test_sqrt_is_not_convex():
    # sqrt is concave: midpoint of (1,4) gives sqrt(2.5) > 1.5
    verdict = check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert not verdict.holds_on_grid
    assert verdict.witness is not None
    expected_gap = math.sqrt(2.5) - 1.5
    assert verdict.witness[3] >= expected_gap - 1e-9


def test_finer_grid_does_not_hide_violations():
    f = parse("x^(1/2)")
    base, p = Interval(1.0, 4.0), SMParams(1.0, 1.0)
    gaps = [check_sm_convex(f, base, p, grid=g).witness[3] for g in (11, 41, 161)]
    assert gaps[0] <= gaps[1] + 1e-12 and gaps[1] <= gaps[2] + 1e-12


def test_check_skips_unevaluable_points():
    # ln is undefined at 0 but the combination grid only loses a few points
    verdict = check_sm_convex(parse("0-ln(x)"), Interval(0.0, 0.5), SMParams(1.0, 1.0))
    assert verdict.holds_on_grid
    assert verdict.skipped > 0


def test_grid_validation(no_grid_alloc):
    # both bounds are checked before the lattice is allocated
    for grid in (5, MAX_LATTICE + 1):
        with pytest.raises(ValueError):
            check_sm_convex(parse("x"), Interval(0.0, 1.0), SMParams(1.0, 1.0), grid=grid)


@pytest.mark.parametrize("text", ["1e400", "sqrt(x-5)"])
def test_nowhere_evaluable_lattice_raises(text):
    # every combination is skipped, so a "holds" verdict would be vacuous
    with pytest.raises(EvalError):
        check_sm_convex(parse(text), Interval(0.0, 1.0), SMParams(1.0, 1.0), grid=11)


def _verdict_or_error(check, f, base, p, grid):
    try:
        return check(f, base, p, grid)
    except EvalError as exc:
        return f"EvalError: {exc}"


# Slab layouts: at the default budget of 1 << 14 points, grid 11 is one slab,
# 40 and 41 are several slabs of whole x rows, 101 is one x row per slab and
# 182 splits each x row into blocks of y columns.  A budget of 1000 points
# splits the x rows from grid 32 on; a budget of 64 splits them at grid 11
# and makes each slab a single (x, y) lambda line from grid 64 on.  The
# sqrt(x - c) term is undefined left of c, so with m < 1 some combinations
# are skipped; ln(abs(x - 0.5)) is undefined at the lattice point 0.5 itself,
# so f(x) and f(y) cause skips too.  Adding 0*ln(abs(x - 0.5)) to the
# overflowing line puts skipped (NaN) gaps and a gap of +inf in one slab, so
# the argmax that finds a slab's first NaN must not stop at the infinity.
# 1/(x-2.5)^2 and ln(abs(x-2.5)) on [0, 10] are finite at every lattice x but
# +inf and -inf at the combination point 2.5 (x = 2, y = 3, lam = 0.5), so
# only the gap shows those skips.  The constant 2 and a bare x are the two
# inputs whose compiled form returns a float or its own argument.
@settings(max_examples=40, deadline=None)
@given(tree=_trees(4),
       a=st.floats(min_value=0.0, max_value=3.0),
       width=st.floats(min_value=0.5, max_value=3.0),
       cut=st.floats(min_value=-0.5, max_value=0.5),
       s=st.floats(min_value=0.05, max_value=1.0),
       m=st.floats(min_value=0.05, max_value=0.95),
       grid=st.sampled_from([11, 40, 41, 101, 182]),
       slab_points=st.sampled_from([convexity._SLAB_POINTS, 1000, 64]))
@example(tree=parse("1/2-abs(x-1/2)").root, a=0.0, width=1.0, cut=None, s=1.0, m=1.0,
         grid=41, slab_points=convexity._SLAB_POINTS)  # tied witnesses at x = 0 and x = 1
@example(tree=parse("x").root, a=0.0, width=1.0, cut=5.0, s=1.0, m=0.5, grid=11,
         slab_points=1000)  # every combination skipped
@example(tree=parse("1.7e308*(1-2*x)").root, a=0.0, width=1.0, cut=None, s=0.5, m=1.0,
         grid=41, slab_points=convexity._SLAB_POINTS)  # gap beyond the float range
@example(tree=parse("ln(abs(x-0.5))").root, a=0.0, width=1.0, cut=None, s=1.0, m=1.0,
         grid=11, slab_points=64)  # f(x) and f(y) undefined at x = 0.5
@example(tree=parse("ln(abs(x-0.5))").root, a=0.0, width=1.0, cut=None, s=0.5, m=0.7,
         grid=41, slab_points=64)
@example(tree=parse("1.7e308*(1-2*x)+0*ln(abs(x-0.5))").root, a=0.0, width=1.0, cut=None,
         s=0.5, m=1.0, grid=11, slab_points=convexity._SLAB_POINTS)  # skips next to +inf
@example(tree=parse("1.7e308*(1-2*x)+0*ln(abs(x-0.5))").root, a=0.0, width=1.0, cut=None,
         s=0.5, m=1.0, grid=11, slab_points=64)
@example(tree=parse("1/(x-2.5)^2").root, a=0.0, width=10.0, cut=None, s=1.0, m=1.0, grid=11,
         slab_points=convexity._SLAB_POINTS)  # f(2.5) = +inf, f(2) and f(3) finite
@example(tree=parse("1/(x-2.5)^2").root, a=0.0, width=10.0, cut=None, s=1.0, m=1.0, grid=11,
         slab_points=64)
@example(tree=parse("ln(abs(x-2.5))").root, a=0.0, width=10.0, cut=None, s=1.0, m=1.0, grid=11,
         slab_points=convexity._SLAB_POINTS)  # f(2.5) = -inf
@example(tree=parse("ln(abs(x-2.5))").root, a=0.0, width=10.0, cut=None, s=1.0, m=1.0, grid=11,
         slab_points=64)
@example(tree=parse("2").root, a=0.0, width=1.0, cut=None, s=0.5, m=0.7, grid=11,
         slab_points=convexity._SLAB_POINTS)  # the compiled form returns a float
@example(tree=parse("2").root, a=0.0, width=1.0, cut=None, s=0.5, m=0.7, grid=11,
         slab_points=64)
@example(tree=parse("x").root, a=0.0, width=1.0, cut=None, s=0.5, m=0.7, grid=11,
         slab_points=convexity._SLAB_POINTS)  # the compiled form returns its argument
@example(tree=parse("x").root, a=0.0, width=1.0, cut=None, s=0.5, m=0.7, grid=11,
         slab_points=64)
def test_slabs_match_whole_lattice(tree, a, width, cut, s, m, grid, slab_points):
    # the slab scan keeps every gap bit-identical, the skipped count and the
    # first-maximum witness of the whole-lattice argmax
    if cut is not None:
        tree = BinOp("+", tree, Call("sqrt", (BinOp("-", Var(), Num(a + cut * width)),)))
    f, base, p = FunctionExpr(tree), Interval(a, a + width), SMParams(s, m)
    want = _verdict_or_error(check_sm_convex_whole, f, base, p, grid)
    with mock.patch.object(convexity, "_SLAB_POINTS", slab_points):
        got = _verdict_or_error(convexity._scan_lattice, f, base, p, grid)
    assert got == want


@pytest.mark.parametrize("slab_points", [convexity._SLAB_POINTS, 64])
def test_undefined_lattice_point_verdict(slab_points):
    # x = 0.5 is a lattice point where ln(abs(x - 0.5)) is undefined
    f, base, p = parse("ln(abs(x-0.5))"), Interval(0.0, 1.0), SMParams(1.0, 1.0)
    with mock.patch.object(convexity, "_SLAB_POINTS", slab_points):
        verdict = check_sm_convex(f, base, p, grid=11)
    assert verdict == ConvexityVerdict(False, (0.0, 0.4, 0.4, 0.3117362800537964), 11, 244)


# (x - c)^p is undefined left of c.  In the bench lattice from seed 1 most
# combination points lie left of c, so most slabs hold many negative bases;
# in the (x-0.9)^0.5 lattice only a few do.  At a budget of 1000 points each
# x row is split into blocks.
@pytest.mark.parametrize("slab_points", [convexity._SLAB_POINTS, 1000])
@pytest.mark.parametrize("text,a,b,s,m,want", [
    ("(1.6893863961460491)*(x-(1.9235381465984458))^(1.6794884338813354)", 2.038577218969886,
     2.8084634189931306, 0.8664910347500139, 0.5201358128810378,
     ConvexityVerdict(True, None, 41, 40470)),
    ("(x-0.9)^0.5", 1.0, 2.0, 1.0, 0.8,
     ConvexityVerdict(False, (1.0, 2.0, 0.625, 0.05780270433799972), 41, 1061)),
])
def test_skip_heavy_lattice_matches_whole(text, a, b, s, m, want, slab_points):
    f, base, p = parse(text), Interval(a, b), SMParams(s, m)
    assert check_sm_convex_whole(f, base, p, 41) == want
    with mock.patch.object(convexity, "_SLAB_POINTS", slab_points):
        assert check_sm_convex(f, base, p, 41) == want


def test_slab_size_is_bounded():
    # evaluate_array gets only the xs; each call of the compiled array form
    # gets one slab, and the slabs cover the lattice once
    ends, sizes = [], []

    def ends_spy(f, xs):
        ends.append(np.size(xs))
        return evaluate_array(f, xs)

    def compile_spy(node, ops):
        f_array = expr._compile(node, ops)

        def slab_spy(xs):
            sizes.append(np.size(xs))
            return f_array(xs)
        return slab_spy

    with mock.patch.object(convexity, "evaluate_array", ends_spy), \
            mock.patch.object(convexity, "_compile", compile_spy):
        check_sm_convex(parse("x^(1/2)"), Interval(1.0, 4.0), SMParams(0.5, 0.7),
                        grid=MAX_LATTICE)
    assert ends == [MAX_LATTICE]
    assert max(sizes) <= max(convexity._SLAB_POINTS, MAX_LATTICE)
    assert sum(sizes) == MAX_LATTICE**3


def test_lattice_compiles_the_integrand_once():
    # one array form for the xs (inside evaluate_array) and one for every
    # slab, not one per slab (201 x rows of 3 column blocks each)
    f, compile_, compiled = parse("x^(1/2)"), expr._compile, []

    def spy(node, ops):
        if node is f.root:
            compiled.append(ops)
        return compile_(node, ops)

    with mock.patch.object(expr, "_compile", spy), mock.patch.object(convexity, "_compile", spy):
        check_sm_convex(f, Interval(1.0, 4.0), SMParams(0.5, 0.7), grid=MAX_LATTICE)
    assert compiled == [expr._ARRAY, expr._ARRAY]


def test_lattice_memory_is_bounded():
    f, base, p = parse("x^(1/2)"), Interval(1.0, 4.0), SMParams(0.5, 0.7)
    tracemalloc.start()
    try:
        verdict = check_sm_convex(f, base, p, grid=MAX_LATTICE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.proven  # the lattice was scanned
    assert peak < 4 * 2**20, peak


# ---------------------------------------------------------------------------
# endpoint data and envelopes


def test_endpoint_data_from_expressions():
    e = endpoint_data(parse("x^2"), parse("2*x"), Interval(1.0, 4.0))
    assert (e.fa, e.fb, e.ga, e.gb) == (1.0, 16.0, 2.0, 8.0)


def test_endpoint_data_rejects_nonfinite():
    with pytest.raises(DomainError):
        EndpointData(1.0, float("nan"), 1.0, 2.0)


def test_envelope_is_chord_when_s_m_one():
    base = Interval(1.0, 4.0)
    env = envelope(1.0, 8.0, base, SMParams(1.0, 1.0))
    for x in np.linspace(1.0, 4.0, 101):
        chord = 1.0 + (x - 1.0) / 3.0 * 7.0
        assert evaluate(env, float(x)) == pytest.approx(chord, abs=1e-12)
    # 1 -> 3 on [0,1] is the line 1 + 2x
    env2 = envelope(1.0, 3.0, Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert evaluate(env2, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_envelope_offset_at_scaled_left_end():
    # at x = m*a the envelope equals m * 2^(1-s) * f(a)
    env = envelope(1.0, 2.0, Interval(0.0, 1.0), SMParams(0.5, 1.0))
    assert evaluate(env, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert evaluate(env, 1.0) == pytest.approx(math.sqrt(2.0) + 1.0, abs=1e-15)
    env2 = envelope(1.0, 3.0, Interval(0.0, 1.0), SMParams(0.5, 1.0))
    assert evaluate(env2, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_envelope_matches_closed_form():
    # the tree performs the module docstring's formula operation for operation
    fa, fb, a, b, s, m = 1.0, 8.0, 1.0, 4.0, 0.4, 0.9
    env = envelope(fa, fb, Interval(a, b), SMParams(s, m))
    for x in np.linspace(a, b, 57):
        want = m * 2.0 ** (1.0 - s) * fa + ((x - m * a) / (b - m * a)) ** s * (fb - m * fa)
        assert evaluate(env, float(x)) == want
    with pytest.raises(DomainError):
        envelope(1.0, math.inf, Interval(a, b), SMParams(s, m))


def test_envelope_vectorized_matches_scalar():
    env = envelope(0.0, 0.25, Interval(0.0, 1.0), SMParams(1.0 / 3.0, 1.0))
    xs = np.linspace(0.0, 1.0, 33)
    vec = evaluate_array(env, xs)
    for x, v in zip(xs, vec):
        assert evaluate(env, float(x)) == pytest.approx(float(v), rel=1e-14, abs=1e-300)


def test_envelope_dominates_quintic():
    # x^5/4 on [0,1] sits below its (1/3,1)-envelope x^(1/3)/4
    check = check_envelope_dominates(parse("x^5/4"), 0.0, 0.25,
                                     Interval(0.0, 1.0), SMParams(1.0 / 3.0, 1.0))
    assert check.holds
    assert check.witness is None


def test_envelope_dominates_convex_chord():
    check = check_envelope_dominates(parse("x^2"), 1.0, 16.0,
                                     Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert check.holds
    check2 = check_envelope_dominates(parse("x^2"), 0.0, 1.0,
                                      Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert check2.holds
    check3 = check_envelope_dominates(parse("x^(3/2)"), 1.0, 8.0,
                                      Interval(1.0, 4.0), SMParams(1.0, 1.0))
    assert check3.holds


def test_envelope_dominance_fails_for_tent():
    # tent pokes above its zero chord
    check = check_envelope_dominates(parse("1/2-abs(x-1/2)"), 0.0, 0.0,
                                     Interval(0.0, 1.0), SMParams(1.0, 1.0))
    assert not check.holds
    x, fx, px = check.witness
    assert fx > px


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=0.05, max_value=1.0),
       m=st.floats(min_value=0.05, max_value=1.0),
       fa=st.floats(min_value=0.0, max_value=3.0),
       fb=st.floats(min_value=0.0, max_value=3.0))
def test_envelope_monotone_when_scale_positive(s, m, fa, fb):
    base = Interval(1.0, 2.0)
    env = envelope(fa, fb, base, SMParams(s, m))
    lo, hi = evaluate(env, 1.0), evaluate(env, 2.0)
    if fb - m * fa >= 0.0:
        assert lo <= hi + 1e-12
    else:
        assert lo >= hi - 1e-12
