"""Bisection solvers.

Reference values come from an independent plain-Python bisection written
here in the test, so solver regressions cannot hide behind themselves.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeno_bounds.bounds import hadamard_bound
from sugeno_bounds.convexity import SMParams
from sugeno_bounds.exceptions import BracketError
from sugeno_bounds.expr import parse
from sugeno_bounds.measure import Interval
from sugeno_bounds.rootfind import solve_sign_change, solve_sup_threshold


def _local_sup_threshold(G, lo, hi, iters=200):
    # independent reference: plain bisection on the predicate G(a) >= a
    a, b = lo, hi
    if G(b) >= b:
        return b
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if G(mid) >= mid:
            a = mid
        else:
            b = mid
    return a


def test_linear_distribution():
    G = lambda a: 1.0 - a
    lo, hi = solve_sup_threshold(G, 0.0, 1.0)
    assert lo <= 0.5 <= hi and hi - lo <= 1e-12
    assert abs(G(lo) - lo) <= 1e-12


def test_quintic_distribution():
    G = lambda a: 1.0 - (4.0 * a) ** 0.2
    lo, hi = solve_sup_threshold(G, 0.0, 1.0)
    ref = _local_sup_threshold(G, 0.0, 1.0)
    assert lo == pytest.approx(ref, abs=1e-9)
    assert lo == pytest.approx(0.12686587, abs=1e-6)
    assert hi - lo <= 1e-12


def test_constant_distribution_jump():
    # G == 0.3 has its sup-threshold exactly at 0.3 (a jump fixed point)
    lo, hi = solve_sup_threshold(lambda a: 0.3, 0.0, 1.0)
    assert lo <= 0.3 <= hi and hi - lo <= 1e-12


def test_step_distribution_jump():
    # F drops from 1 to 0.2 at alpha=0.6; sup{a : F(a) >= a} = 0.6
    G = lambda a: 1.0 if a < 0.6 else 0.2
    lo, hi = solve_sup_threshold(G, 0.0, 1.0)
    assert lo <= 0.6 <= hi and hi - lo <= 1e-12
    # the lower end stays on the satisfied side, the upper end on the other
    assert G(lo) >= lo and G(hi) < hi


def test_whole_bracket_satisfied():
    assert solve_sup_threshold(lambda a: 2.0, 0.0, 1.0) == (1.0, 1.0)


def test_lower_end_violation_raises():
    with pytest.raises(BracketError):
        solve_sup_threshold(lambda a: a - 1.0, 0.0, 1.0)


def test_non_monotone_input_warns():
    # The solver trusts G; the bound engine, whose envelope product rises in
    # the decreasing case with m < 1, tests for that rise after the solve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_sup_threshold(lambda a: 0.2 + 0.6 * a, 0.0, 1.0)
    f = parse("0.01/x^2")  # F rises past its later zero crossing 0.0042 to 0.25
    with pytest.warns(RuntimeWarning, match="non-increasing"):
        hadamard_bound(f, f, Interval(1.0, 2.0), SMParams(1.0, 0.5))


def test_residual_certificate():
    # the predicate holds at the bracket's lower end and fails at its upper end
    G = lambda a: (1.0 - a) ** 2
    lo, hi = solve_sup_threshold(G, 0.0, 1.0)
    assert G(lo) >= lo and G(hi) < hi and hi - lo <= 1e-12
    assert abs(G(lo) - lo) <= 3e-12  # G(a) - a falls with slope about 2.24 here


def test_huge_brackets_solve_to_tol():
    # [0, 1e60] needs about 240 halvings to reach tol=1e-12; there is no step cap
    lo, hi = solve_sup_threshold(lambda a: 1e60 if a <= 1e-5 else 0.0, 0.0, 1e60)
    assert lo == pytest.approx(1e-5, abs=1e-12)
    assert hi - lo <= 1e-12
    root = solve_sign_change(lambda x: x - 1e-5, 0.0, 1e60)
    assert root == pytest.approx(1e-5, abs=1e-12)


def test_sign_change_linear():
    root = solve_sign_change(lambda x: x - 0.25, 0.0, 1.0)
    assert root == pytest.approx(0.25, abs=1e-12)


def test_sign_change_sqrt2():
    root = solve_sign_change(lambda x: x * x - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_sign_change_quintic():
    root = solve_sign_change(lambda x: x**5 / 4.0 - 0.1, 0.0, 1.0)
    assert root == pytest.approx(0.4**0.2, abs=1e-12)


def test_sign_change_endpoint_roots():
    assert solve_sign_change(lambda x: x, 0.0, 1.0) == 0.0
    assert solve_sign_change(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_sign_change_no_bracket_raises():
    with pytest.raises(BracketError):
        solve_sign_change(lambda x: x * x + 1.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=0.95),
       slope=st.floats(min_value=0.1, max_value=5.0))
def test_sup_threshold_linear_family(c, slope):
    # G(a) = c - slope*a crosses the diagonal at c/(1+slope)
    lo, hi = solve_sup_threshold(lambda a: c - slope * a, 0.0, 1.0)
    assert lo == pytest.approx(c / (1.0 + slope), abs=1e-10)
    assert lo <= hi <= lo + 1e-12
