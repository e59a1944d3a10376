"""Bisection solvers used by the integral and bound engines.

``solve_sup_threshold`` brackets sup{alpha : G(alpha) >= alpha} for a
non-increasing G by bisecting on the predicate G(alpha) >= alpha, and returns
the bracket (alpha_lo, alpha_hi).  This is robust to jump discontinuities in
G, where a plain root finder on G(alpha) - alpha would fail.  A step needs
only the side of alpha that G(alpha) lies on, so G may answer it with a bound
on that side, as the integral's level sets do once a bracket of the
crossing's refinement settles the step.  ``solve_sign_change`` is ordinary
bisection for continuous sign changes.  Both are entry points over one
halving loop, ``_halve``, which also refines the integral's level-set
crossings directly, because the grid already gives the sign at each end of
the crossing cell; its h stops that refinement by returning None once the
bracket settles the step.  Nothing in the package calls
``solve_sign_change`` itself.
Neither probes G for monotonicity: the integral's G is non-increasing by
construction, and ``bounds.endpoint_bound``, whose G can rise, tests its own.
Every bisection stops at one absolute width, ``TOL``, or at float resolution.
"""

from __future__ import annotations

import math
from typing import Callable

from .exceptions import BracketError

__all__ = [
    "solve_sup_threshold",
    "solve_sign_change",
]

TOL = 1e-12


def _halve(
    h: Callable[[float], float | None], a: float, b: float, keep_positive: bool
) -> tuple[float, float] | None:
    """Halve [a, b] until it is narrower than ``TOL`` or float resolution is reached.

    A midpoint t replaces ``a`` when (h(t) > 0) == keep_positive and ``b``
    otherwise; an exact h(t) == 0 collapses the bracket to t.  Returns the
    final (a, b), or None as soon as h(t) is None.
    """
    tol = TOL  # a local name keeps the global lookup out of the loop
    while b - a > tol:
        mid = 0.5 * a + 0.5 * b  # a + b can overflow near the float limit
        if mid <= a or mid >= b:
            break  # float resolution reached
        h_mid = h(mid)
        if h_mid is None:
            return None
        if h_mid == 0.0:
            return mid, mid
        if (h_mid > 0.0) == keep_positive:
            a = mid
        else:
            b = mid
    return a, b


def solve_sup_threshold(
    G: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Bracket (alpha_lo, alpha_hi) of sup{alpha in [lo, hi] : G(alpha) >= alpha}, G non-increasing.

    The predicate holds at alpha_lo.  G may answer a step with a bound on the
    same side of alpha as the exact value, equal to alpha only where that
    value is.  Raises :class:`BracketError` if the bracket is not finite or
    the predicate fails already at ``lo``.  If the predicate holds at ``hi``
    the bracket is (hi, hi).  An exact tie G(alpha) == alpha found along the
    way is returned immediately as (alpha, alpha).
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise BracketError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    g_lo = G(lo)
    if g_lo < lo:
        raise BracketError(f"G(lo)={g_lo!r} < lo={lo!r}: predicate fails at the left end")
    if G(hi) >= hi:
        return hi, hi
    return _halve(lambda t: G(t) - t, lo, hi, True)


def solve_sign_change(
    g: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Bisection root of a continuous ``g`` with a sign change on [lo, hi]."""
    if not hi > lo:
        raise BracketError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    g_lo = g(lo)
    if g_lo == 0.0:
        return lo
    g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise BracketError(f"no sign change: g(lo)={g_lo!r}, g(hi)={g_hi!r}")
    a, b = _halve(g, lo, hi, g_lo > 0.0)
    return 0.5 * a + 0.5 * b  # a tie leaves a == b, and 0.5 * t + 0.5 * t == t for a normal t
