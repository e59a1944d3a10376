"""(s,m)-convexity in the second sense, and the power envelopes it induces.

A function f belongs to the class K2(s, m) on an interval when

    f(lam*x + m*(1-lam)*y) <= lam**s * f(x) + m*(1-lam)**s * f(y)

for all x, y in the interval and lam in [0, 1], with s, m in (0, 1].
``check_sm_convex`` tests the inequality on a full (x, y, lam) lattice,
scanned in slabs of a fixed number of points (whole x rows, or blocks of
y columns of one x row when a row does not fit), so that memory stays
under 2 MB at the largest lattice (time still grows as grid^3).
``envelope`` builds, as an expression, the endpoint power envelope that
dominates such a function on [a, b]; its value at x is

    m * 2**(1-s) * f(a) + ((x - m*a)/(b - m*a))**s * (f(b) - m*f(a)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, EvalError
from .expr import BinOp, FunctionExpr, Num, Var, evaluate, evaluate_array
from .measure import Interval

__all__ = [
    "SMParams",
    "ConvexityVerdict",
    "EndpointData",
    "check_sm_convex",
    "envelope",
    "endpoint_data",
]

DEFAULT_LATTICE = 41
MAX_LATTICE = 201
_CONVEXITY_SLACK = 1e-12
_SLAB_POINTS = 1 << 14  # lattice points per slab


@dataclass(frozen=True, slots=True)
class SMParams:
    """Exponent s and scale m of the convexity class, both in (0, 1]."""

    s: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise DomainError(f"s must lie in (0, 1], got {self.s!r}")
        if not (0.0 < self.m <= 1.0):
            raise DomainError(f"m must lie in (0, 1], got {self.m!r}")


@dataclass(frozen=True, slots=True)
class ConvexityVerdict:
    holds_on_grid: bool
    witness: tuple[float, float, float, float] | None  # (x, y, lam, gap), worst gap
    grid: int
    skipped: int = 0  # lattice combinations with a non-evaluable point


@dataclass(frozen=True, slots=True)
class EndpointData:
    """Endpoint values f(a), f(b), g(a), g(b) feeding the bound formulas."""

    fa: float
    fb: float
    ga: float
    gb: float

    def __post_init__(self):
        for name in ("fa", "fb", "ga", "gb"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"endpoint value {name} must be finite")


def endpoint_data(f: FunctionExpr, g: FunctionExpr, base: Interval) -> EndpointData:
    """Evaluate both functions at the interval endpoints."""
    return EndpointData(
        fa=evaluate(f, base.a),
        fb=evaluate(f, base.b),
        ga=evaluate(g, base.a),
        gb=evaluate(g, base.b),
    )


def check_sm_convex(
    f: FunctionExpr,
    base: Interval,
    p: SMParams,
    grid: int = DEFAULT_LATTICE,
) -> ConvexityVerdict:
    """Test the K2(s, m) inequality on a grid^3 lattice over (x, y, lam).

    Combination points can fall outside [a, b] when m < 1; the inequality is
    tested wherever f evaluates, and non-evaluable combinations are skipped
    and counted; if every combination is skipped, EvalError is raised.  The
    witness, when present, is the maximum-gap violation (the first in
    (x, y, lam) order on a tie); a gap beyond the float range (the
    right-hand side overflows to -inf) is reported as sys.float_info.max.

    The lattice is scanned i-major in slabs of at most ``_SLAB_POINTS``
    points: whole x rows when one fits, else blocks of y columns of a single
    x row, all in one buffer.  Memory stays under 2 MB at ``MAX_LATTICE``;
    time still grows as grid^3.  A combination is skipped exactly where its
    gap is NaN: f is undefined at the combination point, at x or at y (the
    right-hand side terms are at most |f(x)| and |f(y)|, so it can overflow
    to +-inf but never to NaN); ``np.argmax`` stops at a slab's first NaN.
    """
    if not 11 <= grid <= MAX_LATTICE:
        raise ValueError(f"grid must be between 11 and {MAX_LATTICE} points per axis, got {grid}")
    xs = np.linspace(base.a, base.b, grid)
    lams = np.linspace(0.0, 1.0, grid)
    f_ends = evaluate_array(f, xs)
    cols = min(grid, max(1, _SLAB_POINTS // grid))  # y columns per slab
    rows = max(1, _SLAB_POINTS // (grid * cols))  # x rows per slab; 1 when a row is split
    buf = np.empty(min(rows, grid) * cols * grid)  # each slab's points, then its gaps
    skipped, worst, worst_at = 0, -math.inf, None
    with np.errstate(all="ignore"):
        # the (x, lam) and (y, lam) terms, grid^2 each and shared by every slab
        lam_x = xs[:, None] * lams
        lam_fx = f_ends[:, None] * lams**p.s
        y_terms = (p.m * (1.0 - lams)) * xs[:, None]
        fy_terms = (p.m * ((1.0 - lams) ** p.s)) * f_ends[:, None]
        for i0 in range(0, grid, rows):
            x_slab = lam_x[i0:i0 + rows, None]
            fx_slab = lam_fx[i0:i0 + rows, None]
            for j0 in range(0, grid, cols):
                y_slab = y_terms[j0:j0 + cols]
                shape = (len(x_slab), len(y_slab), grid)
                points = buf[:math.prod(shape)].reshape(shape)
                np.copyto(points, x_slab)  # a copy, then an in-place add, beats broadcasting x
                lhs = evaluate_array(f, np.add(points, y_slab, out=points))
                np.copyto(points, fx_slab)
                gaps = np.add(points, fy_terms[j0:j0 + cols], out=points)
                np.subtract(lhs, gaps, out=gaps)
                flat = int(np.argmax(gaps))  # the first NaN, if the slab holds a skip
                if math.isnan(gaps.flat[flat]):
                    undefined = np.isnan(gaps)
                    skipped += int(np.count_nonzero(undefined))
                    gaps[undefined] = -np.inf
                    flat = int(np.argmax(gaps))
                if gaps.flat[flat] > worst:  # strict: on a tie the earlier slab keeps the witness
                    worst = float(gaps.flat[flat])
                    i, j, k = np.unravel_index(flat, shape)
                    worst_at = (i0 + i, j0 + j, k)
    if skipped == grid**3:
        raise EvalError(f"f is not evaluable at any of the {skipped} lattice combinations")
    if worst > _CONVEXITY_SLACK:
        i, j, k = worst_at
        witness = (float(xs[i]), float(xs[j]), float(lams[k]), min(worst, sys.float_info.max))
        return ConvexityVerdict(False, witness, grid, skipped)
    return ConvexityVerdict(True, None, grid, skipped)


def envelope(fa: float, fb: float, base: Interval, p: SMParams) -> FunctionExpr:
    """Power envelope through the endpoint data of an (s,m)-convex function."""
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise DomainError("endpoint values must be finite")
    offset = p.m * 2.0 ** (1.0 - p.s) * fa
    left = p.m * base.a
    width = base.b - left
    scale = fb - p.m * fa
    t = BinOp("/", BinOp("-", Var(), Num(left)), Num(width))
    root = BinOp("+", Num(offset), BinOp("*", BinOp("^", t, Num(p.s)), Num(scale)))
    text = f"({offset!r})+(((x-({left!r}))/({width!r}))^({p.s!r}))*({scale!r})"
    return FunctionExpr(root, text)
