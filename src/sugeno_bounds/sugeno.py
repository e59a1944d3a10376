"""Sugeno integral engines.

The Sugeno integral over a base interval X is

    sup over alpha >= 0 of min(alpha, F(alpha)),   F(alpha) = mu({x in X : f(x) >= alpha}),

where mu is phi of Lebesgue length, passed as the distortion expression
``phi`` (``measure.lebesgue()`` is ``x``).  F is non-increasing by
construction, so the sup is the threshold where F crosses the diagonal.  It
is computed by bisecting on the predicate F(alpha) >= alpha, and F is not
probed for monotonicity (only the bound engine, whose envelope product can
rise, tests its F for a rise).

The integrand is sampled on an x grid, evaluated in fixed-size chunks.  Its
array form is compiled once per grid, and each chunk's coordinates are
written into one reused buffer the way ``np.linspace`` computes them; a
grid point's coordinate is recomputed the same way later, so no x array is
kept.  An integral holds 8 B per grid point plus chunk-sized buffers (0.8 MB
at the default grid, 80 MB at the cap).  Values that are not finite become
NaN in one pass over the grid, as ``evaluate_array`` gives them.  When
the sampled values are monotone, the level-set boundary is refined by
bisection and the level set is an exact interval; otherwise the measure
falls back to grid counting.  A count is non-increasing in alpha, so where
the counts of the nearest alphas counted on the whole grid, alpha_L < alpha <
alpha_R, differ by at most grid // 32, only the samples in [alpha_L,
alpha_R) can lie on either side of alpha: they are extracted once, sorted
and kept with count(alpha_R) (equal counts keep none), and the count at any
alpha in [alpha_L, alpha_R] is count(alpha_R) plus the kept samples >=
alpha, found by binary search.  The bisection's later brackets, and the
residual at alpha_lo, lie inside the kept one, so it makes no further pass
over the grid.  The counts are exact, and a NaN sample falls in no subset,
so this gives what counting the whole grid gives; other alphas count the
whole grid.
The crossing cell's ends come from the grid, which already puts one on each
side of alpha (an excluded base end counts as the far side), so they are not
evaluated again: the bisection evaluates only midpoints, and an EvalError at
a midpoint propagates.
The threshold solve needs only whether F(alpha) >= alpha, and the refined
boundary lies inside every bracket of the refinement, from the crossing cell
down, so phi of the level lengths at a bracket's two ends bounds F(alpha).
Before each halving, a step where alpha lies outside those bounds by more
than 1e-12 * max(1, alpha) is settled and answers with the lower bound; phi
is evaluated only at the end that just moved, and a step the cell's ends
settle evaluates no f.  The margin is not needed under Lebesgue measure,
where F is the length itself, but a float phi such as x/(1+x) can fall by a
few ulps where it should rise.  The fully refined midpoint lies in every
bracket, so each step decides as full refinement would, and the bracket and
value are unchanged.  Only a step that no bracket settles refines to full
depth.
The alpha steps of one integral share a crossing cell and walk it from the
top, so f(t) and phi(|end - t|) are kept by ``functools.cache`` for the
length of the call and each point is evaluated once; the residual at
alpha_lo re-walks its cell on kept values.  evaluate is pure, and f is kept
only at midpoints, which lie above a >= 0 and so are never a signed zero, so
a kept value is what evaluating again gives; an EvalError keeps nothing.
Grid points where the integrand is not evaluable are excluded from level
sets and counted; the integral proceeds only while exclusions stay below
0.1% of the grid.  Excluded end points are dropped from the monotone scan and
level sets run on to the base end, so an undefined interval end keeps the
exact path: where no sample lies on one side of alpha, the crossing cell runs
from the base end to the nearest sample, and it is refined at its midpoints
like any other.  Only an excluded interior point sends an integral to the
grid count, and the path is chosen once, when the grid is built:
``sugeno_integral`` hands the threshold solve that path's step, the settling
``threshold_step`` on the exact path and ``measure`` on the counted one, so
``threshold_step`` serves only the exact path.
"""

from __future__ import annotations

import bisect
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EvalError, NegativeFunctionError
from .expr import _ARRAY, FunctionExpr, _compile, evaluate
from .measure import Interval, lebesgue
from .rootfind import _halve, solve_sup_threshold

__all__ = [
    "DEFAULT_GRID",
    "IntegralResult",
    "sugeno_integral",
]

DEFAULT_GRID = 100001
MAX_GRID = 10**7
MAX_EXCLUDED_FRACTION = 0.001
NEG_SLACK = 1e-12  # how far below zero a non-negative function's values may dip
_MIN_GRID = 101
_SETTLE_MARGIN = 1e-12  # times max(1, alpha); see the module docstring
_CHUNK_POINTS = 1 << 14  # grid points per evaluation of the integrand's array form
_NARROW_SHARE = 32  # a bracket of at most grid // 32 samples is sorted, kept and counted alone


@dataclass(frozen=True, slots=True)
class IntegralResult:
    value: float
    residual: float
    alpha_bracket: tuple[float, float]
    grid_points: int | None = None


class _LevelSets:
    """Shared grid state answering level-set measure queries for one integrand."""

    def __init__(self, f: FunctionExpr, base: Interval, phi: FunctionExpr, grid: int):
        if not _MIN_GRID <= grid <= MAX_GRID:
            raise ValueError(f"grid must be between {_MIN_GRID} and {MAX_GRID} points, got {grid}")
        self.base = base
        self.phi = phi
        self.grid = grid
        self._step = base.length / (grid - 1)
        self.vals = np.empty(grid)
        f_array = _compile(f.root, _ARRAY)  # once per build; not kept
        index = np.arange(min(grid, _CHUNK_POINTS), dtype=float)
        buffer = np.empty_like(index)  # only vals is grid-sized
        with np.errstate(all="ignore"):
            for i0 in range(0, grid, _CHUNK_POINTS):
                n = min(_CHUNK_POINTS, grid - i0)
                xs = self._scaled(np.add(index[:n], i0, out=buffer[:n]))
                if i0 + n == grid:
                    xs[-1] = base.b
                self.vals[i0:i0 + n] = f_array(xs)
            bad = ~np.isfinite(self.vals)
        self.vals[bad] = np.nan  # as evaluate_array gives an undefined point
        self.n_excluded = int(np.count_nonzero(bad))
        if self.n_excluded >= MAX_EXCLUDED_FRACTION * grid:
            raise EvalError(f"integrand is not evaluable at {self.n_excluded} of {grid} grid points")
        first, stop = 0, grid  # the grid once excluded end points are dropped
        if self.n_excluded:
            warnings.warn(f"excluded {self.n_excluded} non-evaluable grid point(s) from level sets",
                          RuntimeWarning, stacklevel=3)
            first, stop = int(np.argmin(bad)), grid - int(np.argmin(bad[::-1]))
        v_min = float(np.nanmin(self.vals))
        if v_min < -NEG_SLACK:
            raise NegativeFunctionError(self.x(int(np.nanargmin(self.vals))), v_min)
        vals = self.vals[first:stop]
        # Neighbour comparisons on views make no float copy; next to an
        # excluded interior point (NaN) they are False.
        increasing = not np.any(vals[1:] < vals[:-1])  # non-decreasing; constants count
        monotone = increasing or not np.any(vals[1:] > vals[:-1])
        self.exact_boundaries = monotone and self.n_excluded == grid - (stop - first)
        # Non-decreasing view of the scan, with the grid index of each value:
        # a level set is a right tail of it and runs on to the base end (b
        # when rising, a when falling).
        idx = range(first, stop)
        self._view = (vals, idx) if increasing else (vals[::-1], idx[::-1])
        self._start, self._end = (base.a, base.b) if increasing else (base.b, base.a)
        # a crossing cell's f(lo) is below alpha when f rises, at or above it when f falls
        self.falling = not increasing
        self._counted = ([], [])  # alphas counted on the grid, ascending, and their counts
        self._kept = (np.inf, -np.inf, None, 0)  # (lo, hi, sorted samples in [lo, hi), count(hi))
        # f(t) and phi(|end - t|), evaluated once per point; the closures hold
        # no self, so reference counting frees the grid once the call returns
        end = self._end
        self._f_of = functools.cache(lambda t: evaluate(f, t))
        self._phi_of = functools.cache(lambda t: evaluate(phi, abs(end - t)))

    def x(self, i: int) -> float:
        """Coordinate of grid point ``i``: ``np.linspace(a, b, grid)[i]``."""
        return self.base.b if i == self.grid - 1 else self._scaled(i)

    def _scaled(self, i):
        # linspace's arithmetic for an index, or in place on an array of
        # them; when the step underflows to 0, numpy scales by the length instead
        if self._step == 0.0:
            i /= self.grid - 1
            i *= self.base.length
        else:
            i *= self._step
        i += self.base.a
        return i

    def _cell(self, alpha: float) -> tuple[float, float]:
        """x ends (lo, hi) of the grid cell holding the level set's boundary at alpha;
        a base end stands in for the sample missing on one side of alpha, and lo == hi
        is that end, the boundary itself, when it is not excluded."""
        vals, idx = self._view
        i = int(vals.searchsorted(alpha, side="left"))  # vals[i - 1] < alpha <= vals[i]
        lo = self.x(idx[i - 1]) if i else self._start
        hi = self.x(idx[i]) if i < len(vals) else self._end
        return (lo, hi) if lo <= hi else (hi, lo)

    def _refined_length(self, alpha: float, lo: float, hi: float, h=None) -> float | None:
        """Level length at alpha, its boundary refined in the cell [lo, hi] by halving on
        ``h`` (f - alpha unless given); None where ``h`` stops the halving."""
        if lo == hi:
            return abs(self._end - lo)
        bracket = _halve(h or (lambda t: self._f_of(t) - alpha), lo, hi, self.falling)
        return None if bracket is None else abs(self._end - (0.5 * bracket[0] + 0.5 * bracket[1]))

    def _settled_count(self, alpha: float) -> int:
        """Grid points with a value >= alpha; the kept bracket answers, or counted
        neighbours narrow it, and any other alpha counts the whole grid."""
        lo, hi, samples, count_hi = self._kept
        if not lo <= alpha <= hi:
            alphas, counts = self._counted
            k = bisect.bisect_left(alphas, alpha)
            if 0 < k < len(alphas) and counts[k - 1] - counts[k] <= self.grid // _NARROW_SHARE:
                # only the samples in [lo, hi) can lie on either side of alpha: keep them sorted
                lo, hi, count_hi = alphas[k - 1], alphas[k], counts[k]
                samples = np.sort(self.vals[(self.vals >= lo) & (self.vals < hi)])
                self._kept = (lo, hi, samples, count_hi)
            else:
                count = self._count(alpha)
                alphas.insert(k, alpha)
                counts.insert(k, count)
                return count
        return count_hi + len(samples) - int(np.searchsorted(samples, alpha, "left"))

    def _count(self, alpha: float) -> int:
        return int(np.count_nonzero(self.vals >= alpha))

    def measure(self, alpha: float) -> float:
        """F(alpha): phi of the Lebesgue length of {x : f(x) >= alpha} within the base interval."""
        length = (self._refined_length(alpha, *self._cell(alpha)) if self.exact_boundaries
                  else (self._settled_count(alpha) / self.grid) * self.base.length)
        return evaluate(self.phi, length)

    def threshold_step(self, alpha: float) -> float:
        """F(alpha) on the exact path, or the lower of phi at a crossing bracket's ends, from
        the first bracket of the refinement that settles F(alpha) >= alpha (see the module
        docstring)."""
        f_of, phi_of, falling = self._f_of, self._phi_of, self.falling
        margin = _SETTLE_MARGIN * max(1.0, abs(alpha))
        lo, hi = self._cell(alpha)
        if lo == hi:
            return phi_of(lo)  # the boundary is a base end: this is F(alpha)
        ends = [phi_of(lo), phi_of(hi)]  # phi at the bracket's a, b

        def h(t):
            pa, pb = ends  # the boundary is in the bracket, so F(alpha) is between them (to rounding)
            if not (pa - margin <= alpha <= pb + margin if pa <= pb
                    else pb - margin <= alpha <= pa + margin):
                return None  # settled: stop the halving
            h_t = f_of(t) - alpha
            ends[(h_t > 0.0) != falling] = phi_of(t)  # t replaces a or b, as in _halve
            return h_t

        length = self._refined_length(alpha, lo, hi, h)
        return min(ends) if length is None else evaluate(self.phi, length)


def sugeno_integral(
    f: FunctionExpr,
    base: Interval,
    phi: FunctionExpr | None = None,
    grid: int = DEFAULT_GRID,
) -> IntegralResult:
    """Sugeno integral of a non-negative ``f`` over ``base`` under the distortion ``phi``."""
    phi = lebesgue() if phi is None else phi
    levels = _LevelSets(f, base, phi, grid)
    grid_points = None if levels.exact_boundaries else grid
    mu_total = evaluate(phi, base.length)
    if mu_total <= 0.0:
        # a null measure leaves no alpha > 0 with F(alpha) >= alpha
        return IntegralResult(0.0, abs(mu_total), (0.0, 0.0), grid_points)
    step = levels.threshold_step if levels.exact_boundaries else levels.measure
    lo, hi = solve_sup_threshold(step, 0.0, mu_total)
    residual = abs(levels.measure(lo) - lo)
    return IntegralResult(lo, residual, (lo, hi), grid_points)

