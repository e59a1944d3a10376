"""Sugeno integral engines.

The Sugeno integral over a base interval X is

    sup over alpha >= 0 of min(alpha, F(alpha)),   F(alpha) = mu({x in X : f(x) >= alpha}),

where mu is phi of Lebesgue length, passed as the distortion expression
``phi`` (``measure.lebesgue()`` is ``x``).  F is non-increasing by
construction, so the sup is the threshold where F crosses the diagonal.  It
is computed by bisecting on the predicate F(alpha) >= alpha, and F is not
probed for monotonicity (only the bound engine, whose envelope product can
rise, probes its F).

The integrand is sampled on an x grid, evaluated in fixed-size chunks.  No
x array is kept: a grid point's coordinate is recomputed the way
``np.linspace`` computes it, so an integral holds 8 B per grid point plus
chunk-sized buffers (0.8 MB at the default grid, 80 MB at the cap).  When
the sampled values are monotone, the level-set boundary is refined by
bisection and the level set is an exact interval; otherwise the measure
falls back to grid counting.  A count is non-increasing in alpha, so an
alpha between two counted ones with equal counts takes that count unscanned.
The crossing cell's ends come from the grid, which already puts one on each
side of alpha, so they are not evaluated again: the bisection evaluates only
midpoints, and an EvalError at a midpoint propagates.
The threshold solve needs only whether F(alpha) >= alpha, and the refined
boundary lies inside the crossing cell, so phi of the level lengths at the
cell's two ends bounds F(alpha).  A step where alpha lies outside those
bounds by more than 1e-12 * max(1, alpha) is settled without evaluating f;
only the other steps refine.  The margin is not needed under Lebesgue
measure, where F is the length itself, but a float phi such as x/(1+x) can
fall by a few ulps where it should rise.
Grid points where the integrand is not evaluable are excluded from level
sets and counted; the integral proceeds only while exclusions stay below
0.1% of the grid.  Excluded end points are dropped from the monotone scan and
level sets run on to the base end, so an undefined interval end keeps the
exact path unless the crossing falls in its cell, which is not refined; that
case and an excluded interior point are counted on the grid.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EvalError, NegativeFunctionError
from .expr import FunctionExpr, evaluate, evaluate_array
from .measure import Interval, lebesgue
from .rootfind import SolverConfig, _halve, solve_sup_threshold

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
_REFINE_TOL = 1e-12
_SETTLE_MARGIN = 1e-12  # times max(1, alpha); see the module docstring
_CHUNK_POINTS = 1 << 14  # grid points per evaluate_array call


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
        self.f = f
        self.base = base
        self.phi = phi
        self.grid = grid
        self._step = base.length / (grid - 1)
        self.vals = np.empty(grid)
        for i0 in range(0, grid, _CHUNK_POINTS):  # only vals is grid-sized
            i1 = min(i0 + _CHUNK_POINTS, grid)
            xs = self._scaled(np.arange(i0, i1, dtype=float))
            if i1 == grid:
                xs[-1] = base.b
            self.vals[i0:i1] = evaluate_array(f, xs)
        bad = np.isnan(self.vals)
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
        a_open, b_open = first > 0, stop < grid
        self._open = (a_open, b_open) if increasing else (b_open, a_open)  # (low, high) view end
        self._counted = ([], [])  # alphas counted on the grid, ascending, and their counts

    def x(self, i: int) -> float:
        """Coordinate of grid point ``i``: ``np.linspace(a, b, grid)[i]``."""
        return self.base.b if i == self.grid - 1 else self._scaled(i)

    def _scaled(self, i):
        # linspace's arithmetic for an index or an array of them; when the
        # step underflows to 0, numpy scales by the length instead
        if self._step == 0.0:
            return i / (self.grid - 1) * self.base.length + self.base.a
        return i * self._step + self.base.a

    def level_length(self, alpha: float) -> float:
        """Lebesgue length of {x : f(x) >= alpha} within the base interval."""
        if not self.exact_boundaries:
            return (self._settled_count(alpha) / self.grid) * self.base.length
        return self._refined_length(alpha, *self._cell(alpha))

    def _cell(self, alpha: float) -> tuple[float, float]:
        """x ends (lo, hi) of the grid cell holding the level set's boundary at alpha;
        lo == hi is the boundary itself where no sample crosses alpha."""
        vals, idx = self._view
        if vals[0] >= alpha:
            return self._start, self._start
        if vals[-1] < alpha:
            return self._end, self._end
        i = int(np.searchsorted(vals, alpha, side="left"))  # vals[i - 1] < alpha <= vals[i]
        lo, hi = sorted((self.x(idx[i - 1]), self.x(idx[i])))
        return lo, hi

    def _refined_length(self, alpha: float, lo: float, hi: float) -> float:
        if lo == hi:
            return abs(self._end - lo)
        # the grid puts f(lo) below alpha when f rises and at or above it when f falls
        falling = self._view[1].step < 0
        a, b = _halve(lambda t: evaluate(self.f, t) - alpha, lo, hi, falling, _REFINE_TOL)
        return abs(self._end - 0.5 * (a + b))

    def _settled_count(self, alpha: float) -> int:
        """Grid points with a value >= alpha, taken from the counted neighbours when they agree."""
        alphas, counts = self._counted
        k = bisect.bisect_left(alphas, alpha)
        if 0 < k < len(alphas) and counts[k - 1] == counts[k]:
            return counts[k]  # the count is non-increasing, so it is settled between them
        count = self._count(alpha)
        alphas.insert(k, alpha)
        counts.insert(k, count)
        return count

    def _count(self, alpha: float) -> int:
        return int(np.count_nonzero(self.vals >= alpha))

    def unresolved(self, alpha: float) -> bool:
        """Whether the level set at alpha ends in an excluded end cell, which is not refined."""
        (vals, _), (low_open, high_open) = self._view, self._open
        return (low_open and vals[0] >= alpha) or (high_open and vals[-1] < alpha)

    def measure(self, alpha: float) -> float:
        return evaluate(self.phi, self.level_length(alpha))

    def threshold_step(self, alpha: float) -> float:
        """F(alpha), or phi at an end of the crossing cell where the ends settle F(alpha) >= alpha."""
        if not self.exact_boundaries:
            return self.measure(alpha)
        lo, hi = self._cell(alpha)
        low, high = sorted(evaluate(self.phi, abs(self._end - x)) for x in (lo, hi))
        margin = _SETTLE_MARGIN * max(1.0, abs(alpha))
        if low - margin <= alpha <= high + margin:
            return evaluate(self.phi, self._refined_length(alpha, lo, hi))
        return low  # the refined boundary lies in [lo, hi], so F(alpha) is on low's side of alpha


def sugeno_integral(
    f: FunctionExpr,
    base: Interval,
    phi: FunctionExpr | None = None,
    cfg: SolverConfig | None = None,
    grid: int = DEFAULT_GRID,
) -> IntegralResult:
    """Sugeno integral of a non-negative ``f`` over ``base`` under the distortion ``phi``."""
    phi = lebesgue() if phi is None else phi
    cfg = SolverConfig() if cfg is None else cfg
    levels = _LevelSets(f, base, phi, grid)
    mu_total = evaluate(phi, base.length)
    if mu_total <= 0.0:
        # a null measure leaves no alpha > 0 with F(alpha) >= alpha
        grid_points = None if levels.exact_boundaries else grid
        return IntegralResult(0.0, abs(mu_total), (0.0, 0.0), grid_points)
    lo, hi = solve_sup_threshold(levels.threshold_step, 0.0, mu_total, cfg)
    residual = abs(levels.measure(lo) - lo)
    if levels.exact_boundaries and (levels.unresolved(lo) or levels.unresolved(hi)):
        levels.exact_boundaries = False  # the crossing is in an excluded end cell: count instead
        lo, hi = solve_sup_threshold(levels.threshold_step, 0.0, mu_total, cfg)
        residual = abs(levels.measure(lo) - lo)
    grid_points = None if levels.exact_boundaries else grid
    return IntegralResult(lo, residual, (lo, hi), grid_points)

