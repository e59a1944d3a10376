"""Sugeno integral engines.

The Sugeno integral over a base interval X is

    sup over alpha >= 0 of min(alpha, F(alpha)),   F(alpha) = mu({x in X : f(x) >= alpha}),

and F is non-increasing, so the sup is the threshold where F crosses the
diagonal.  It is computed by bisecting on the predicate F(alpha) >= alpha.

The integrand is sampled on an x grid.  When the sampled values are
monotone, the level-set boundary is refined by bisection and the level set
is an exact interval; otherwise the measure falls back to grid counting.
The grid and the bisection use the two forms of one expression walk, with
one rule for where the integrand is defined, so a boundary cell's ends are
evaluable; an EvalError inside the bisection propagates.
Grid points where the integrand is not evaluable are excluded from level
sets and counted; the integral proceeds only while exclusions stay below
0.1% of the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EvalError, NegativeFunctionError
from .expr import FunctionExpr, evaluate, evaluate_array
from .measure import Interval, MeasureSpec, lebesgue, measure_of
from .rootfind import SolverConfig, solve_sign_change, solve_sup_threshold

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
_REFINE_CFG = SolverConfig(tol=1e-12)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    method: str  # always "fixed_point"
    residual: float
    alpha_bracket: tuple[float, float]
    grid_points: int | None = None


class _LevelSets:
    """Shared grid state answering level-set measure queries for one integrand."""

    def __init__(
        self,
        f: FunctionExpr,
        base: Interval,
        spec: MeasureSpec,
        grid: int,
        require_nonnegative: bool = False,
    ):
        if not _MIN_GRID <= grid <= MAX_GRID:
            raise ValueError(f"grid must be between {_MIN_GRID} and {MAX_GRID} points, got {grid}")
        self.f = f
        self.base = base
        self.spec = spec
        self.grid = grid
        self.xs = np.linspace(base.a, base.b, grid)
        self.vals = evaluate_array(f, self.xs)
        bad = np.isnan(self.vals)
        self.n_excluded = int(np.count_nonzero(bad))
        if self.n_excluded >= MAX_EXCLUDED_FRACTION * grid:
            raise EvalError(
                f"integrand is not evaluable at {self.n_excluded} of {grid} grid points"
            )
        if self.n_excluded:
            warnings.warn(
                f"excluded {self.n_excluded} non-evaluable grid point(s) from level sets",
                RuntimeWarning,
                stacklevel=3,
            )
        if require_nonnegative:
            i_min = int(np.nanargmin(self.vals))
            v_min = float(self.vals[i_min])
            if v_min < -NEG_SLACK:
                raise NegativeFunctionError(float(self.xs[i_min]), v_min)
        finite_vals = self.vals[~bad]
        diffs = np.diff(finite_vals)
        rising = bool(np.any(diffs > 0.0))
        falling = bool(np.any(diffs < 0.0))
        self.increasing = not falling  # non-decreasing; constants count
        self.decreasing = not rising
        self.exact_boundaries = (self.increasing or self.decreasing) and self.n_excluded == 0

    def level_length(self, alpha: float) -> float:
        """Lebesgue length of {x : f(x) >= alpha} within the base interval."""
        if not self.exact_boundaries:
            count = int(np.count_nonzero(self.vals >= alpha))
            return (count / self.grid) * self.base.length
        # Non-decreasing view of the samples: the level set is a right tail of it.
        vals, xs = (self.vals, self.xs) if self.increasing else (self.vals[::-1], self.xs[::-1])
        if vals[0] >= alpha:
            return self.base.length
        if vals[-1] < alpha:
            return 0.0
        i = int(np.searchsorted(vals, alpha, side="left"))
        x_star = self._refine(*sorted((float(xs[i - 1]), float(xs[i]))), alpha)
        return abs(float(xs[-1]) - x_star)  # the level set runs from x_star to xs[-1]

    def _refine(self, lo: float, hi: float, alpha: float) -> float:
        # One grid cell brackets the boundary.  libm and numpy can differ by
        # an ulp in exp and pow, so both ends may fall on one side of alpha.
        def g(t: float) -> float:
            return evaluate(self.f, t) - alpha
        g_lo, g_hi = g(lo), g(hi)
        if g_lo == 0.0:
            return lo
        if g_hi == 0.0:
            return hi
        if (g_lo > 0.0) == (g_hi > 0.0):
            return lo if abs(g_lo) <= abs(g_hi) else hi
        return solve_sign_change(g, lo, hi, _REFINE_CFG)

    def measure(self, alpha: float) -> float:
        return evaluate(self.spec.phi, self.level_length(alpha))


def sugeno_integral(
    f: FunctionExpr,
    base: Interval,
    spec: MeasureSpec | None = None,
    cfg: SolverConfig | None = None,
    grid: int = DEFAULT_GRID,
) -> IntegralResult:
    """Sugeno integral of a non-negative ``f`` over ``base`` by fixed point."""
    spec = lebesgue() if spec is None else spec
    cfg = SolverConfig() if cfg is None else cfg
    levels = _LevelSets(f, base, spec, grid, require_nonnegative=True)
    mu_total = measure_of(spec, base)
    grid_points = None if levels.exact_boundaries else grid
    if mu_total <= 0.0:
        # a null measure leaves no alpha > 0 with F(alpha) >= alpha
        return IntegralResult(0.0, "fixed_point", abs(mu_total), (0.0, 0.0), grid_points)
    res = solve_sup_threshold(levels.measure, 0.0, mu_total, cfg)
    return IntegralResult(res.value, "fixed_point", res.residual, res.bracket, grid_points)

