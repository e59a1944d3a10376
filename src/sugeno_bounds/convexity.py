"""(s,m)-convexity in the second sense, and the power envelopes it induces.

A function f belongs to the class K2(s, m) on an interval when

    f(lam*x + m*(1-lam)*y) <= lam**s * f(x) + m*(1-lam)**s * f(y)

for all x, y in the interval and lam in [0, 1], with s, m in (0, 1].
``check_sm_convex`` tests the inequality on a full (x, y, lam) lattice.
``envelope`` builds the endpoint power envelope that dominates such a
function on [a, b]; its value at x is

    m * 2**(1-s) * f(a) + ((x - m*a)/(b - m*a))**s * (f(b) - m*f(a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, EvalError
from .expr import FunctionExpr, evaluate, evaluate_array, parse
from .measure import Interval

__all__ = [
    "SMParams",
    "ConvexityVerdict",
    "EndpointData",
    "EnvelopeFunction",
    "check_sm_convex",
    "power_sum_gap",
    "envelope",
    "endpoint_data",
]

DEFAULT_LATTICE = 41
MAX_LATTICE = 201
_CONVEXITY_SLACK = 1e-12


@dataclass(frozen=True)
class SMParams:
    """Exponent s and scale m of the convexity class, both in (0, 1]."""

    s: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise DomainError(f"s must lie in (0, 1], got {self.s!r}")
        if not (0.0 < self.m <= 1.0):
            raise DomainError(f"m must lie in (0, 1], got {self.m!r}")


@dataclass(frozen=True)
class ConvexityVerdict:
    holds_on_grid: bool
    witness: tuple[float, float, float, float] | None  # (x, y, lam, gap), worst gap
    grid: int
    skipped: int = 0  # lattice combinations with a non-evaluable point


@dataclass(frozen=True)
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
    slack: float = _CONVEXITY_SLACK,
) -> ConvexityVerdict:
    """Test the K2(s, m) inequality on a grid^3 lattice over (x, y, lam).

    Combination points can fall outside [a, b] when m < 1; the inequality is
    tested wherever f evaluates, and non-evaluable combinations are skipped
    and counted; if every combination is skipped, EvalError is raised.  The
    witness, when present, is the maximum-gap violation.
    """
    if not 11 <= grid <= MAX_LATTICE:
        raise ValueError(f"grid must be between 11 and {MAX_LATTICE} points per axis, got {grid}")
    xs = np.linspace(base.a, base.b, grid)
    lams = np.linspace(0.0, 1.0, grid)
    f_ends = evaluate_array(f, xs)

    X = xs[:, None, None]
    Y = xs[None, :, None]
    L = lams[None, None, :]
    points = L * X + p.m * (1.0 - L) * Y
    lhs = evaluate_array(f, points.ravel()).reshape(points.shape)
    with np.errstate(all="ignore"):
        rhs = (L**p.s) * f_ends[:, None, None] + p.m * ((1.0 - L) ** p.s) * f_ends[None, :, None]

    valid = (
        np.isfinite(lhs)
        & np.isfinite(f_ends)[:, None, None]
        & np.isfinite(f_ends)[None, :, None]
    )
    skipped = int(lhs.size - np.count_nonzero(valid))
    if skipped == lhs.size:
        raise EvalError(f"f is not evaluable at any of the {skipped} lattice combinations")
    gaps = np.where(valid, lhs - rhs, -np.inf)
    flat = int(np.argmax(gaps))
    worst = float(gaps.flat[flat])
    if worst > slack:
        i, j, k = np.unravel_index(flat, gaps.shape)
        witness = (float(xs[i]), float(xs[j]), float(lams[k]), worst)
        return ConvexityVerdict(False, witness, grid, skipped)
    return ConvexityVerdict(True, None, grid, skipped)


def power_sum_gap(x: float, s: float) -> float:
    """Gap of the bound x**s + (1-x)**s <= 2**(1-s) on [0, 1]; non-negative."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    return 2.0 ** (1.0 - s) - x**s - (1.0 - x) ** s


@dataclass(frozen=True)
class EnvelopeFunction:
    """Endpoint power envelope on [a, b]; calling it outside raises DomainError."""

    fa: float
    fb: float
    base: Interval
    params: SMParams

    @property
    def offset(self) -> float:
        return self.params.m * 2.0 ** (1.0 - self.params.s) * self.fa

    @property
    def scale(self) -> float:
        return self.fb - self.params.m * self.fa

    @property
    def width(self) -> float:
        return self.base.b - self.params.m * self.base.a

    def value_at(self, x: float) -> float:
        t = (x - self.params.m * self.base.a) / self.width
        return self.offset + t**self.params.s * self.scale

    def __call__(self, x: float) -> float:
        if not self.base.contains(x):
            raise DomainError(f"x={x!r} outside [{self.base.a!r}, {self.base.b!r}]")
        return self.value_at(x)

    def values(self, xs) -> np.ndarray:
        t = (np.asarray(xs, dtype=float) - self.params.m * self.base.a) / self.width
        with np.errstate(all="ignore"):
            return self.offset + np.power(t, self.params.s) * self.scale

    def as_expr(self) -> FunctionExpr:
        """The same envelope as a parsed expression (handy for integrating it)."""
        text = (
            f"({self.offset!r})+((((x)-({self.params.m * self.base.a!r}))"
            f"/({self.width!r}))^({self.params.s!r}))*({self.scale!r})"
        )
        return parse(text)


def envelope(fa: float, fb: float, base: Interval, p: SMParams) -> EnvelopeFunction:
    """Power envelope through the endpoint data of an (s,m)-convex function."""
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise DomainError("endpoint values must be finite")
    return EnvelopeFunction(fa, fb, base, p)
