"""Bisection solvers used by the integral and bound engines.

``solve_sup_threshold`` computes sup{alpha : G(alpha) >= alpha} for a
non-increasing G by bisecting on the predicate G(alpha) >= alpha.  This is
robust to jump discontinuities in G, where a plain root finder on
G(alpha) - alpha would fail.  ``solve_sign_change`` is ordinary bisection
for continuous sign changes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .exceptions import BracketError

__all__ = [
    "SolverConfig",
    "FixedPointResult",
    "solve_sup_threshold",
    "solve_sign_change",
]

_SPOT_CHECK_POINTS = 8


@dataclass(frozen=True)
class SolverConfig:
    """Bisection stops once the bracket is narrower than ``tol`` or at float resolution."""

    tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True)
class FixedPointResult:
    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def _spot_check_non_increasing(G: Callable[[float], float], lo: float, hi: float) -> None:
    # Cheap sanity probe only; callers are trusted to pass non-increasing G.
    ts = [lo + k * (hi - lo) / (_SPOT_CHECK_POINTS + 1) for k in range(1, _SPOT_CHECK_POINTS + 1)]
    gs = [G(t) for t in ts]
    slack = 1e-9 * (1.0 + max(abs(v) for v in gs))
    for prev, cur in zip(gs, gs[1:]):
        if cur > prev + slack:
            warnings.warn(
                "solve_sup_threshold: G does not look non-increasing on the bracket; "
                "the returned threshold may not be the supremum",
                RuntimeWarning,
                stacklevel=3,
            )
            return


def solve_sup_threshold(
    G: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: SolverConfig = SolverConfig(),
) -> FixedPointResult:
    """sup{alpha in [lo, hi] : G(alpha) >= alpha} for non-increasing G.

    Raises :class:`BracketError` if the bracket is not finite or the
    predicate fails already at ``lo``.  If the predicate holds at ``hi`` the
    supremum is ``hi`` itself.  An exact tie G(alpha) == alpha found along the
    way is returned immediately.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise BracketError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    g_lo = G(lo)
    if g_lo < lo:
        raise BracketError(f"G(lo)={g_lo!r} < lo={lo!r}: predicate fails at the left end")
    _spot_check_non_increasing(G, lo, hi)
    g_hi = G(hi)
    if g_hi >= hi:
        return FixedPointResult(hi, abs(g_hi - hi), 0, (hi, hi))

    a, b = lo, hi
    g_a = g_lo
    iterations = 0
    while b - a > cfg.tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # float resolution reached
        g_mid = G(mid)
        iterations += 1
        if g_mid == mid:
            return FixedPointResult(mid, 0.0, iterations, (mid, mid))
        if g_mid >= mid:
            a, g_a = mid, g_mid
        else:
            b = mid
    return FixedPointResult(a, abs(g_a - a), iterations, (a, b))


def solve_sign_change(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: SolverConfig = SolverConfig(),
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

    lo_positive = g_lo > 0.0
    a, b = lo, hi
    while b - a > cfg.tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == lo_positive:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
