"""Intervals and the fuzzy measures of their subintervals.

A measure on subsets of [0, inf) is a distortion ``phi(length)`` for a
non-decreasing ``phi`` with ``phi(0) = 0``, and it is passed around as that
``phi``: an ordinary expression in ``x``, where ``x`` stands for the length
argument.  ``lebesgue()`` is the identity ``x``; ``distortion`` validates a
``phi`` on a 1001-point grid over the base interval's lengths and returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InvalidDistortionError
from .expr import FunctionExpr, Var, evaluate_array

__all__ = ["Interval", "lebesgue", "distortion"]

_PHI_GRID = 1001
_PHI_SLACK = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] on the non-negative half-line, a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("interval endpoints must be finite")
        if not self.a < self.b:
            raise DomainError(f"need a < b, got [{self.a!r}, {self.b!r}]")
        if self.a < 0.0:
            raise DomainError("intervals live on the non-negative half-line")

    @property
    def length(self) -> float:
        return self.b - self.a


_LEBESGUE = FunctionExpr(Var())


def lebesgue() -> FunctionExpr:
    """Lebesgue measure, the identity distortion ``x``; one expression, shared."""
    return _LEBESGUE


def distortion(phi: FunctionExpr, base: Interval) -> FunctionExpr:
    """Distortion measure ``phi(length)``: ``phi`` once it is validated on [0, length of base]."""
    ts = np.linspace(0.0, base.length, _PHI_GRID)
    vals = evaluate_array(phi, ts)
    finite = np.isfinite(vals)
    if not np.all(finite):
        t_bad = float(ts[int(np.flatnonzero(~finite)[0])])
        raise InvalidDistortionError(f"distortion map is not evaluable at length {t_bad!r}")
    if abs(float(vals[0])) > _PHI_SLACK:
        raise InvalidDistortionError(f"distortion map must vanish at 0, got {float(vals[0])!r}")
    steps = np.diff(vals)
    bad = np.flatnonzero(steps < -_PHI_SLACK)
    if bad.size:
        i = int(bad[0])
        raise InvalidDistortionError(
            f"distortion map decreases between lengths {float(ts[i])!r} and {float(ts[i + 1])!r}"
        )
    return phi
