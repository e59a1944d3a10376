"""Intervals and the fuzzy measures of their subintervals.

A measure on subsets of [0, inf) is a distortion ``phi(length)`` for a
non-decreasing ``phi`` with ``phi(0) = 0``; Lebesgue measure is the identity
distortion phi(t) = t.  A distortion map is an ordinary expression in ``x``,
where ``x`` stands for the length argument; it is validated on a 1001-point
grid when the measure is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InvalidDistortionError
from .expr import FunctionExpr, Var, evaluate, evaluate_array

__all__ = ["Interval", "MeasureSpec", "lebesgue", "distortion", "measure_of"]

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


@dataclass(frozen=True)
class MeasureSpec:
    phi: FunctionExpr  # validated distortion map


_LEBESGUE = MeasureSpec(FunctionExpr(Var(), "x"))


def lebesgue() -> MeasureSpec:
    """Lebesgue measure, the identity distortion; one immutable spec, shared."""
    return _LEBESGUE


def distortion(phi: FunctionExpr, base: Interval) -> MeasureSpec:
    """Distortion measure ``phi(length)``, validated on [0, length of base]."""
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
    return MeasureSpec(phi)


def measure_of(spec: MeasureSpec, subset: Interval) -> float:
    """Measure of an interval: phi of its length."""
    return evaluate(spec.phi, subset.length)
