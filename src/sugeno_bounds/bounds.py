"""Endpoint-case bounds for Sugeno integrals of products of (s,m)-convex functions.

On [a, b], the product f*g of two non-negative (s,m)-convex functions is
dominated by the product of their endpoint power envelopes, so the integral
of f*g is at most min(beta, b - a), where beta solves F(beta) = beta for the
envelope-product distribution F.  The closed form of F depends on how f(b)
compares with m*f(a) (and likewise for g):

* increasing case  (both above):  each factor is w * (1 - Q**(1/s)),
* decreasing case  (both below):  each factor is w * Q**(1/s) + (m*a - a),
* degenerate case  (both equal):  beta = m**2 * 2**(2-2s) * f(a) * g(a),

with w = b - m*a and Q = (beta - m * 2**(1-s) * f(a)) / (f(b) - m*f(a)),
clamped to [0, 1].  The factor lengths are kept exactly as these closed
forms give them, even where they stray outside [0, b - a] (m < 1).  Mixed
endpoint configurations have no supported bound, and neither do negative
endpoint values or a threshold that overflows.

The bound is the paper's, and it is not valid in general: for f = g = 2x on
[0, 1] with s = m = 1 the integral of f*g is (9 - sqrt(17))/8 = 0.6096 and
beta is 4 - 2*sqrt(3) = 0.5359.

``solve_sup_threshold`` trusts its G to be non-increasing.  The envelope
product F is non-increasing in all but one case.  No factor length grows with
beta.  An increasing-case length w * (1 - Q**(1/s)) is never negative,
and neither is a decreasing-case length w * Q**(1/s) + shift when
shift = m*a - a is 0 (m = 1 or a = 0).  With shift < 0, a decreasing-case
length turns negative past its zero crossing
z = m * 2**(1-s) * f(a) + (f(b) - m*f(a)) * (-shift/w)**s.  Between the two
crossings F is negative, below every threshold, so no rise there can change
the answer; beyond the later one both lengths are negative and falling, so F
rises from 0, up to F(hi) at the solve's upper end hi = max(w**2, b - a).
When F(hi) < z, every beta past z has F(beta) <= F(hi) < z <= beta, and the
rise never reaches the diagonal F(beta) = beta.  So ``endpoint_bound`` warns
exactly when z < hi and F(hi) >= z.  The integral engine's F is a distribution
function and needs no such test.

``verify_hadamard`` computes the integral of f*g, the bound, and the
endpoint (Kirmaci-type) comparison value, and reports the measured margin;
it never asserts the inequality, it measures it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .convexity import EndpointData, SMParams, endpoint_data, envelope_terms
from .exceptions import DomainError, NegativeFunctionError, UnsupportedCaseError
from .expr import FunctionExpr, product
from .measure import Interval, lebesgue
from .rootfind import solve_sup_threshold
from .sugeno import DEFAULT_GRID, NEG_SLACK, IntegralResult, sugeno_integral

__all__ = [
    "CaseTag",
    "BetaResult",
    "VerificationReport",
    "classify_case",
    "kirmaci_bound",
    "envelope_distribution",
    "endpoint_bound",
    "hadamard_bound",
    "verify_hadamard",
]

CASE_TIE_TOL = 1e-9
HOLDS_TOL = 1e-6


class CaseTag(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    DEGENERATE = "degenerate"
    MIXED = "mixed"


_CASES = {(0, 0): CaseTag.DEGENERATE, (1, 1): CaseTag.INCREASING, (-1, -1): CaseTag.DECREASING}


@dataclass(frozen=True, slots=True)
class BetaResult:
    beta: float
    residual: float
    bound: float  # min(beta, b - a)
    case: CaseTag


def _trend(end: float, start: float) -> int:
    """1 when ``end`` exceeds ``start``, -1 when it falls short, and 0 on a tie: a
    difference within CASE_TIE_TOL of the larger of |end| and |start|."""
    tol = CASE_TIE_TOL * max(abs(end), abs(start))
    return (end - start > tol) - (end - start < -tol)


def classify_case(e: EndpointData, p: SMParams) -> CaseTag:
    """Compare f(b) with m*f(a) and g(b) with m*g(a), each factor on its own scale."""
    trends = (_trend(e.fb, p.m * e.fa), _trend(e.gb, p.m * e.ga))
    return _CASES.get(trends, CaseTag.MIXED)


def kirmaci_bound(e: EndpointData, s: float) -> float:
    """Endpoint comparison value M/(s+2) + N/((s+1)(s+2)).

    M pairs same-end products, N pairs opposite ends; symmetric in f and g.
    """
    if not s > 0.0:
        raise DomainError(f"s must be positive, got {s!r}")
    m_term = e.fa * e.ga + e.fb * e.gb
    n_term = e.fa * e.gb + e.fb * e.ga
    return m_term / (s + 2.0) + n_term / ((s + 1.0) * (s + 2.0))


def envelope_distribution(
    e: EndpointData,
    base: Interval,
    p: SMParams,
) -> Callable[[float], float]:
    """Envelope-product distribution F(beta) for the increasing or decreasing case."""
    tag = classify_case(e, p)
    if tag not in (CaseTag.INCREASING, CaseTag.DECREASING):
        raise UnsupportedCaseError(
            f"no envelope distribution for {tag.value} endpoints: "
            f"f(b)-m*f(a)={e.fb - p.m * e.fa!r}, g(b)-m*g(a)={e.gb - p.m * e.ga!r}"
        )
    increasing = tag is CaseTag.INCREASING
    w = base.b - p.m * base.a
    shift = p.m * base.a - base.a  # non-positive; zero when m = 1
    inv_s = 1.0 / p.s
    factor_f, factor_g = envelope_terms(e.fa, e.fb, p), envelope_terms(e.ga, e.gb, p)

    def factor_length(beta: float, edge: float, d: float) -> float:
        q = min(max((beta - edge) / d, 0.0), 1.0) ** inv_s
        return w * (1.0 - q) if increasing else w * q + shift

    def F(beta: float) -> float:
        return factor_length(beta, *factor_f) * factor_length(beta, *factor_g)

    return F


def _rise_start(e: EndpointData, base: Interval, p: SMParams) -> float:
    """Where the decreasing case's F starts to rise from 0: the later of the two zero
    crossings m*2**(1-s)*f(a) + (f(b) - m*f(a)) * (-shift/w)**s of the factor
    lengths w*Q**(1/s) + shift, with shift = m*a - a; inf when shift is 0."""
    shift = p.m * base.a - base.a
    if shift == 0.0:
        return math.inf
    r = (-shift / (base.b - p.m * base.a)) ** p.s
    terms = envelope_terms(e.fa, e.fb, p), envelope_terms(e.ga, e.gb, p)
    return max(offset + scale * r for offset, scale in terms)


def endpoint_bound(
    e: EndpointData,
    base: Interval,
    p: SMParams,
) -> BetaResult:
    """Bound threshold from endpoint data; mixed endpoints raise UnsupportedCaseError.

    The degenerate case is closed-form; the increasing and decreasing cases
    solve F(beta) = beta for the envelope-product distribution.  A negative
    endpoint value raises NegativeFunctionError, a closed-form threshold that
    overflows DomainError, and a solve bracket that overflows BracketError.
    """
    for x, value in ((base.a, e.fa), (base.b, e.fb), (base.a, e.ga), (base.b, e.gb)):
        if value < -NEG_SLACK:
            raise NegativeFunctionError(x, value)
    tag = classify_case(e, p)
    if tag is CaseTag.DEGENERATE:
        # endpoint values within NEG_SLACK below zero would give a negative beta
        beta = max((p.m * p.m) * 2.0 ** (2.0 - 2.0 * p.s) * (e.fa * e.ga), 0.0)
        if not math.isfinite(beta):
            raise DomainError(f"the degenerate-case threshold overflows: {beta!r}")
        return BetaResult(beta, 0.0, min(beta, base.length), tag)
    F = envelope_distribution(e, base, p)
    w = base.b - p.m * base.a
    hi = max(w * w, base.length)
    beta, _ = solve_sup_threshold(F, 0.0, hi)
    residual = abs(F(beta) - beta)
    if tag is CaseTag.DECREASING and (z := _rise_start(e, base, p)) < hi and F(hi) >= z:
        warnings.warn("endpoint_bound: the envelope distribution does not look non-increasing; "
                      "the returned threshold may not be the supremum", RuntimeWarning, stacklevel=2)
    return BetaResult(beta, residual, min(beta, base.length), tag)


def hadamard_bound(
    f: FunctionExpr,
    g: FunctionExpr,
    base: Interval,
    p: SMParams,
) -> BetaResult:
    """Bound threshold for f*g from the endpoint values of f and g."""
    return endpoint_bound(endpoint_data(f, g, base), base, p)


@dataclass(frozen=True, slots=True)
class VerificationReport:
    integral: IntegralResult
    hadamard: BetaResult
    kirmaci: float
    holds: bool   # margin >= -1e-6
    margin: float  # bound - integral


def verify_hadamard(
    f: FunctionExpr,
    g: FunctionExpr,
    base: Interval,
    p: SMParams,
    grid: int = DEFAULT_GRID,
) -> VerificationReport:
    """Integrate f*g, compute the endpoint bounds, and report the measured margin."""
    integral = sugeno_integral(product(f, g), base, lebesgue(), grid)
    e = endpoint_data(f, g, base)
    bound = endpoint_bound(e, base, p)
    kir = kirmaci_bound(e, p.s)
    margin = bound.bound - integral.value
    return VerificationReport(integral, bound, kir, margin >= -HOLDS_TOL, margin)
