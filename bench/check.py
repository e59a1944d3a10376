"""Reference checks for benchmark outputs, independent of the library's engines.

* Integrals are checked with the threshold certificate
  ``F(v - eps) >= v - eps`` and ``F(v + eps) <= v + eps``.  F is the level-set
  measure computed here from the numpy twin of the integrand: sign changes
  on a sample grid are refined by bisection, so each level-set component
  found is exact.  The library's result may deviate from the true integral
  by its own resolution: about 1e-9 per boundary on the exact path, and
  (components + 2) grid cells of length on the grid-count path.  The
  certificate widens F by that much in length, so it holds for every correct
  answer and fails for an answer outside that band.
* Bound thresholds are checked with the same certificate on the
  envelope-product distribution of ``gen.envelope_distribution``.
* Convexity verdicts are recomputed on the same lattice, one lambda slice at
  a time so the check never holds the grid^3 arrays the checker allocates.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Fn, beta_bracket_hi, envelope_distribution

REF_GRID = 20001
EXACT_LEN_TOL = 1e-9
CERT_EPS = 1e-9
WORKED_TOL = 1e-9
CONVEXITY_SLACK = 1e-12
GAP_TOL = 1e-9


def level_set(fn: Fn, a: float, b: float, alpha: float, n: int = REF_GRID):
    """Length of {x in [a, b] : f(x) >= alpha}, its component count, and a miss bound.

    Crossings between samples are bisected to float resolution.  A component
    that falls entirely between two samples can only sit next to a sampled
    local maximum, so the third value, one sample spacing per interior
    sampled extremum, bounds the length such components can hide.
    """
    xs = np.linspace(a, b, n)
    ys = fn(xs)
    inside = ys >= alpha
    cut = np.flatnonzero(inside[:-1] != inside[1:])
    lo, hi = xs[cut].copy(), xs[cut + 1].copy()
    lo_in = inside[cut]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mid_in = fn(mid) >= alpha
        same = mid_in == lo_in
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    cross = 0.5 * (lo + hi)
    starts = np.concatenate(([a] if inside[0] else [], cross[~lo_in]))
    ends = np.concatenate((cross[lo_in], [b] if inside[-1] else []))
    steps = np.sign(np.diff(ys))
    steps = steps[steps != 0]
    extrema = int(np.count_nonzero(steps[:-1] != steps[1:]))
    miss = extrema * (b - a) / (n - 1)
    return float(np.sum(ends - starts)), len(starts), miss


def integral_ok(result, fn: Fn, a: float, b: float, phi=None) -> bool:
    """Threshold certificate for a Sugeno integral ``result`` of ``fn`` over [a, b]."""
    phi = (lambda t: t) if phi is None else phi
    length = b - a
    mu = float(phi(length))
    v = float(result.value)
    if not (math.isfinite(v) and 0.0 <= v <= mu * (1.0 + 1e-12)):
        return False
    grid_points = getattr(result, "grid_points", 0)
    eps = CERT_EPS * max(1.0, mu)

    def slack(components: int, miss: float) -> float:
        if grid_points is None:
            return EXACT_LEN_TOL * max(1.0, length) * max(1, components) + miss
        return (components + 2) * length / (grid_points - 1) + miss

    if v - eps > 0.0:
        got, comps, miss = level_set(fn, a, b, v - eps)
        if not float(phi(min(length, got + slack(comps, miss)))) >= v - eps:
            return False
    if v + eps < mu:
        got, comps, miss = level_set(fn, a, b, v + eps)
        if not float(phi(max(0.0, got - slack(comps, miss)))) <= v + eps:
            return False
    return True


def close(got: float, want: float, tol: float = WORKED_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def beta_ok(result, pair) -> bool:
    """Certificate for the bound threshold, plus the case tag and the clamp to b - a."""
    fa, fb = pair.f.at(pair.a), pair.f.at(pair.b)
    ga, gb = pair.g.at(pair.a), pair.g.at(pair.b)
    F = envelope_distribution(fa, fb, ga, gb, pair.a, pair.b, pair.s, pair.m, pair.increasing)
    hi = beta_bracket_hi(pair)
    beta = float(result.beta)
    eps = CERT_EPS * max(1.0, hi)
    ok = 0.0 <= beta <= hi
    ok = ok and (beta - eps <= 0.0 or F(beta - eps) >= beta - eps)
    ok = ok and (beta + eps >= hi or F(beta + eps) <= beta + eps)
    ok = ok and result.bound == min(beta, pair.b - pair.a)
    want_case = "increasing" if pair.increasing else "decreasing"
    return ok and result.case.value == want_case


def kirmaci(fa, fb, ga, gb, s) -> float:
    m_term = fa * ga + fb * gb
    n_term = fa * gb + fb * ga
    return m_term / (s + 2.0) + n_term / ((s + 1.0) * (s + 2.0))


def verify_ok(report, pair) -> bool:
    """A verify report: its integral, its bound, the comparison value and the margin."""
    fa, fb = pair.f.at(pair.a), pair.f.at(pair.b)
    ga, gb = pair.g.at(pair.a), pair.g.at(pair.b)
    margin = report.hadamard.bound - report.integral.value
    return (
        integral_ok(report.integral, pair.product, pair.a, pair.b)
        and beta_ok(report.hadamard, pair)
        and close(report.kirmaci, kirmaci(fa, fb, ga, gb, pair.s), 1e-12)
        and report.margin == margin
        and report.holds == (margin >= -1e-6)
    )


def lattice(fn: Fn, a: float, b: float, s: float, m: float, grid: int):
    """Worst gap, its (x, y, lambda), and the skipped count on the checker's lattice."""
    xs = np.linspace(a, b, grid)
    lams = np.linspace(0.0, 1.0, grid)
    lam_s = lams**s
    rest_s = (1.0 - lams) ** s
    f_ends = fn(xs)
    ends_ok = np.isfinite(f_ends)[:, None] & np.isfinite(f_ends)[None, :]
    X, Y = xs[:, None], xs[None, :]
    fx, fy = f_ends[:, None], f_ends[None, :]
    worst, where, skipped = -math.inf, None, 0
    for k in range(grid):
        lam = lams[k]
        lhs = fn(lam * X + m * (1.0 - lam) * Y)
        with np.errstate(all="ignore"):
            rhs = lam_s[k] * fx + m * rest_s[k] * fy
        valid = np.isfinite(lhs) & ends_ok
        skipped += int(valid.size - np.count_nonzero(valid))
        gaps = np.where(valid, lhs - rhs, -np.inf)
        flat = int(np.argmax(gaps))
        if gaps.flat[flat] > worst:
            i, j = np.unravel_index(flat, gaps.shape)
            worst, where = float(gaps.flat[flat]), (float(xs[i]), float(xs[j]), float(lam))
    return worst, where, skipped


def gap_at(fn: Fn, x: float, y: float, lam: float, s: float, m: float) -> float:
    lhs = fn.at(lam * x + m * (1.0 - lam) * y)
    return lhs - (lam**s * fn.at(x) + m * (1.0 - lam) ** s * fn.at(y))


def convexity_ok(verdict, fn: Fn, a, b, s, m, grid, known=None) -> bool:
    """Recompute the lattice verdict; ``known`` adds a C9-style expectation.

    ``known`` is ``True`` (membership holds), or a callable taking the
    witness gap for a known refutation.
    """
    worst, _, skipped = lattice(fn, a, b, s, m, grid)
    if verdict.grid != grid or verdict.skipped != skipped:
        return False
    if abs(worst - CONVEXITY_SLACK) > GAP_TOL:
        if verdict.holds_on_grid != (worst <= CONVEXITY_SLACK):
            return False
    if not verdict.holds_on_grid:
        x, y, lam, gap = verdict.witness
        if abs(gap - worst) > GAP_TOL or abs(gap_at(fn, x, y, lam, s, m) - gap) > GAP_TOL:
            return False
    if known is True:
        return verdict.holds_on_grid
    if known is not None:
        return (not verdict.holds_on_grid) and known(verdict.witness[3])
    return True
