"""Seeded inputs for the benchmark workloads.

Every generated function comes twice: as expression text for the library
and as a numpy callable written here, independently of the library's
evaluator.  The reference checks in ``check.py`` use only the callable, so
they never go through the code being measured.

The integrand families are a copy of the ones the acceptance tests draw
from (C4: power, reciprocal power, Gaussian bump, exponential; C5: bump
add-ons), plus tents and caps for the non-monotone workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Distortion maps phi(length) used under a distortion measure.
DISTORTIONS = (
    ("sqrt(x)", np.sqrt),
    ("x^2", lambda t: t**2),
    ("x/(1+x)", lambda t: t / (1.0 + t)),
)


@dataclass(frozen=True)
class Fn:
    """Expression text plus an independent numpy twin of the same function."""

    text: str
    np_fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, xs):
        with np.errstate(all="ignore"):
            out = np.asarray(self.np_fn(np.asarray(xs, dtype=float)), dtype=float)
        out = np.array(np.broadcast_to(out, np.shape(xs)), dtype=float)
        out[~np.isfinite(out)] = np.nan
        return out

    def at(self, x: float) -> float:
        return float(self(np.array([x]))[0])


def random_interval(rng: random.Random):
    """[a, b] inside [0, 10] with a < 8 and length at least 0.5, as in C4."""
    a = rng.uniform(0.0, 8.0)
    b = a + rng.uniform(0.5, min(9.0, 10.0 - a))
    return a, b


def dips_below(fn: Fn, a: float, b: float, mu: float) -> bool:
    """Whether f falls below mu(X) somewhere on [a, b].

    Otherwise the integral saturates at mu(X) and the engine returns it
    without bisecting; such draws are redrawn so that every integral in a
    pool takes the crossing path and seeds do not change the pool's cost mix.
    """
    return float(np.nanmin(fn(np.linspace(a, b, 1001)))) < mu


def power_fn(rng: random.Random) -> Fn:
    """C4 family 0: increasing power."""
    c0, c1, p = rng.uniform(0.0, 2.0), rng.uniform(0.1, 3.0), rng.uniform(0.3, 4.0)
    return Fn(f"({c0!r})+({c1!r})*x^({p!r})", lambda x: c0 + c1 * x**p)


def reciprocal_fn(rng: random.Random) -> Fn:
    """C4 family 1: decreasing reciprocal power."""
    c0 = rng.uniform(0.0, 2.0)
    c1, d, p = rng.uniform(0.5, 4.0), rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0)
    return Fn(f"({c0!r})+({c1!r})/(x+({d!r}))^({p!r})", lambda x: c0 + c1 / (x + d) ** p)


def exponential_fn(rng: random.Random, sign: float | None = None) -> Fn:
    """C4 family 3: exponential, increasing for k > 0 and decreasing for k < 0."""
    c0, c1 = rng.uniform(0.0, 2.0), rng.uniform(0.2, 2.0)
    sign = rng.choice([-1.0, 1.0]) if sign is None else sign
    k = sign * rng.uniform(0.1, 1.2)
    return Fn(f"({c0!r})+({c1!r})*exp(({k!r})*x)", lambda x: c0 + c1 * np.exp(k * x))


MONOTONE_FAMILIES = (power_fn, reciprocal_fn, exponential_fn)


def monotone_fn(rng: random.Random, i: int) -> Fn:
    """The i-th monotone integrand: families taken in turn, so a pool's family mix is fixed."""
    return MONOTONE_FAMILIES[i % len(MONOTONE_FAMILIES)](rng)


def gaussian_bump_fn(rng: random.Random, a: float, b: float, i: int = 0) -> Fn:
    """C4 family 2: a Gaussian bump centred inside [a, b]."""
    c0, h, w = rng.uniform(0.0, 2.0), rng.uniform(0.3, 3.0), rng.uniform(0.5, 20.0)
    c = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
    return Fn(f"({c0!r})+({h!r})*exp(-({w!r})*(x-({c!r}))^2)",
              lambda x: c0 + h * np.exp(-w * (x - c) ** 2))


def bump_addon_fn(rng: random.Random, a: float, b: float, i: int = 0) -> Fn:
    """C5-style add-on: a monotone C4 integrand plus a Gaussian bump."""
    base = monotone_fn(rng, i // 4)
    h, w, c = rng.uniform(0.1, 1.0), rng.uniform(1.0, 8.0), rng.uniform(a, b)
    return Fn(f"{base.text}+({h!r})*exp(-({w!r})*(x-({c!r}))^2)",
              lambda x: base.np_fn(x) + h * np.exp(-w * (x - c) ** 2))


def tent_fn(rng: random.Random, a: float, b: float, i: int = 0) -> Fn:
    c0, c1 = rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0)
    c = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
    return Fn(f"({c0!r})+({c1!r})*abs(x-({c!r}))", lambda x: c0 + c1 * np.abs(x - c))


def cap_fn(rng: random.Random, a: float, b: float, i: int = 0) -> Fn:
    """c*x*(k-x), non-negative on [a, b] (k >= b) with its vertex k/2 inside."""
    lo = max(b, 2.0 * a + 0.2 * (b - a))
    k = rng.uniform(lo, 2.0 * b - 0.2 * (b - a))
    c = rng.uniform(0.2, 2.0)
    return Fn(f"({c!r})*x*(({k!r})-x)", lambda x: c * x * (k - x))


# Each takes (rng, a, b, i); only the add-on uses i, to pick its monotone base.
BUMPY_FAMILIES = (gaussian_bump_fn, bump_addon_fn, tent_fn, cap_fn)


def bumpy_fn(rng: random.Random, a: float, b: float, i: int) -> Fn:
    """The i-th non-monotone integrand, families in turn; redrawn until its samples really turn.

    1001 samples are (up to rounding) a subset of both integration grids, so
    a turn seen here is seen by the engine too.
    """
    xs = np.linspace(a, b, 1001)
    while True:
        fn = BUMPY_FAMILIES[i % len(BUMPY_FAMILIES)](rng, a, b, i)
        steps = np.diff(fn(xs))
        if np.any(steps > 1e-9) and np.any(steps < -1e-9):
            return fn


# ---------------------------------------------------------------------------
# same-direction pairs for the bound solve


@dataclass(frozen=True)
class Pair:
    f: Fn
    g: Fn
    product: Fn
    a: float
    b: float
    s: float
    m: float
    increasing: bool


def envelope_distribution(fa, fb, ga, gb, a, b, s, m, increasing):
    """The envelope-product distribution F(beta) of the bound equation, literal mode."""
    c = 2.0 ** (1.0 - s)
    edge_f, edge_g = m * c * fa, m * c * ga
    d_f, d_g = fb - m * fa, gb - m * ga
    w = b - m * a
    shift = m * a - a

    def q(beta, edge, d):
        return min(1.0, max(0.0, (beta - edge) / d)) ** (1.0 / s)

    if increasing:
        return lambda beta: (w * (1.0 - q(beta, edge_f, d_f))) * (w * (1.0 - q(beta, edge_g, d_g)))
    return lambda beta: (w * q(beta, edge_f, d_f) + shift) * (w * q(beta, edge_g, d_g) + shift)


def beta_bracket_hi(pair: Pair) -> float:
    w = pair.b - pair.m * pair.a
    return max(w * w, pair.b - pair.a)


def same_direction_pair(rng: random.Random, increasing: bool, i: int = 0) -> Pair:
    """f, g with f(b) - m f(a) and g(b) - m g(a) of one sign, well clear of a tie.

    The pair is redrawn until its envelope-product distribution is
    non-increasing, so the bound threshold is a proper crossing.
    """
    while True:
        a = rng.uniform(0.0, 4.0)
        b = a + rng.uniform(0.5, 4.0)
        s = rng.uniform(0.25, 1.0)
        m = 1.0 if rng.random() < 0.4 else rng.uniform(0.5, 1.0)
        if increasing:
            f = power_fn(rng)
            g = power_fn(rng) if i % 2 else exponential_fn(rng, 1.0)
        else:
            f = reciprocal_fn(rng)
            g = reciprocal_fn(rng) if i % 2 else exponential_fn(rng, -1.0)
        fa, fb, ga, gb = f.at(a), f.at(b), g.at(a), g.at(b)
        d_f, d_g = fb - m * fa, gb - m * ga
        sign = 1.0 if increasing else -1.0
        product = Fn(f"({f.text})*({g.text})", lambda x: f.np_fn(x) * g.np_fn(x))
        if min(sign * d_f, sign * d_g) < 1e-3 or not dips_below(product, a, b, b - a):
            continue
        pair = Pair(f, g, product, a, b, s, m, increasing)
        F = envelope_distribution(fa, fb, ga, gb, a, b, s, m, increasing)
        vals = [F(t) for t in np.linspace(0.0, beta_bracket_hi(pair), 257)]
        if all(nxt <= cur + 1e-12 * (1.0 + abs(cur)) for cur, nxt in zip(vals, vals[1:])):
            return pair


# ---------------------------------------------------------------------------
# functions for the convexity lattice


def convexity_case(rng: random.Random, i: int):
    """The i-th lattice input ``(fn, a, b, s, m)``, four kinds in turn.

    * a power ``c*x^p``, with m < 1;
    * an exponential, with m = 1;
    * a shifted power ``c*(x-c0)^p`` with c0 a little below a and m < 1, so
      the lattice points that fall below c0 are undefined and skipped;
    * a nearly linear concave power ``c*x^(1-d)`` with s = m = 1, whose
      violations are small (about 1e-6 to 1e-3), so the checker's slack
      decides the verdict.
    """
    a = rng.uniform(0.5, 3.0)
    b = a + rng.uniform(0.5, 3.0)
    s = rng.uniform(0.3, 1.0)
    m = rng.uniform(0.5, 0.95)
    c1 = rng.uniform(0.2, 2.0)
    kind = i % 4
    if kind == 0:
        p = rng.uniform(0.5, 3.0)
        return Fn(f"({c1!r})*x^({p!r})", lambda x: c1 * x**p), a, b, s, m
    if kind == 1:
        k = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        return Fn(f"({c1!r})*exp(({k!r})*x)", lambda x: c1 * np.exp(k * x)), a, b, s, 1.0
    if kind == 2:
        p = rng.uniform(1.1, 2.5)
        c0 = a - rng.uniform(0.1, 0.5) * (1.0 - m) * a
        return Fn(f"({c1!r})*(x-({c0!r}))^({p!r})", lambda x: c1 * (x - c0) ** p), a, b, s, m
    p = 1.0 - rng.uniform(1e-5, 1e-2)
    return Fn(f"({c1!r})*x^({p!r})", lambda x: c1 * x**p), a, b, 1.0, 1.0


def fixed_point_root(F, lo: float, hi: float, iters: int = 200) -> float:
    """sup{t in [lo, hi] : F(t) >= t} for a non-increasing F, by bisection."""
    if F(hi) >= hi:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if F(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def quintic_root() -> float:
    """Root of t + (4t)^(1/5) = 1: the integral of x^5/4 over [0, 1]."""
    return fixed_point_root(lambda t: 1.0 - (4.0 * t) ** 0.2 if t > 0 else 1.0, 0.0, 1.0)


def quartic_reciprocal_root() -> float:
    """Integral of 1/x^4 over [1, 2]: the level set has length t^(-1/4) - 1."""
    return fixed_point_root(lambda t: min(1.0, t ** -0.25 - 1.0) if t > 0 else 1.0, 0.0, 1.0)


WORKED = {
    "x^5/4 on [0,1]": quintic_root(),
    "x^2 on [1,4]": (9.0 - math.sqrt(17.0)) / 2.0,
    "1/x^4 on [1,2]": quartic_reciprocal_root(),
    "beta x^(3/2),x^(1/2) on [1,4]": 16.0 / 9.0,
    "beta 1/x^2,1/x^2 on [1,2]": (41.0 - math.sqrt(657.0)) / 32.0,
    "kirmaci x^(5/2)/2 pair at s=1/3": 3.0 / 28.0,
}
