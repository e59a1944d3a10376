"""Independent reference implementations that only the tests use.

* ``sugeno_integral_oracle``: brute-force sup-min over an alpha lattice, a
  second route to the Sugeno integral that shares no solver with the engine.
* ``distribution_profile``: the distribution function F(alpha) of the engine's
  level sets at chosen alphas.
* ``constant``: the constant function with a finite value.
* ``_walk``: the value of an expression tree by a walk over it, the oracle
  for the callables that ``expr`` compiles from a tree.
* ``evaluate_array_every_operand``: ``evaluate_array`` with both operands of
  every power checked for finiteness, as ``/`` checks its operands.
* ``check_sm_convex_whole``: the (s,m)-convexity check on the whole grid^3
  lattice at once, the oracle for the slab-by-slab ``check_sm_convex``.
* ``increasing_beta_convex`` / ``decreasing_beta_convex``: the plain-convex
  (s = m = 1) specialisations of the endpoint-bound equation, written out
  with the same floating-point operations as the general solver.
* ``check_envelope_dominates``: grid check that an endpoint envelope lies
  above the function it was built from.
* ``to_text``: canonical fully-parenthesized text of a parsed expression.
* ``power_sum_gap``: the gap of x**s + (1-x)**s <= 2**(1-s) on [0, 1].
* ``check_proposition_properties``: the standard Sugeno integral properties,
  probed through the public ``sugeno_integral`` and ``distribution_profile``.
* ``verify_fuzzy_measure_axioms``: empirical fuzzy measure axioms over random
  finite interval unions (``IntervalUnion``).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from sugeno_bounds.bounds import BetaResult, CaseTag
from sugeno_bounds.convexity import _CONVEXITY_SLACK, ConvexityVerdict, SMParams, envelope
from sugeno_bounds.exceptions import DomainError, EvalError, NegativeFunctionError
from sugeno_bounds.expr import (_ARRAY, BinOp, FunctionExpr, Neg, Node, Num, Var,
                                _nan_where_operand_nonfinite, evaluate, evaluate_array)
from sugeno_bounds.measure import Interval, lebesgue
from sugeno_bounds.rootfind import solve_sup_threshold
from sugeno_bounds.sugeno import DEFAULT_GRID, MAX_EXCLUDED_FRACTION, _LevelSets, sugeno_integral

ORACLE_MIN_GRID = 101
NEG_SLACK = 1e-12
DOMINANCE_TOL = 1e-9
PROPERTY_TOL = 1e-6
GAMMA_PROBES = 10
CONTINUITY_TOL = 1e-9
MONOTONE_SLACK = 1e-12
N_CHAINS = 10


def sugeno_integral_oracle(
    f: FunctionExpr,
    base: Interval,
    phi: FunctionExpr | None = None,
    n_alpha: int = DEFAULT_GRID,
    grid: int = DEFAULT_GRID,
) -> float:
    """Brute-force sup-min over an alpha lattice; independent of the bisection route."""
    phi = lebesgue() if phi is None else phi
    if n_alpha < 1000:
        raise ValueError("n_alpha must be at least 1000")
    if grid < ORACLE_MIN_GRID:
        raise ValueError(f"grid must be at least {ORACLE_MIN_GRID} points")
    xs = np.linspace(base.a, base.b, grid)
    vals = evaluate_array(f, xs)
    bad = np.isnan(vals)
    n_excluded = int(np.count_nonzero(bad))
    if n_excluded >= MAX_EXCLUDED_FRACTION * grid:
        raise EvalError(f"integrand is not evaluable at {n_excluded} of {grid} grid points")
    i_min = int(np.nanargmin(vals))
    if float(vals[i_min]) < -NEG_SLACK:
        raise NegativeFunctionError(float(xs[i_min]), float(vals[i_min]))

    sorted_vals = np.sort(vals[~bad])
    mu_total = evaluate(phi, base.length)
    alphas = np.linspace(0.0, mu_total, n_alpha)
    counts = sorted_vals.size - np.searchsorted(sorted_vals, alphas, side="left")
    lengths = (counts / grid) * base.length
    return float(np.max(np.minimum(alphas, evaluate_array(phi, lengths))))


def distribution_profile(
    f: FunctionExpr,
    base: Interval,
    phi: FunctionExpr | None = None,
    alphas=(),
    grid: int = DEFAULT_GRID,
) -> tuple[tuple[float, float], ...]:
    """(alpha, F(alpha)) pairs of the distribution function at the given increasing alphas."""
    phi = lebesgue() if phi is None else phi
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if any(nxt <= cur for cur, nxt in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    levels = _LevelSets(f, base, phi, grid)
    return tuple((a, levels.measure(a)) for a in alphas)


def constant(value: float) -> FunctionExpr:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError("constant must be finite")
    return FunctionExpr(Num(v))


def _walk(node: Node, x, ops: dict):
    """Value of ``node`` at ``x`` (a float or an array) under the operator table ``ops``."""
    kind = type(node)  # exact types, most frequent first
    if kind is BinOp:
        return ops[node.op](_walk(node.left, x, ops), _walk(node.right, x, ops))
    if kind is Var:
        return x
    if kind is Num:
        return node.value
    if kind is Neg:
        return -_walk(node.operand, x, ops)
    return ops[node.name](_walk(node.args[0], x, ops))


_EVERY_OPERAND = {**_ARRAY, "^": _nan_where_operand_nonfinite(np.power)}


def evaluate_array_every_operand(f: FunctionExpr, xs) -> np.ndarray:
    """``evaluate_array`` over a table whose powers check both operands, NaN where undefined."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        out = np.array(np.broadcast_to(_walk(f.root, xs, _EVERY_OPERAND), xs.shape), dtype=float)
    out[~np.isfinite(out)] = np.nan
    return out


def check_sm_convex_whole(f: FunctionExpr, base: Interval, p: SMParams, grid: int) -> ConvexityVerdict:
    """``check_sm_convex`` with the whole grid^3 lattice built at once."""
    xs = np.linspace(base.a, base.b, grid)
    lams = np.linspace(0.0, 1.0, grid)
    f_ends = evaluate_array(f, xs)

    X = xs[:, None, None]
    Y = xs[None, :, None]
    L = lams[None, None, :]
    points = L * X + p.m * (1.0 - L) * Y
    lhs = evaluate_array(f, points.ravel()).reshape(points.shape)
    with np.errstate(all="ignore"):
        gaps = (L**p.s) * f_ends[:, None, None] + p.m * ((1.0 - L) ** p.s) * f_ends[None, :, None]
        np.subtract(lhs, gaps, out=gaps)
    ends_ok = np.isfinite(f_ends)
    invalid = ~(np.isfinite(lhs) & ends_ok[:, None, None] & ends_ok[None, :, None])
    skipped = int(np.count_nonzero(invalid))
    if skipped == gaps.size:
        raise EvalError(f"f is not evaluable at any of the {skipped} lattice combinations")
    gaps[invalid] = -np.inf
    flat = int(np.argmax(gaps))
    worst = float(gaps.flat[flat])
    if worst > _CONVEXITY_SLACK:
        i, j, k = np.unravel_index(flat, gaps.shape)
        witness = (float(xs[i]), float(xs[j]), float(lams[k]), min(worst, sys.float_info.max))
        return ConvexityVerdict(False, witness, grid, skipped)
    return ConvexityVerdict(True, None, grid, skipped)


def _clamp01(q: float) -> float:
    return 0.0 if q < 0.0 else (1.0 if q > 1.0 else q)


def _solve_convex(F, w: float, case: CaseTag) -> BetaResult:
    beta, _ = solve_sup_threshold(F, 0.0, max(w * w, w))
    return BetaResult(beta, abs(F(beta) - beta), min(beta, w), case)


def increasing_beta_convex(e, base: Interval) -> BetaResult:
    """Plain-convex specialization (s = m = 1) of the increasing-case equation."""
    if not (e.fb > e.fa and e.gb > e.ga):
        raise ValueError("need f(b) > f(a) and g(b) > g(a)")
    w = base.length
    d_f = e.fb - e.fa
    d_g = e.gb - e.ga

    def F(beta: float) -> float:
        len_f = w * (1.0 - _clamp01((beta - e.fa) / d_f))
        len_g = w * (1.0 - _clamp01((beta - e.ga) / d_g))
        return len_f * len_g

    return _solve_convex(F, w, CaseTag.INCREASING)


def decreasing_beta_convex(e, base: Interval) -> BetaResult:
    """Plain-convex specialization (s = m = 1) of the decreasing-case equation."""
    if not (e.fb < e.fa and e.gb < e.ga):
        raise ValueError("need f(b) < f(a) and g(b) < g(a)")
    w = base.length
    d_f = e.fb - e.fa
    d_g = e.gb - e.ga

    def F(beta: float) -> float:
        len_f = w * _clamp01((beta - e.fa) / d_f)
        len_g = w * _clamp01((beta - e.ga) / d_g)
        return len_f * len_g

    return _solve_convex(F, w, CaseTag.DECREASING)


@dataclass(frozen=True)
class EnvelopeCheck:
    holds: bool
    witness: tuple[float, float, float] | None  # (x, f(x), envelope(x))


def check_envelope_dominates(
    f: FunctionExpr,
    fa: float,
    fb: float,
    base: Interval,
    p: SMParams,
    grid: int = 10001,
    tol: float = DOMINANCE_TOL,
) -> EnvelopeCheck:
    """Grid check that the endpoint envelope dominates f on [a, b]."""
    xs = np.linspace(base.a, base.b, grid)
    f_vals = evaluate_array(f, xs)
    e_vals = evaluate_array(envelope(fa, fb, base, p), xs)
    excess = np.where(np.isfinite(f_vals) & np.isfinite(e_vals), f_vals - e_vals, -np.inf)
    i = int(np.argmax(excess))
    if float(excess[i]) > tol:
        return EnvelopeCheck(False, (float(xs[i]), float(f_vals[i]), float(e_vals[i])))
    return EnvelopeCheck(True, None)


def _fmt(node: Node) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
        return text if node.value >= 0.0 else f"({text})"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"(-{_fmt(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_fmt(node.left)}{node.op}{_fmt(node.right)})"
    args = ",".join(_fmt(a) for a in node.args)
    return f"{node.name}({args})"


def to_text(f: FunctionExpr) -> str:
    """Canonical fully-parenthesized form; parses back to an equivalent tree."""
    return _fmt(f.root)


def power_sum_gap(x: float, s: float) -> float:
    """Gap of the bound x**s + (1-x)**s <= 2**(1-s) on [0, 1]; non-negative."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    return 2.0 ** (1.0 - s) - x**s - (1.0 - x) ** s


# ---------------------------------------------------------------------------
# Sugeno integral properties


class PreconditionError(Exception):
    """A checker's precondition failed at the point ``witness``."""

    def __init__(self, message: str, witness: float):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class PropertyReport:
    """Empirical verdicts for the standard Sugeno integral properties.

    The two ``*_sampled`` items quantify over all gamma in the underlying
    statement; here they are probed at finitely many gammas only, so a True
    is evidence, not proof.
    """

    bounded_by_measure: bool      # integral(f) <= mu(X), same for g
    constant_matches_min: bool    # integral of the constant k equals min(k, mu(X))
    monotone_in_integrand: bool   # f <= g implies integral(f) <= integral(g)
    threshold_lower: bool         # F(alpha) >= alpha implies integral >= alpha
    threshold_upper: bool         # F(alpha) <= alpha implies integral <= alpha
    exceeds_alpha_sampled: bool   # integral > alpha: some gamma > alpha has F(gamma) > alpha
    below_alpha_sampled: bool     # integral < alpha: some gamma < alpha has F(gamma) < alpha
    integral_f: float
    integral_g: float
    integral_k: float
    measure_total: float

    @property
    def all_pass(self) -> bool:
        return (
            self.bounded_by_measure
            and self.constant_matches_min
            and self.monotone_in_integrand
            and self.threshold_lower
            and self.threshold_upper
            and self.exceeds_alpha_sampled
            and self.below_alpha_sampled
        )


def check_proposition_properties(
    f: FunctionExpr,
    g: FunctionExpr,
    k: float,
    base: Interval,
    phi: FunctionExpr | None = None,
    grid: int = 10001,
    tol: float = PROPERTY_TOL,
) -> PropertyReport:
    """Check the standard integral properties for a pair f <= g and a constant k.

    Raises :class:`PreconditionError` with a witness point when f <= g fails
    on the grid.
    """
    phi = lebesgue() if phi is None else phi
    if k < 0.0:
        raise ValueError("k must be non-negative")
    v_f = sugeno_integral(f, base, phi, grid).value
    v_g = sugeno_integral(g, base, phi, grid).value

    xs = np.linspace(base.a, base.b, grid)
    f_vals, g_vals = evaluate_array(f, xs), evaluate_array(g, xs)
    excess = np.where(np.isnan(f_vals) | np.isnan(g_vals), -np.inf, f_vals - g_vals)
    worst = int(np.argmax(excess))
    if excess[worst] > 1e-12:
        x_bad = float(xs[worst])
        raise PreconditionError(
            f"need f <= g on the grid; f exceeds g by {float(excess[worst])!r} at x={x_bad!r}",
            witness=x_bad,
        )

    mu_total = evaluate(phi, base.length)
    v_k = sugeno_integral(constant(k), base, phi, grid).value
    bounded = v_f <= mu_total + tol and v_g <= mu_total + tol
    const_ok = abs(v_k - min(k, mu_total)) <= tol
    mono = v_f <= v_g + tol

    # Threshold items: alpha is constructed from the computed integral so the
    # hypothesis is numerically decidable; a failed hypothesis passes vacuously.
    # Every probe of F goes through one distribution profile.
    a4 = max(v_f - tol, 0.0)
    a5 = v_f + tol
    delta = max(1e-3 * max(1.0, mu_total), 10.0 * tol)
    a6 = v_f - delta
    above = []  # stays empty when no alpha lies strictly between 0 and the integral
    if a6 > 0.0:
        above = [a6 + (v_f - a6) * j / GAMMA_PROBES for j in range(1, GAMMA_PROBES + 1)]
    a7 = v_f + delta
    below = [v_f + delta * j / GAMMA_PROBES for j in range(GAMMA_PROBES)]
    F = dict(distribution_profile(f, base, phi, sorted({a4, a5, *above, *below}), grid))

    return PropertyReport(
        bounded_by_measure=bounded,
        constant_matches_min=const_ok,
        monotone_in_integrand=mono,
        threshold_lower=(F[a4] < a4) or (v_f >= a4 - 1e-9),
        threshold_upper=(F[a5] > a5) or (v_f <= a5 + 1e-9),
        exceeds_alpha_sampled=not above or any(F[gm] > a6 for gm in above),
        below_alpha_sampled=any(F[gm] < a7 for gm in below),
        integral_f=v_f,
        integral_g=v_g,
        integral_k=v_k,
        measure_total=mu_total,
    )


# ---------------------------------------------------------------------------
# fuzzy measure axioms


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered union of pairwise-disjoint intervals; may be empty."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        for prev, cur in zip(self.parts, self.parts[1:]):
            if cur.a < prev.b:
                raise ValueError("interval union parts must be sorted and disjoint")

    @property
    def total_length(self) -> float:
        return float(sum(p.length for p in self.parts))


def union_measure(phi: FunctionExpr, union: IntervalUnion) -> float:
    """Measure of a finite interval union: phi of its total length."""
    return evaluate(phi, union.total_length)


@dataclass(frozen=True)
class AxiomReport:
    empty_set_is_zero: bool
    monotone: bool
    continuous_from_below: bool
    continuous_from_above: bool
    pairs_checked: int
    chain_length: int
    worst_monotone_gap: float  # max of mu(A) - mu(B) over nested pairs A within B
    worst_chain_gap: float     # max |mu(E_n) - mu(limit)| over all chains

    @property
    def all_pass(self) -> bool:
        return (
            self.empty_set_is_zero
            and self.monotone
            and self.continuous_from_below
            and self.continuous_from_above
        )


def _random_union(rng: random.Random, base: Interval) -> IntervalUnion:
    k = rng.randint(1, 4)
    pts = sorted(rng.uniform(base.a, base.b) for _ in range(2 * k))
    parts = []
    for lo, hi in zip(pts[::2], pts[1::2]):
        if hi - lo > 1e-9 * base.length:
            parts.append(Interval(lo, hi))
    return IntervalUnion(tuple(parts))


def _shrunk_copy(rng: random.Random, union: IntervalUnion) -> IntervalUnion:
    parts = []
    for part in union.parts:
        if rng.random() < 0.3:
            continue
        w = part.length
        lo = part.a + rng.uniform(0.0, 0.4) * w
        hi = part.b - rng.uniform(0.0, 0.4) * w
        if hi - lo > 1e-12 * w:
            parts.append(Interval(lo, hi))
    return IntervalUnion(tuple(parts))


def _random_inner_interval(rng: random.Random, base: Interval) -> Interval:
    # Strictly inside the base with margins, so decreasing chains have room.
    length = base.length
    lo = base.a + 0.05 * length
    hi = base.b - 0.05 * length
    width = rng.uniform(0.2 * length, 0.8 * (hi - lo))
    start = rng.uniform(lo, hi - width)
    return Interval(start, start + width)


def verify_fuzzy_measure_axioms(
    phi: FunctionExpr,
    base: Interval,
    n_samples: int,
    seed: int = 0,
) -> AxiomReport:
    """Empirical check of the fuzzy measure axioms over random subsets of ``base``.

    The empty set must have measure zero, nested sets ordered measures, and
    measures must be continuous along increasing and decreasing chains.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = random.Random(seed)

    empty_ok = union_measure(phi, IntervalUnion()) == 0.0

    worst_monotone = -math.inf
    for _ in range(n_samples):
        bigger = _random_union(rng, base)
        smaller = _shrunk_copy(rng, bigger)
        gap = union_measure(phi, smaller) - union_measure(phi, bigger)
        worst_monotone = max(worst_monotone, gap)
    monotone_ok = worst_monotone <= MONOTONE_SLACK

    # Chains shrink geometrically so the last element is within 1e-12 of the
    # limit set in length; chain length is n_samples.
    shrink = (1e-12) ** (1.0 / n_samples)
    worst_chain = 0.0
    below_ok = True
    above_ok = True
    for _ in range(N_CHAINS):
        limit = _random_inner_interval(rng, base)
        mu_limit = evaluate(phi, limit.length)

        prev = -math.inf
        mu_last = prev
        for k in range(1, n_samples + 1):
            cut = limit.length * shrink**k
            mu_last = evaluate(phi, Interval(limit.a, limit.b - cut).length)
            if mu_last < prev - MONOTONE_SLACK:
                below_ok = False
            prev = mu_last
        gap = abs(mu_last - mu_limit)
        worst_chain = max(worst_chain, gap)
        if gap > CONTINUITY_TOL:
            below_ok = False

        pad0 = min(limit.a - base.a, base.b - limit.b)
        prev = math.inf
        for k in range(1, n_samples + 1):
            pad = pad0 * shrink**k
            mu_last = evaluate(phi, Interval(limit.a - pad, limit.b + pad).length)
            if mu_last > prev + MONOTONE_SLACK:
                above_ok = False
            prev = mu_last
        gap = abs(mu_last - mu_limit)
        worst_chain = max(worst_chain, gap)
        if gap > CONTINUITY_TOL:
            above_ok = False

    return AxiomReport(
        empty_set_is_zero=empty_ok,
        monotone=monotone_ok,
        continuous_from_below=below_ok,
        continuous_from_above=above_ok,
        pairs_checked=n_samples,
        chain_length=n_samples,
        worst_monotone_gap=worst_monotone,
        worst_chain_gap=worst_chain,
    )
