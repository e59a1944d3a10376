"""Independent reference implementations that only the tests use.

* ``sugeno_integral_oracle``: brute-force sup-min over an alpha lattice, a
  second route to the Sugeno integral that shares no solver with the engine.
* ``increasing_beta_convex`` / ``decreasing_beta_convex``: the plain-convex
  (s = m = 1) specialisations of the endpoint-bound equation, written out
  with the same floating-point operations as the general solver.
* ``check_envelope_dominates``: grid check that an endpoint envelope lies
  above the function it was built from.
* ``to_text``: canonical fully-parenthesized text of a parsed expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sugeno_bounds.bounds import BetaResult, CaseTag
from sugeno_bounds.convexity import SMParams, envelope
from sugeno_bounds.exceptions import EvalError, NegativeFunctionError
from sugeno_bounds.expr import BinOp, FunctionExpr, Neg, Node, Num, Var, evaluate_array
from sugeno_bounds.measure import Interval, MeasureSpec, lebesgue, measure_of
from sugeno_bounds.rootfind import SolverConfig, solve_sup_threshold
from sugeno_bounds.sugeno import DEFAULT_GRID, MAX_EXCLUDED_FRACTION

ORACLE_MIN_GRID = 101
NEG_SLACK = 1e-12
DOMINANCE_TOL = 1e-9


def sugeno_integral_oracle(
    f: FunctionExpr,
    base: Interval,
    spec: MeasureSpec | None = None,
    n_alpha: int = DEFAULT_GRID,
    grid: int = DEFAULT_GRID,
) -> float:
    """Brute-force sup-min over an alpha lattice; independent of the bisection route."""
    spec = lebesgue() if spec is None else spec
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
    mu_total = measure_of(spec, base)
    alphas = np.linspace(0.0, mu_total, n_alpha)
    counts = sorted_vals.size - np.searchsorted(sorted_vals, alphas, side="left")
    lengths = (counts / grid) * base.length
    if spec.kind == "lebesgue":
        f_hat = lengths
    else:
        f_hat = evaluate_array(spec.phi, lengths)
    return float(np.max(np.minimum(alphas, f_hat)))


def _clamp01(q: float) -> float:
    return 0.0 if q < 0.0 else (1.0 if q > 1.0 else q)


def _solve_convex(F, w: float, case: CaseTag, cfg: SolverConfig | None) -> BetaResult:
    res = solve_sup_threshold(F, 0.0, max(w * w, w), SolverConfig() if cfg is None else cfg)
    return BetaResult(res.value, res.residual, min(res.value, w), case, True)


def increasing_beta_convex(e, base: Interval, cfg: SolverConfig | None = None) -> BetaResult:
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

    return _solve_convex(F, w, CaseTag.INCREASING, cfg)


def decreasing_beta_convex(e, base: Interval, cfg: SolverConfig | None = None) -> BetaResult:
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

    return _solve_convex(F, w, CaseTag.DECREASING, cfg)


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
    env = envelope(fa, fb, base, p)
    xs = np.linspace(base.a, base.b, grid)
    f_vals = evaluate_array(f, xs)
    e_vals = env.values(xs)
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
