"""The shape of an expression on a closed interval, read from its tree.

``shape_of(node, lo, hi)`` walks the tree once and returns a :class:`Shape`:
a finite range that holds every value of the node on [lo, hi], a direction
and a curvature.  It returns None when in any doubt: a rule does not apply,
a sign condition is not met, or a range end is not finite.  The rules are
those of disciplined convex programming (Grant, Boyd & Ye, 2006) in one
variable:

* ``x`` rises and is affine.  A subtree without ``x`` is a constant: flat
  and affine, folded to the float its evaluation gives;
* a sum keeps a direction or curvature that its terms share.  A flat or
  affine term gives way to the other one, and opposite ones are unknown.
  ``-`` flips its right side, a positive constant factor or divisor keeps
  the shape, and a negative one flips it;
* ``exp`` keeps its argument's direction, and is convex of a convex term;
* ``u^p`` (``pow(u, p)`` parses to it) needs u >= 0, and u > 0 when
  p < 0.  It keeps u's direction for p > 0 and flips it for p < 0.  It is
  convex for p >= 1 and a convex u, and for p < 0 and a concave u;
* ``c/w`` is ``c*w^(-1)``, and ``c/u^q`` is ``c*u^(-q)``; u and q are walked
  once, so the walk stays linear in the tree's size;
* ``abs`` of an affine term is convex, with range [0, max(-lo, hi)];
* ``sqrt`` and ``ln`` of a non-constant term have no rule.

Each rule is monotone in each operand, so a node's range comes from its
operands' ranges through the node's own operation: for a monotone node that
is its values at the interval's ends.  Each computed end is rounded outward
by an ulp (libm's ``exp`` and ``pow`` are taken to be within an ulp)
before any sign test reads it.  A computed 0 stays as it is: a float sum is
0 only when it is exactly 0, and ``0^p`` is exactly 0.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .exceptions import EvalError
from .expr import _SCALAR, BinOp, Call, Neg, Node, Num, Var

__all__ = ["Shape", "shape_of"]


class Shape(NamedTuple):
    lo: float  # every value of the node on the interval lies in [lo, hi]
    hi: float
    slope: int | None  # 1 non-decreasing, -1 non-increasing, 0 flat, None unknown
    curve: int | None  # 1 convex, -1 concave, 0 affine, None unknown


def shape_of(node: Node, lo: float, hi: float) -> Shape | None:
    """The shape of ``node`` on [lo, hi], or None when in doubt."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    try:
        return _walk(node, lo, hi)
    except (ArithmeticError, ValueError, EvalError):  # overflow, math domain, undefined constant
        return None


def _walk(node: Node, lo: float, hi: float) -> Shape | None:
    kind = type(node)
    if kind is Var:
        return Shape(lo, hi, 1, 0)
    if kind is Num:
        return _const(node.value)
    if kind is Neg:
        u = _walk(node.operand, lo, hi)
        return u and _negated(u)
    if kind is Call:
        u = _walk(node.args[0], lo, hi)
        if u is None or _fixed(u):
            return u and _const(_SCALAR[node.name](u.lo))
        rule = _CALLS.get(node.name)  # sqrt and ln of a non-constant term have none
        return rule and rule(u)
    op, right = node.op, node.right
    u = _walk(node.left, lo, hi)
    if u is None:
        return None
    reciprocal = op == "/" and _fixed(u) and type(right) is BinOp and right.op == "^"
    if reciprocal:  # c/u^q is c*u^(-q): walk u and q once each, and u^q from them
        w, q = _walk(right.left, lo, hi), _walk(right.right, lo, hi)
        v = w and q and _raised(w, q)
    else:
        v = _walk(right, lo, hi)
    if v is None:
        return None
    if _fixed(u) and _fixed(v):
        return _const(_SCALAR[op](u.lo, v.lo))
    if op in "+-":
        return _sum(u, v if op == "+" else _negated(v))
    if op in "*/" and _fixed(v):
        return _scaled(u, v.lo, operator.mul if op == "*" else operator.truediv)
    if op == "*" and _fixed(u):
        return _scaled(v, u.lo, operator.mul)
    if op == "/" and _fixed(u):  # c/w is c*w^(-1)
        inverse = _power(w, -q.lo) if reciprocal else _power(v, -1.0)
        return inverse and _scaled(inverse, u.lo, operator.mul)
    return _raised(u, v)


def _raised(u: Shape, v: Shape) -> Shape | None:
    """``u^v``: a constant when both are, and for a constant exponent only."""
    if _fixed(v):
        return _const(_SCALAR["^"](u.lo, v.lo)) if _fixed(u) else _power(u, v.lo)
    return None


def _const(value: float) -> Shape | None:
    return Shape(value, value, 0, 0) if math.isfinite(value) else None


def _fixed(u: Shape) -> bool:
    return u.slope == 0 and u.lo == u.hi


def _out(lo: float, hi: float, slope, curve) -> Shape | None:
    """The shape with its range rounded outward by an ulp (a computed 0 stays), if finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    return Shape(lo and math.nextafter(lo, -math.inf), hi and math.nextafter(hi, math.inf),
                 slope, curve)


def _join(p, q):
    """The direction (or curvature) of a sum of terms with directions (curvatures) p and q."""
    return p if q == 0 or q == p else (q if p == 0 else None)


def _flip(p):
    return None if p is None else -p


def _negated(u: Shape) -> Shape:
    return Shape(-u.hi, -u.lo, _flip(u.slope), _flip(u.curve))


def _sum(u: Shape, v: Shape) -> Shape | None:
    return _out(u.lo + v.lo, u.hi + v.hi, _join(u.slope, v.slope), _join(u.curve, v.curve))


def _scaled(u: Shape, k: float, op) -> Shape | None:
    """``op(u, k)`` for the constant k: u times k, or u over k."""
    ends = op(u.lo, k), op(u.hi, k)
    if k > 0.0:
        return _out(*ends, u.slope, u.curve)
    if k < 0.0:
        return _out(ends[1], ends[0], _flip(u.slope), _flip(u.curve))
    return _const(0.0)  # 0*u; u/0 raised ZeroDivisionError


def _power(u: Shape | None, p: float) -> Shape | None:
    if u is None or not (u.lo > 0.0 if p < 0.0 else u.lo >= 0.0):
        return None
    if p == 0.0:
        return _const(1.0)
    ends = math.pow(u.lo, p), math.pow(u.hi, p)
    if p < 0.0:
        return _out(ends[1], ends[0], _flip(u.slope), 1 if u.curve in (0, -1) else None)
    return _out(*ends, u.slope, 1 if p >= 1.0 and u.curve in (0, 1) else None)


def _exp(u: Shape) -> Shape | None:
    return _out(math.exp(u.lo), math.exp(u.hi), u.slope, 1 if u.curve in (0, 1) else None)


def _abs(u: Shape) -> Shape | None:
    return Shape(0.0, max(-u.lo, u.hi), None, 1) if u.curve == 0 else None


_CALLS = {"exp": _exp, "abs": _abs}
