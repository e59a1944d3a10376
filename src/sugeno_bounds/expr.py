"""Parsing and evaluation of univariate real function expressions.

Grammar (standard infix over the single variable ``x``)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?      # right-associative, binds tightest
    atom    := NUMBER | 'x' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Named functions: ``sqrt``, ``exp``, ``ln``, ``abs`` (one argument) and
``pow`` (two arguments).  ``pow(u, v)`` parses to the node of ``u^v``, so a
power has one node shape and every other call takes one argument.  Unary
minus binds below ``^``, so ``-x^2`` means ``-(x^2)``.  There is no implicit
multiplication.  Parsed trees are immutable and evaluation is pure, so
expressions are safe to share.

``parse`` rejects an expression nested deeper than ``MAX_DEPTH`` levels in
the grammar (parentheses, unary minus, ``^``, call arguments) or in the tree
it builds (operands of ``+ - * /`` too), so neither parsing nor evaluation
can hit the recursion limit.  A bare ``x`` is one level deep.

One compiler turns an expression, under one of two operator tables, into
nested closures that run the table's operations in the order a walk of the
tree would, operands left to right.  The tables are ``operator``/``math``
functions on a float (:func:`evaluate` raises :class:`EvalError` naming the
failing operation) and numpy ufuncs on an array (:func:`evaluate_array`
marks the point NaN).  The float form is compiled once per expression, on
first use, and kept; the array form is compiled on each
:func:`evaluate_array` call, and once per grid build or lattice scan by the
callers that run it chunk by chunk, so it holds no memory between calls.
Both tables apply one rule:
``f`` is undefined where any node's value, literals included, is not
finite, so ``1e400`` is undefined and so is ``1/exp(1000*x)`` at ``x = 1``.
Only ``/``, ``exp`` and a power can turn a non-finite operand finite
(``1/inf``, ``exp(-inf)``, ``inf^0``), so only they check operands; every
other node passes a non-finite value on, and the root checks it.  The array
form of a power with an array base and a positive finite float exponent
checks neither operand, since a non-finite base gives a non-finite power.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .exceptions import EvalError, ParseError

__all__ = [
    "FunctionExpr",
    "parse",
    "evaluate",
    "evaluate_array",
    "product",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS = {"sqrt": 1, "exp": 1, "ln": 1, "abs": 1, "pow": 2}

# whitespace (``\s`` is exactly ``str.isspace``), then one token or none
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))?")
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, pos = [], 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        pos = m.end()
        kind = m.lastgroup
        if kind is None:
            if pos < len(text):
                raise ParseError(pos, f"unexpected character {text[pos]!r}")
            tokens.append(("end", "", pos))
            return tokens
        tokens.append((kind, m[kind], m.start(kind)))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # nesting of factor(), which every recursion passes through

    def take(self, ops: str) -> str | None:
        """Consume and return the next token if it is an operator in ``ops``."""
        kind, text, _ = self.tokens[self.i]
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def expect(self, op: str):
        if not self.take(op):
            raise ParseError(self.tokens[self.i][2], f"expected {op!r}")

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(pos, f"unexpected trailing input {text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while op := self.take("+-"):
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while op := self.take("*/"):
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(self.tokens[self.i][2], f"expression nests deeper than {MAX_DEPTH} levels")
        node = Neg(self.factor()) if self.take("-") else self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        return BinOp("^", base, self.factor()) if self.take("^") else base

    def atom(self) -> Node:
        if self.take("("):
            node = self.expr()
            self.expect(")")
            return node
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            arity = FUNCTIONS.get(text)
            if arity is None:
                raise ParseError(pos, f"unknown identifier {text!r}")
            self.expect("(")
            args = [self.expr()]
            while self.take(","):
                args.append(self.expr())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(pos, f"{text} takes {arity} argument(s), got {len(args)}")
            return BinOp("^", *args) if text == "pow" else Call(text, tuple(args))
        if kind == "end":
            raise ParseError(pos, "unexpected end of input")
        raise ParseError(pos, f"unexpected {text!r}")


@dataclass(frozen=True)
class FunctionExpr:
    """An immutable parsed expression in the single variable ``x``."""

    root: Node

    # compiled on first use; not part of equality, hashing, repr or pickled state
    @cached_property
    def _scalar(self):
        return _compile(self.root, _SCALAR)

    def __getstate__(self):
        return {"root": self.root}


def _tree_depth(root: Node) -> int:
    """Nodes on the longest root-to-leaf path, found without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Neg):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, Call):
            stack += [(arg, depth + 1) for arg in node.args]
    return deepest


def parse(text: str) -> FunctionExpr:
    """Parse expression text; raises :class:`ParseError` with a position."""
    root = _Parser(text).parse()
    if _tree_depth(root) > MAX_DEPTH:
        raise ParseError(0, f"expression tree is deeper than {MAX_DEPTH} levels")
    return FunctionExpr(root)


def _compile(node: Node, ops: dict):
    """``node`` as a callable of ``x`` (a float or an array) under the operator table ``ops``.

    Each node's entry is looked up here, once, and bound into its closure, and
    a literal operand is bound as its value.  Operands run left to right, so a
    call runs the same entries on the same values in the same order as a walk
    of the tree.
    """
    kind = type(node)
    if kind is Var:
        return _identity
    if kind is Num:
        value = node.value
        return lambda x: value
    if kind is Neg:
        operand = _compile(node.operand, ops)
        return lambda x: -operand(x)
    if kind is Call:
        op, arg = ops[node.name], _compile(node.args[0], ops)
        return lambda x: op(arg(x))
    op, left, right = ops[node.op], node.left, node.right
    if type(right) is Num:
        b, first = right.value, _compile(left, ops)
        return lambda x: op(first(x), b)
    if type(left) is Num:
        a, second = left.value, _compile(right, ops)
        return lambda x: op(a, second(x))
    first, second = _compile(left, ops), _compile(right, ops)
    return lambda x: op(first(x), second(x))


def _identity(x):  # shared by every x leaf, so a leaf costs no closure
    return x


def _divide(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise EvalError("non-finite operand of /")
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _power(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise EvalError("non-finite operand of a power")
    if a < 0.0 and not float(b).is_integer():
        raise EvalError("fractional power of a negative base")
    if a == 0.0 and b < 0.0:
        raise EvalError("zero raised to a negative power")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("overflow in a power") from None


def _exp(a: float) -> float:
    if not math.isfinite(a):
        raise EvalError("non-finite operand of exp")
    try:
        return math.exp(a)
    except OverflowError:
        raise EvalError("overflow in exp") from None


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise EvalError("square root of a negative value")
    return math.sqrt(a)


def _ln(a: float) -> float:
    if a <= 0.0:
        raise EvalError("ln of a non-positive value")
    return math.log(a)


_SCALAR = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
           "^": _power, "exp": _exp, "sqrt": _sqrt, "ln": _ln, "abs": abs}


def _nan_where_operand_nonfinite(ufunc):
    """Array table entry for / exp and checked powers: ``ufunc``, NaN at a non-finite operand."""
    def entry(*args):
        out = ufunc(*args)
        for a in args:
            if isinstance(a, float):  # a literal or constant operand: no array pass
                if not math.isfinite(a):
                    out = np.where(False, out, np.nan)
            elif not (finite := np.isfinite(a)).all():
                out = np.where(finite, out, np.nan)
        return out
    return entry


_checked_power = _nan_where_operand_nonfinite(np.power)


def _array_power(a, b):
    """Array table entry for ^; no check for a positive finite float exponent."""
    if isinstance(a, float) or not (isinstance(b, float) and 0.0 < b < math.inf):
        return _checked_power(a, b)
    return np.power(a, b)


# / and exp check every array operand; ^ checks as _array_power says.
_ARRAY = {"+": np.add, "-": np.subtract, "*": np.multiply,
          "/": _nan_where_operand_nonfinite(np.divide),
          "^": _array_power,
          "exp": _nan_where_operand_nonfinite(np.exp),
          "sqrt": np.sqrt, "ln": np.log, "abs": np.abs}


def evaluate(f: FunctionExpr, x: float) -> float:
    """Evaluate ``f`` at ``x``; raises :class:`EvalError` where undefined."""
    out = f._scalar(float(x))
    if not math.isfinite(out):
        raise EvalError("non-finite intermediate value")
    return out


def evaluate_array(f: FunctionExpr, xs) -> np.ndarray:
    """Vectorized evaluation; points where ``f`` is undefined come back NaN."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        out = _compile(f.root, _ARRAY)(xs)
        if out is xs or np.ndim(out) == 0:  # a bare x or a constant: copy, never share
            out = np.array(np.broadcast_to(out, xs.shape), dtype=float)
        finite = np.isfinite(out)
        if not finite.all():
            out[~finite] = np.nan
    return out


def product(f: FunctionExpr, g: FunctionExpr) -> FunctionExpr:
    """Pointwise product of two parsed expressions."""
    return FunctionExpr(BinOp("*", f.root, g.root))
