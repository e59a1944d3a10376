"""Parsing and evaluation of univariate real function expressions.

Grammar (standard infix over the single variable ``x``)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?      # right-associative, binds tightest
    atom    := NUMBER | 'x' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Named functions: ``sqrt``, ``exp``, ``ln``, ``abs`` (one argument) and
``pow`` (two arguments).  Unary minus binds below ``^``, so ``-x^2`` means
``-(x^2)``.  There is no implicit multiplication.  Parsed trees are
immutable and evaluation is pure, so expressions are safe to share.

``parse`` rejects an expression nested deeper than ``MAX_DEPTH`` levels in
the grammar (parentheses, unary minus, ``^``, call arguments) or in the tree
it builds (operands of ``+ - * /`` too), so neither parsing nor evaluation
can hit the recursion limit.  A bare ``x`` is one level deep.

Evaluation is strict about definedness: division by zero, ``ln`` of a
non-positive value, fractional powers of negative bases, and non-finite
intermediates all raise :class:`EvalError`.  The vectorized route
(:func:`evaluate_array`) marks such points NaN instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .exceptions import EvalError, ParseError

__all__ = [
    "FunctionExpr",
    "parse",
    "evaluate",
    "evaluate_array",
    "constant",
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

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OP_CHARS = "+-*/^(),"
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OP_CHARS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(pos, f"unexpected character {ch!r}")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # nesting of factor(), which every recursion passes through

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(pos, f"expected {op!r}")
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, f"unexpected trailing input {text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(pos, f"expression nests deeper than {MAX_DEPTH} levels")
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            arity = FUNCTIONS.get(text)
            if arity is None:
                raise ParseError(pos, f"unknown identifier {text!r}")
            self.expect_op("(")
            args = [self.expr()]
            while True:
                k2, t2, _ = self.peek()
                if k2 == "op" and t2 == ",":
                    self.advance()
                    args.append(self.expr())
                else:
                    break
            self.expect_op(")")
            if len(args) != arity:
                raise ParseError(pos, f"{text} takes {arity} argument(s), got {len(args)}")
            return Call(text, tuple(args))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError(pos, "unexpected end of input")
        raise ParseError(pos, f"unexpected {text!r}")


@dataclass(frozen=True)
class FunctionExpr:
    """An immutable parsed expression in the single variable ``x``."""

    root: Node
    source_text: str


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
    return FunctionExpr(root, text)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise EvalError("non-finite intermediate value")
    return value


def _pow(base: float, exponent: float) -> float:
    if base < 0.0 and not float(exponent).is_integer():
        raise EvalError("fractional power of a negative base")
    if base == 0.0 and exponent < 0.0:
        raise EvalError("zero raised to a negative power")
    try:
        out = math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power failed: {exc}") from None
    return _finite(out)


def _eval(node: Node, x: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, BinOp):
        left = _eval(node.left, x)
        right = _eval(node.right, x)
        if node.op == "+":
            return _finite(left + right)
        if node.op == "-":
            return _finite(left - right)
        if node.op == "*":
            return _finite(left * right)
        if node.op == "/":
            if right == 0.0:
                raise EvalError("division by zero")
            return _finite(left / right)
        return _pow(left, right)
    arg = _eval(node.args[0], x)
    if node.name == "sqrt":
        if arg < 0.0:
            raise EvalError("square root of a negative value")
        return math.sqrt(arg)
    if node.name == "exp":
        try:
            return _finite(math.exp(arg))
        except OverflowError:
            raise EvalError("overflow in exp") from None
    if node.name == "ln":
        if arg <= 0.0:
            raise EvalError("ln of a non-positive value")
        return math.log(arg)
    if node.name == "abs":
        return abs(arg)
    return _pow(arg, _eval(node.args[1], x))


def evaluate(f: FunctionExpr, x: float) -> float:
    """Evaluate ``f`` at ``x``; raises :class:`EvalError` where undefined."""
    return _eval(f.root, float(x))


def _eval_np(node: Node, xs: np.ndarray):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return xs
    if isinstance(node, Neg):
        return np.negative(_eval_np(node.operand, xs))
    if isinstance(node, BinOp):
        left = _eval_np(node.left, xs)
        right = _eval_np(node.right, xs)
        if node.op == "+":
            return np.add(left, right)
        if node.op == "-":
            return np.subtract(left, right)
        if node.op == "*":
            return np.multiply(left, right)
        if node.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    arg = _eval_np(node.args[0], xs)
    if node.name == "sqrt":
        return np.sqrt(arg)
    if node.name == "exp":
        return np.exp(arg)
    if node.name == "ln":
        return np.log(arg)
    if node.name == "abs":
        return np.abs(arg)
    return np.power(arg, _eval_np(node.args[1], xs))


def evaluate_array(f: FunctionExpr, xs) -> np.ndarray:
    """Vectorized evaluation; points where ``f`` is undefined come back NaN."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval_np(f.root, xs)
    out = np.array(np.broadcast_to(out, xs.shape), dtype=float)
    out[~np.isfinite(out)] = np.nan
    return out


def constant(value: float) -> FunctionExpr:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError("constant must be finite")
    return FunctionExpr(Num(v), repr(v))


def product(f: FunctionExpr, g: FunctionExpr) -> FunctionExpr:
    """Pointwise product of two parsed expressions."""
    return FunctionExpr(BinOp("*", f.root, g.root), f"({f.source_text})*({g.source_text})")
