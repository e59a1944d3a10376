"""Exception types shared across the package.

A usage error (a malformed expression, an option out of range) is a
``ValueError``; an input that is well formed but has no answer raises a
``NoAnswerError``.  The CLI maps the first to exit code 2 and the second to 3.
"""

from __future__ import annotations

__all__ = [
    "NoAnswerError",
    "ParseError",
    "EvalError",
    "BracketError",
    "DomainError",
    "NegativeFunctionError",
    "UnsupportedCaseError",
    "InvalidDistortionError",
]


class NoAnswerError(Exception):
    """The input is well formed but has no answer."""


class ParseError(ValueError):
    """Expression text could not be parsed.

    ``position`` is the character offset of the offending token in the
    original text.
    """

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.message = message


class EvalError(NoAnswerError):
    """An expression could not be evaluated to a finite real."""


class BracketError(NoAnswerError):
    """A bisection bracket does not enclose a solution."""


class DomainError(NoAnswerError):
    """An argument lies outside the mathematically valid domain."""


class NegativeFunctionError(NoAnswerError):
    """A function that must be non-negative (an integrand, a bound factor) is negative somewhere."""

    def __init__(self, witness_x: float, value: float):
        super().__init__(f"function is negative at x={witness_x!r}: {value!r}")
        self.witness_x = witness_x
        self.value = value


class UnsupportedCaseError(NoAnswerError):
    """The endpoint configuration admits no supported bound or distribution."""


class InvalidDistortionError(NoAnswerError):
    """A distortion map violates phi(0) = 0 or monotonicity."""
