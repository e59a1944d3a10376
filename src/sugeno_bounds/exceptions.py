"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ParseError",
    "EvalError",
    "BracketError",
    "DomainError",
    "NegativeFunctionError",
    "UnsupportedCaseError",
    "InvalidDistortionError",
]


class ParseError(Exception):
    """Expression text could not be parsed.

    ``position`` is the character offset of the offending token in the
    original text.
    """

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.message = message


class EvalError(Exception):
    """An expression could not be evaluated to a finite real."""


class BracketError(Exception):
    """A bisection bracket does not enclose a solution."""


class DomainError(Exception):
    """An argument lies outside the mathematically valid domain."""


class NegativeFunctionError(Exception):
    """A function that must be non-negative (an integrand, a bound factor) is negative somewhere."""

    def __init__(self, witness_x: float, value: float):
        super().__init__(f"function is negative at x={witness_x!r}: {value!r}")
        self.witness_x = witness_x
        self.value = value


class UnsupportedCaseError(Exception):
    """The endpoint configuration admits no supported bound or distribution."""


class InvalidDistortionError(Exception):
    """A distortion map violates phi(0) = 0 or monotonicity."""
