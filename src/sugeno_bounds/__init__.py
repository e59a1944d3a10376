"""Sugeno integrals, (s,m)-convexity checks, and endpoint product bounds.

The library evaluates Sugeno (fuzzy) integrals of expression-defined
functions over intervals, checks (s,m)-convexity in the second sense on
grids, and computes the endpoint-only thresholds that bound integrals of
products of such functions.  A small CLI (``sugeno-bounds``) exposes the
same operations plus a ``reproduce`` command for the bundled worked cases.
The package root re-exports the entry points; everything else lives in its
module (``expr``, ``measure``, ``rootfind``, ``sugeno``, ``convexity``,
``bounds``, ``cli``).
"""

from .bounds import hadamard_bound, verify_hadamard
from .convexity import SMParams, check_sm_convex
from .exceptions import (
    BracketError,
    DomainError,
    EvalError,
    InvalidDistortionError,
    NegativeFunctionError,
    NoAnswerError,
    ParseError,
    UnsupportedCaseError,
)
from .expr import parse
from .measure import Interval, distortion, lebesgue
from .sugeno import sugeno_integral

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "parse", "Interval", "SMParams", "lebesgue", "distortion",
    "sugeno_integral", "check_sm_convex", "hadamard_bound", "verify_hadamard",
    "NoAnswerError", "ParseError", "EvalError", "BracketError", "DomainError",
    "NegativeFunctionError", "UnsupportedCaseError", "InvalidDistortionError",
]
