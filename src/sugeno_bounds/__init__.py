"""Sugeno integrals, (s,m)-convexity checks, and endpoint product bounds.

The library evaluates Sugeno (fuzzy) integrals of expression-defined
functions over intervals, checks (s,m)-convexity in the second sense on
grids, and computes the endpoint-only thresholds that bound integrals of
products of such functions.  A small CLI (``sugeno-bounds``) exposes the
same operations plus a ``reproduce`` command for the bundled worked cases.
"""

from .bounds import (
    CASE_TIE_TOL,
    HOLDS_TOL,
    BetaResult,
    CaseTag,
    VerificationReport,
    classify_case,
    endpoint_bound,
    envelope_distribution,
    hadamard_bound,
    kirmaci_bound,
    verify_hadamard,
)
from .convexity import (
    ConvexityVerdict,
    EndpointData,
    EnvelopeFunction,
    SMParams,
    check_sm_convex,
    endpoint_data,
    envelope,
    power_sum_gap,
)
from .exceptions import (
    BracketError,
    DomainError,
    EvalError,
    InvalidDistortionError,
    NegativeFunctionError,
    ParseError,
    PreconditionError,
    UnsupportedCaseError,
)
from .expr import FunctionExpr, constant, evaluate, evaluate_array, parse, product, variable
from .measure import (
    AxiomReport,
    Interval,
    IntervalUnion,
    MeasureSpec,
    distortion,
    lebesgue,
    measure_of,
    verify_fuzzy_measure_axioms,
)
from .rootfind import FixedPointResult, SolverConfig, solve_sign_change, solve_sup_threshold
from .sugeno import (
    DEFAULT_GRID,
    DistributionProfile,
    IntegralResult,
    PropertyReport,
    check_proposition_properties,
    distribution_profile,
    sugeno_integral,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "FunctionExpr", "parse", "evaluate", "evaluate_array",
    "constant", "variable", "product",
    # measures
    "Interval", "IntervalUnion", "MeasureSpec", "lebesgue", "distortion",
    "measure_of", "AxiomReport", "verify_fuzzy_measure_axioms",
    # root finding
    "SolverConfig", "FixedPointResult", "solve_sup_threshold", "solve_sign_change",
    # integrals
    "DEFAULT_GRID", "IntegralResult", "DistributionProfile", "sugeno_integral",
    "distribution_profile", "PropertyReport", "check_proposition_properties",
    # convexity
    "SMParams", "ConvexityVerdict", "EndpointData", "endpoint_data",
    "check_sm_convex", "power_sum_gap", "EnvelopeFunction", "envelope",
    # bounds
    "CaseTag", "BetaResult", "classify_case", "kirmaci_bound",
    "envelope_distribution", "endpoint_bound", "hadamard_bound",
    "VerificationReport", "verify_hadamard",
    "CASE_TIE_TOL", "HOLDS_TOL",
    # errors
    "ParseError", "EvalError", "BracketError", "DomainError",
    "NegativeFunctionError", "PreconditionError",
    "UnsupportedCaseError", "InvalidDistortionError",
]
