"""Certified summation for piecewise-monotone functions of bounded variation.

Finite sums, infinite series and Euler constants come with rigorous
error radii derived from pointwise-variation bounds; the package also
computes the Lebesgue-Stieltjes measure of a BV function and verifies
the measure-theoretic identities relating it to the pointwise variation.
"""

from .bv import (
    BvFunction,
    Breakpoint,
    Certified,
    MonotonePiece,
    TailSpec,
    evaluate,
    jordan_decompose,
    left_limit,
    limits,
    mid_value,
    pointwise_variation,
    rho,
    right_limit,
    validate,
)
from .errors import (
    BadAntiderivative,
    BvError,
    DomainError,
    ExteriorLimitRequired,
    MissingAntiderivative,
    NonIntegerBounds,
    SeriesDivergent,
    ToleranceUnreachable,
    ValidationError,
    Violation,
)
from .euler_maclaurin import (
    CheckReport,
    Convergence,
    EmReport,
    GammaReport,
    approx_from_partial,
    asymptotic_sum,
    classify_convergence,
    em_finite_sum,
    em_midvalue_check,
    euler_constant,
    gamma_partial,
    parts_check,
    series_sum,
)
from .expr import EvalError, Expr, ParseError, eval_expr, parse, render
from .measure import (
    DIVERGENT,
    Divergent,
    IntervalSpec,
    StieltjesResult,
    beta1,
    integrate,
    measure_interval,
    stieltjes_beta1,
    stieltjes_midvalue,
    tail_integral,
    total_variation_measure,
)
from .specfile import load_function, load_spec

__version__ = "0.1.0"

__all__ = [
    "BvFunction", "Breakpoint", "Certified", "MonotonePiece", "TailSpec",
    "evaluate", "jordan_decompose", "left_limit", "limits",
    "mid_value", "pointwise_variation", "rho",
    "right_limit", "validate",
    "BvError", "DomainError", "ExteriorLimitRequired", "ValidationError",
    "Violation", "ToleranceUnreachable", "SeriesDivergent",
    "MissingAntiderivative", "BadAntiderivative", "NonIntegerBounds",
    "CheckReport", "Convergence", "EmReport", "GammaReport",
    "approx_from_partial", "asymptotic_sum",
    "classify_convergence", "em_finite_sum", "em_midvalue_check",
    "euler_constant", "gamma_partial", "parts_check", "series_sum",
    "EvalError", "Expr", "ParseError", "eval_expr", "parse", "render",
    "DIVERGENT", "Divergent", "IntervalSpec", "StieltjesResult", "beta1",
    "integrate", "measure_interval", "stieltjes_beta1", "stieltjes_midvalue",
    "tail_integral", "total_variation_measure",
    "load_function", "load_spec",
]
