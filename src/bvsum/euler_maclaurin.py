"""Euler-Maclaurin summation for piecewise-monotone BV functions.

The finite-sum identity, sum-from-partial approximation, Euler
constants, the integral criterion for series, asymptotics, and the
mid-value / integration-by-parts identity checks.  Every remainder is
reported as a certified bound (half the pointwise variation of the
relevant interval), never as a point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bv import (
    BvFunction,
    Certified,
    evaluate,
    left_limit,
    mid_value_strict,
    pointwise_variation,
    summands_at_integers,
)
from .errors import (
    DomainError,
    SeriesDivergent,
)
from .measure import (
    DIVERGENT,
    DEFAULT_TOL,
    _beta1_claim,
    _certify,
    _integral_claim,
    _mid_grid,
    _midvalue_claim,
    _require_int,
    _strict_left,
    integrate,
    tail_integral,
)

IDENTITY_SLACK = 1e-9  # absolute allowance on top of certified radii

GAMMA_REFERENCE_INDEX = 10_000


@dataclass(frozen=True, slots=True)
class EmReport:
    """Full decomposition of a finite sum: sum_{a<=k<b} f(k) equals
    integral + boundary + R with |R| <= remainder_bound."""

    exact_sum: float | None
    integral_term: Certified
    boundary_term: float
    remainder_bound: float
    approx: Certified


@dataclass(frozen=True, slots=True)
class GammaReport:
    """gamma_n = sum_{0<=k<n} f(k) - integral_0^n f, and the certified
    estimate of the Euler constant gamma = lim gamma_n built from it."""

    n: int
    gamma_n: Certified
    gamma_estimate: Certified


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Two independently computed sides of an identity plus the allowed
    residual budget (combined certified radii + fixed slack)."""

    lhs: float
    rhs: float
    residual: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget


class Convergence(Enum):
    BOTH_CONVERGE = "both-converge"
    BOTH_DIVERGE = "both-diverge"


def _direct_sum(f: BvFunction, a: int, b: int) -> float:
    # math.fsum is exactly rounded, stronger than compensated summation;
    # the summands stream from the pieces' block kernels, run by run, in
    # increasing k: the values bit for bit as evaluate gives them, or one
    # zero for a run that is that zero, which fsum takes as the run's
    # zeros.  So the sum is the term-by-term one and memory does not grow
    # with b - a
    return math.fsum(summands_at_integers(f, a, b))


def _check_integers_in_domain(f: BvFunction, a: int, b: int) -> None:
    if a < f.domain_lo or b > f.domain_hi:
        raise DomainError(f"[{a}, {b}] outside domain")


def _em_terms(f: BvFunction, lo: float, hi: float) -> tuple[float, float]:
    """The boundary term -(f(hi)-f(lo))/2 of the Euler-Maclaurin identity
    on [lo, hi] and its remainder bound pV(f,[lo,hi])/2; f(inf) is the
    tail limit."""
    f_hi = f.tail.limit_at_infinity if math.isinf(hi) else evaluate(f, hi)
    return -0.5 * (f_hi - evaluate(f, lo)), 0.5 * pointwise_variation(f, lo, hi)


def em_finite_sum(f: BvFunction, a: int, b: int, tol: float = DEFAULT_TOL,
                  exact: bool = True) -> EmReport:
    """sum_{a<=k<b} f(k) = integral_a^b f - (f(b)-f(a))/2 + R with
    |R| <= pV(f,[a,b])/2; for a monotone representation the bound
    automatically collapses to |f(b)-f(a)|/2."""
    a, b = _require_int(a), _require_int(b)
    if a >= b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    _check_integers_in_domain(f, a, b)
    integral = integrate(f, float(a), float(b), tol)
    boundary, remainder = _em_terms(f, float(a), float(b))
    approx = Certified(integral.value + boundary, integral.radius + remainder)
    direct = _direct_sum(f, a, b) if exact else None
    return EmReport(direct, integral, boundary, remainder, approx)


def approx_from_partial(f: BvFunction, n: int, N: int,
                        tol: float = DEFAULT_TOL) -> Certified:
    """Certified estimate of sum_{0<=k<N} f(k) evaluating f only on
    [0, n]: partial sum + integral_n^N f - (f(N)-f(n))/2, with radius
    quadrature + pV(f,[n,N])/2."""
    n, N = _require_int(n), _require_int(N)
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    _check_integers_in_domain(f, 0, N)
    partial = _direct_sum(f, 0, n)
    if n == N:
        return Certified(partial, 0.0)
    integral = integrate(f, float(n), float(N), tol)
    boundary, remainder = _em_terms(f, float(n), float(N))
    return Certified(partial + integral.value + boundary,
                     integral.radius + remainder)


def gamma_partial(f: BvFunction, n: int, tol: float = DEFAULT_TOL) -> Certified:
    """gamma_n = sum_{0<=k<n} f(k) - integral_0^n f; radius is the
    quadrature radius only."""
    n = _require_int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _check_integers_in_domain(f, 0, max(n, 0))
    if n == 0:
        return Certified(0.0, 0.0)
    integral = integrate(f, 0.0, float(n), tol)
    return Certified(_direct_sum(f, 0, n) - integral.value, integral.radius)


def _require_half_line_from_zero(f: BvFunction) -> None:
    if not f.is_half_line:
        raise DomainError("operation needs a half-line domain")
    if f.domain_lo > 0:
        raise DomainError("operation needs the domain to contain [0, inf)")


def _require_tail_index(f: BvFunction, n) -> int:
    """n as an int >= 0, for f on a half-line that contains [0, inf)."""
    n = _require_int(n)
    _require_half_line_from_zero(f)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return n


def euler_constant(f: BvFunction, n: int, tol: float = DEFAULT_TOL) -> GammaReport:
    """Certified enclosure of gamma^f = lim gamma_n: the estimate is
    gamma_n - (f(inf)-f(n))/2 with radius gamma_n.radius +
    pV(f,[n,inf))/2."""
    n = _require_tail_index(f, n)
    gn = gamma_partial(f, n, tol)
    boundary, remainder = _em_terms(f, float(n), math.inf)
    estimate = Certified(gn.value + boundary, gn.radius + remainder)
    return GammaReport(n, gn, estimate)


def classify_convergence(f: BvFunction) -> Convergence:
    """Integral criterion: the series sum f(k) and integral_0^inf f
    either both converge or both diverge; decided by the finiteness of
    the tail antiderivative limit."""
    _require_half_line_from_zero(f)
    probe = tail_integral(f, max(0.0, f.pieces[-1].lo))
    if probe is DIVERGENT:
        return Convergence.BOTH_DIVERGE
    return Convergence.BOTH_CONVERGE


def series_sum(f: BvFunction, n: int, tol: float = DEFAULT_TOL) -> Certified:
    """Certified enclosure of sum_{k=0}^inf f(k): partial sum to n plus
    tail integral minus (f(inf)-f(n))/2, radius = tail-integral radius
    + pV(f,[n,inf))/2.  SeriesDivergent when the integral criterion
    classifies both as divergent."""
    n = _require_tail_index(f, n)
    tail = tail_integral(f, float(n), tol)
    if tail is DIVERGENT:
        raise SeriesDivergent("series and improper integral both diverge")
    partial = _direct_sum(f, 0, n)
    boundary, remainder = _em_terms(f, float(n), math.inf)
    return Certified(partial + tail.value + boundary, tail.radius + remainder)


def asymptotic_sum(f: BvFunction, n: int, tol: float = DEFAULT_TOL,
                   n_gamma: int | None = None) -> Certified:
    """Certified enclosure of sum_{0<=k<n} f(k) as gamma^f + integral_0^n f,
    with radius = gamma-enclosure radius + quadrature radius +
    pV(f,[n,inf)).  gamma^f is enclosed by euler_constant at the
    reference index n_gamma (default max(n, 10^4))."""
    n = _require_tail_index(f, n)
    ref = max(n, GAMMA_REFERENCE_INDEX) if n_gamma is None else _require_int(n_gamma)
    gamma = euler_constant(f, ref, tol).gamma_estimate
    integral = integrate(f, 0.0, float(n), tol)
    remainder = pointwise_variation(f, float(n), math.inf)
    return Certified(gamma.value + integral.value,
                     gamma.radius + integral.radius + remainder)


def em_midvalue_check(f: BvFunction, a: int, b: int,
                      tol: float = DEFAULT_TOL) -> CheckReport:
    """Residual of the mid-value identity
    sum_{a<=k<b} f_m(k)  =  integral_a^b f - (f(b-)-f(a-))/2
                            + integral_{]a,b[} beta1 d(mu_f),
    both sides computed by this library's own certified routines.
    Exterior left limits at a and b must exist (breakpoint data or a
    domain that reaches past them).  The bracketed segments of both
    integrals are refined in one walk; the results and errors are those
    of integrate and stieltjes_beta1 called in turn, with the limits
    between them."""
    a, b = _require_int(a), _require_int(b)
    if a >= b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    _check_integers_in_domain(f, a, b)
    lhs = math.fsum(mid_value_strict(f, float(k)) for k in range(a, b))
    first = _integral_claim(f, float(a), float(b), tol)
    try:
        boundary = -0.5 * (left_limit(f, float(b), strict=True)
                           - left_limit(f, float(a), strict=True))
        second = _beta1_claim(f, a, b, tol)
    except Exception:
        _certify(first)  # the integral's errors come first
        raise
    integral, stieltjes = _certify(first, second)
    rhs = integral.value + boundary + stieltjes.value
    budget = integral.radius + stieltjes.radius + IDENTITY_SLACK
    return CheckReport(lhs, rhs, abs(lhs - rhs), budget)


def parts_check(f: BvFunction, g: BvFunction, a: float, b: float,
                tol: float = DEFAULT_TOL) -> CheckReport:
    """Residual of the integration-by-parts identity over [a, b[:
    integral g_m d(mu_f) + integral f_m d(mu_g)
        = g(b-) f(b-) - g(a-) f(a-).
    Both integrals are refined in one walk, evaluating each expression
    once at each point; the results and errors are those of
    stieltjes_midvalue called for each in turn."""
    if not (a < b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    mid = _mid_grid(f, g, a, b)  # one grid, search and limit table
    first = _midvalue_claim(g, f, a, b, tol, mid)
    try:
        second = _midvalue_claim(f, g, a, b, tol, mid)
    except Exception:
        _certify(first)  # the first integral's errors come first
        raise
    i1, i2 = _certify(first, second)
    lhs = i1.value + i2.value
    # left_limit(., ., strict=True) at b and a, the grid's ends
    n = len(mid.grid) - 1
    rhs = (_strict_left(mid, g, n) * _strict_left(mid, f, n)
           - _strict_left(mid, g, 0) * _strict_left(mid, f, 0))
    budget = i1.radius + i2.radius + IDENTITY_SLACK
    return CheckReport(lhs, rhs, abs(lhs - rhs), budget)
