"""Stieltjes measure of a BV function, certified quadrature against dx and
against d(mu_f), and the periodic first Bernoulli kernel.

Every approximate routine returns a Certified(value, radius) enclosure.
A piece with a validated antiderivative contributes its closed form with
an ulp-scale radius.  Other monotone pieces are integrated by midpoint-
trapezoid brackets: each cell of an n-cell grid is classed by the second
differences at its ends and midpoint.  Convex: by Hermite-Hadamard its
integral lies between the midpoint sum M and the trapezoid sum T;
concave: between T and M; flat within rounding: between both, widened by
h * delta; neither: between the Darboux sums of its halves.  beta1
against d(mu_f) is reduced to such integrals by parts.  A mid-value
integral of g against d(mu_f) on a cell is the integral of the monotone
phi = g o f^-1 over f's range, with nodes (f(x_k), g(x_k)) at the grid
points: each pair of cells is classed by the cross differences at its
ends and middle, and bracketed between the trapezoid sum and the
secants extended from its other cell, both ways if flat within
rounding; every pair is capped by its Darboux bracket |dg| * |df|.
Convexity is sampled on the grid, as monotonicity is in validate, not
proved.

integrate, stieltjes_beta1 and stieltjes_midvalue share one refinement
engine, in two phases.  A routine's prepare phase (_prepare) reserves
each segment's rounding floor, refusing a tol that does not cover the
floors, and splits the rest over the segments.  _certify then refines
the segments of one or more routines on one route in one _refine call,
which grows their grids round by round from the measured error, and
finishes each routine in turn: it sums the values and checks the radius
against tol.  So em_midvalue_check and parts_check refine both halves
of their identities in one walk.  _walk
evaluates the grids of all segments together, in chunks of _CHUNK cells:
chunks of one cell count are rows of one 2-D grid of at most _BATCH
points, and eval_rows runs the rows of one expression shape as one
program; longer chunks are walked in blocks of at most _BATCH points.
Every point, value and sum is the float operation of a lone segment's
grid, so results and errors are those of refining one segment after the
other, and one routine after the other: the error raised is the first
failing segment's.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .bv import (
    BvFunction,
    Certified,
    MonotonePiece,
    left_limit,
    right_limit,
    _BATCH,
    _segment_endpoint_values,
)
from .errors import (
    DomainError,
    MissingAntiderivative,
    NonIntegerBounds,
    ToleranceUnreachable,
)

_EPS = sys.float_info.epsilon
MAX_CELLS = 1 << 24  # subdivision cap per piece segment
_CHUNK = 1 << 20

DEFAULT_TOL = 1e-10


def _slack(*vals: float) -> float:
    """Ulp-scale radius covering the rounding of a short computation."""
    return 8.0 * _EPS * math.fsum(abs(v) for v in vals)


def _underflow(product: float, factor: float) -> float:
    """A bound on the error of product, a factor times a nonzero float,
    if it rounded below the normal range, else 0: the least subnormal,
    twice what rounding to nearest loses there."""
    if factor != 0.0 and abs(product) < sys.float_info.min:
        return 5e-324
    return 0.0


@dataclass(frozen=True)
class Divergent:
    """Marker result: the improper integral has no finite value."""


DIVERGENT = Divergent()


@dataclass(frozen=True)
class IntervalSpec:
    """An interval with explicit closed/open flags at each end."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @classmethod
    def open(cls, lo: float, hi: float) -> "IntervalSpec":
        return cls(lo, hi, False, False)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "IntervalSpec":
        return cls(lo, hi, True, True)

    @classmethod
    def singleton(cls, x: float) -> "IntervalSpec":
        return cls(x, x, True, True)

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.closed_lo and self.closed_hi)

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi and self.closed_lo and self.closed_hi


@dataclass(frozen=True, slots=True)
class StieltjesResult:
    """Certified Stieltjes integral split into jump and continuous parts."""

    certified: Certified
    atom_contribution: float
    continuous_contribution: Certified

    @property
    def value(self) -> float:
        return self.certified.value

    @property
    def radius(self) -> float:
        return self.certified.radius


def measure_interval(f: BvFunction, iv: IntervalSpec) -> float:
    """Signed measure mu_f of the interval, via one-sided limits:
    ]c,d[ -> f(d-)-f(c+), [c,d] -> f(d+)-f(c-), [c,d[ -> f(d-)-f(c-),
    ]c,d] -> f(d+)-f(c+), {c} -> f(c+)-f(c-)."""
    if iv.is_empty:
        return 0.0
    if iv.lo < f.domain_lo or iv.hi > f.domain_hi:
        raise DomainError(f"interval [{iv.lo}, {iv.hi}] outside domain")
    if iv.is_singleton:
        return right_limit(f, iv.lo, strict=True) - left_limit(f, iv.lo, strict=True)
    hi_val = (right_limit(f, iv.hi, strict=True) if iv.closed_hi
              else left_limit(f, iv.hi, strict=True))
    lo_val = (left_limit(f, iv.lo, strict=True) if iv.closed_lo
              else right_limit(f, iv.lo, strict=True))
    return hi_val - lo_val


def total_variation_measure(f: BvFunction, iv: IntervalSpec) -> float:
    """|mu_f| of a bounded open interval (or an open half-line tail):
    sum of |piece increments| plus |jump| over interior breakpoints."""
    if iv.closed_lo or iv.closed_hi:
        raise ValueError("total_variation_measure needs an open interval")
    if iv.lo >= iv.hi:
        return 0.0
    if iv.lo < f.domain_lo or iv.hi > f.domain_hi:
        raise DomainError(f"interval ]{iv.lo}, {iv.hi}[ outside domain")
    terms: list[float] = []
    for p in f.pieces:
        s, t = max(iv.lo, p.lo), min(iv.hi, p.hi)
        if s >= t:
            continue
        vl, vr = _segment_endpoint_values(p, s, t)
        terms.append(abs(vr - vl))
    for bp in f.breakpoints:
        if iv.lo < bp.x < iv.hi:
            terms.append(abs(bp.jump))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Refinement engine shared by integrate, stieltjes_beta1 and stieltjes_midvalue


def _walk(jobs, bounds, curves, failed: dict, terms) -> dict:
    """Walk the uniform grids of the jobs (i, n), in segment order: per
    segment i the list of its chunks' sums.  Segment i's grid is the n+1
    points over bounds[i] = (s, t), cut into chunks of _CHUNK cells that
    share their end points; a chunk or block also takes the point beyond
    each end that is not a grid's (its pads).
    terms(rows, first, last, xs, errs, vals) gives a block's terms, a
    2-D array per term with a row per segment of rows; first and last
    tell whether it holds the grids' ends, and vals has the curves'
    values (curves[c][i] is segment i's expression) over the points xs
    but the grids' ends, curve c in the rows from c * len(rows) on.  A
    row that fails to evaluate records its segment's first EvalError in
    failed; later segments' rows are then skipped."""
    parts = {i: [] for i, _ in jobs}
    batches = {}
    for i, n in jobs:
        for start in range(0, n, _CHUNK):
            batches.setdefault((n, start), []).append(i)
    for (n, start), segs in batches.items():
        stop = min(n, start + _CHUNK)
        size = max(1, _BATCH // (stop - start + 1))
        for k in range(0, len(segs), size):
            cut = min(failed, default=math.inf)
            rows = [i for i in segs[k:k + size] if i < cut]
            if not rows:
                continue
            s = np.array([bounds[i][0] for i in rows])[:, None]
            block = functools.partial(
                _block, rows, n, s, np.array([bounds[i][1] for i in rows])[:, None] - s,
                curves, terms)
            if stop - start < _BATCH:
                sums = [np.sum(a, axis=1) for a in block(start, stop, failed)]
            else:
                sums = _blocks(block, start, stop)
                if sums is None:
                    # the whole chunk as one block records the error
                    # that the walk without blocks met
                    block(start, stop, failed)
                    continue
            for i, *sum_ in zip(rows, *sums):
                parts[i].append(sum_)
    return parts


def _block(rows, n: int, s, width, curves, terms, c0: int, c1: int, errs: dict):
    """The terms of the cells between the points c0 and c1 of the rows'
    n-cell grids over [s, s + width], pads included, evaluating the
    curves in order; errors go to errs."""
    first, last = c0 == 0, c1 == n
    p0, p1 = c0 - (not first), c1 + (not last)
    xs = width * (np.arange(p0, p1 + 1, dtype=np.float64) / n)
    xs += s  # s + (t - s) * (k / n), as for a lone grid
    inner = xs[:, int(first):xs.shape[1] - int(last)]
    return terms(rows, first, last, xs, errs, _evaluate(curves, rows, inner, errs))


def _blocks(block, start: int, stop: int):
    """The per-row sums of the cells start..stop, walked by block(c0, c1,
    errs) in blocks of at most _BATCH points, pads included, cut at even
    points: each term fills one buffer, summed once as the whole chunk's.
    None if a block fails, since its error may not be the chunk's."""
    blocks = -(-(stop - start) // (_BATCH - 4))  # cut into equal blocks
    cuts = [start + (stop - start) * j // blocks // 2 * 2 for j in range(blocks)]
    bufs, pos = None, None
    for c0, c1 in zip(cuts, cuts[1:] + [stop]):
        errs = {}
        terms = block(c0, c1, errs)
        if errs:
            return None
        if bufs is None:  # a term has an entry per cell or per two cells
            bufs = [np.empty((len(a), (stop - start) * a.shape[1] // (c1 - c0)))
                    for a in terms]
            pos = [0] * len(bufs)
        for k, (buf, a) in enumerate(zip(bufs, terms)):
            buf[:, pos[k]:pos[k] + a.shape[1]] = a
            pos[k] += a.shape[1]
    return [np.sum(buf[:, :p], axis=1) for buf, p in zip(bufs, pos)]


def _evaluate(curves, rows, xs, errs: dict):
    """Each curve's expressions for the segments rows over the points xs
    of each row, in one eval_rows call, the curves' rows stacked; a
    failing row records its segment's error in errs, if it is the first
    (an earlier curve's first)."""
    vals, errors = ex.eval_rows([c[i] for c in curves for i in rows],
                                np.concatenate([xs] * len(curves)) if len(curves) > 1 else xs)
    for r in sorted(errors):
        errs.setdefault(rows[r % len(rows)], errors[r])
    return vals


def _with_ends(vals, rows, ends, first: bool, last: bool):
    """A curve's values over whole grid rows: vals inside, and at a
    grid's ends the one-sided limits ends[i][:2] of segment i."""
    if not (first or last):
        return vals
    y = np.empty((vals.shape[0], vals.shape[1] + first + last))
    y[:, int(first):y.shape[1] - int(last)] = vals
    if first:
        y[:, 0] = [ends[i][0] for i in rows]
    if last:
        y[:, -1] = [ends[i][1] for i in rows]
    return y


class _Route(NamedTuple):
    """How fallback segments are refined: refine(segs, ends, budgets) ->
    (results, failed) refines them together (see _refine); budget(share,
    ends) is the part of a segment's share of tol that its refined error
    may take; post(seg, ends, result), if given, turns the route's
    (value, radius) of a segment into the routine's."""

    refine: Callable
    budget: Callable
    post: Callable | None = None


class _Claim(NamedTuple):
    """A routine's part of a refinement walk, as its prepare phase
    leaves it: tol, the closed-form values and radii, the fallback
    segments with their ends and budgets, and wrap, which makes the
    routine's result of its enclosure."""

    route: _Route
    tol: float
    values: list
    radii: list
    segs: list
    ends: list
    budgets: list
    wrap: Callable | None


def _prepare(route: _Route, tol: float, values: list[float], radii: list[float],
             fallback: list, weigh, wrap=None, reserved: float = 0.0) -> _Claim:
    """The prepare phase of a routine: weigh(*seg) -> (weight, floor,
    ends) gives each fallback segment its floor plus a share of the rest
    of tol, after the closed-form radii, the radius reserved for wrap to
    add and all floors, in proportion to weight; a tol that does not
    cover them is refused."""
    ends, budgets = [], []
    if fallback:
        budget = tol - math.fsum(radii) - reserved
        if budget > 0.0:
            weights, floors, ends = zip(*[weigh(*seg) for seg in fallback])
            budget -= math.fsum(floors)
        if not budget > 0.0:
            raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
        wsum = math.fsum(weights)
        budgets = [route.budget(floor + budget * w / wsum, e)
                   for w, floor, e in zip(weights, floors, ends)]
    return _Claim(route, tol, values, radii, fallback, ends, budgets, wrap)


def _certify(*claims: _Claim) -> list:
    """The results of the claims of routines on one route: the fallback
    segments of all of them go to one refine call, and then each claim
    is finished in turn: its first failing segment's error is raised, or
    its values sum to one enclosure, refused if its radius exceeds tol.
    A segment's grid, sums and radius depend on it alone, so results
    and errors are those of the routines called one after the other,
    provided the caller raises an error of a later routine's prepare
    phase only after certifying the claims before it."""
    segs = [seg for c in claims for seg in c.segs]
    ends = [e for c in claims for e in c.ends]
    budgets = [b for c in claims for b in c.budgets]
    out, failed = claims[0].route.refine(segs, ends, budgets)
    results, j = [], 0
    for c in claims:
        i, j = j, j + len(c.segs)
        if min(failed, default=j) < j:
            raise failed[min(failed)]
        done = out[i:j]
        if c.route.post is not None:
            done = [c.route.post(*args) for args in zip(c.segs, c.ends, done)]
        result = _total([*c.values, *(v for v, _ in done)], [*c.radii, *(r for _, r in done)])
        if not result.radius <= c.tol:
            raise ToleranceUnreachable(
                f"achieved radius {result.radius:.3g} exceeds tol {c.tol:.3g}")
        results.append(result if c.wrap is None else c.wrap(result))
    return results


def _total(values: list, radii: list) -> Certified:
    """The enclosure of the sum of values with radii: a radius of 0 says
    the values are exact, and then it covers the rounding of their sum."""
    result = Certified(math.fsum(values), math.fsum(radii))
    if result.radius == 0.0 and Fraction(result.value) != sum(map(Fraction, values)):
        return Certified(result.value, _slack(result.value))
    return result


def _refine(route: str, bounds, curves, terms, budgets, settle, *, n0: int):
    """Refine the segments over bounds[i] = (s, t) together, round by
    round from n0 cells: each pending segment i walks a grid of n cells,
    with pads (see _walk), and settle(i, n, parts) -> (value, err,
    rounding) reads its sums.  It is done, with radius err + rounding,
    when err fits budgets[i]; else n grows by a power of two, at least
    twofold, aiming just under the budget at order 2, up to the cap of
    MAX_CELLS cells.  -> (results, failed): failed maps failing segments
    to their errors, the first of which is sure to be there, and
    results[i] is segment i's (value, radius) if no segment up to i
    failed (the rows of later ones are skipped)."""
    ns = [n0] * len(bounds)
    out: list = [None] * len(bounds)
    failed: dict = {}
    pending = list(range(len(bounds)))
    while pending:
        parts = _walk([(i, ns[i]) for i in pending], bounds, curves, failed, terms)
        cut = min(failed, default=math.inf)
        grown = []
        for i in pending:
            if i >= cut:
                break
            value, err, rounding = settle(i, ns[i], parts[i])
            n, budget = ns[i], budgets[i]
            if err <= budget:
                out[i] = (value, err + rounding)
                continue
            if n >= MAX_CELLS:
                failed[i] = ToleranceUnreachable(
                    f"{route} hit the {MAX_CELLS}-cell cap on {list(bounds[i])}")
                break
            # n stays a power of two, so that segments share batches
            ratio = 1.2 * err / max(budget, 1e-300)
            ns[i] = min(MAX_CELLS, n << max(1, math.ceil(0.5 * math.log2(ratio))))
            grown.append(i)
        pending = grown
    return out, failed


# ---------------------------------------------------------------------------
# Lebesgue quadrature by midpoint-trapezoid brackets

# The rounding model of the brackets: a sample of f is within _ULPS ulps of
# max|f| on its segment (f is monotone: the larger end) of f at its float
# point, which is within an ulp of max(|s|, |t|) of its grid point; numpy's
# pairwise sums are within _SUM_ULPS ulps of the sum of |terms|.  The
# mid-value brackets sample f and g at the same float points, so a node
# (f(x), g(x)) is off the curve by the sample errors alone.
_ULPS = 4
_SUM_ULPS = 32


def _rounding(s: float, t: float, v0: float, vn: float) -> tuple[float, float]:
    """(delta, term) of a segment [s, t] with ends v0, vn.  delta bounds
    the error of a second difference: 4 sample and 4 point errors (at f's
    mean slope), twice over.  term bounds what rounding adds to a bracket:
    (t - s) * delta for sample and point errors in M and T and for cells
    classed by a difference off by delta, and 8 * _SUM_ULPS ulps of
    (t - s) * max|f| for the sums."""
    big = max(abs(v0), abs(vn))
    delta = 8.0 * _EPS * (_ULPS * big + max(abs(s), abs(t)) * abs(vn - v0) / (t - s))
    return delta, (t - s) * (delta + 8 * _SUM_ULPS * _EPS * big)


def _mid_rounding(u0: float, un: float, g0: float, gn: float):
    """(eu, eg, term, widening) of a mid-value segment on which f runs
    from u0 to un and g from g0 to gn.  For cells d_k of f and e_k of g,
    the cross difference e_k d_(k-1) - e_(k-1) d_k at node k is within
    delta_k = eg * (|d_(k-1)| + |d_k|) + eu * (|e_(k-1)| + |e_k|) of its
    value at the exact samples: eu and eg are 8 sample errors of f and g,
    for the differences, the products and their rounding.  widening, the
    sum of delta at the pairs' middles, is what flat pairs add to the
    half-gaps.  term bounds what rounding adds to the brackets: sample
    errors move the trapezoid sum and the Darboux half-widths by at most
    (eg * du + eu * (dg + max|g|)) / 4 (du = |un - u0|, dg = |gn - g0|),
    twice over, and the sums of the pairs' terms, each at most
    2 * max|g| * |d|, by 8 * _SUM_ULPS ulps of max|g| * du."""
    big = max(abs(g0), abs(gn))
    eu = 8 * _ULPS * _EPS * max(abs(u0), abs(un))
    eg = 8 * _ULPS * _EPS * big
    du, dg = abs(un - u0), abs(gn - g0)
    widening = eg * du + eu * dg
    return eu, eg, 0.5 * (widening + eu * big) + 8 * _SUM_ULPS * _EPS * big * du, widening


def _bracket_weight(p: MonotonePiece, s: float, t: float):
    # floor: term and the widening of flat cells, at most (t - s) * delta
    v0, vn = _segment_endpoint_values(p, s, t)
    delta, term = _rounding(s, t, v0, vn)
    return (t - s) * abs(vn - v0) + 1e-300, term + (t - s) * delta, (v0, vn, delta, term)


def _bracket_terms(ends, rows, first, last, xs, errs, vals):
    """The terms of a grid of an even number of cells, with pads:
    its values, but the grid's ends and each block's first point; and per
    bracket cell, two grid cells, its half-gap in units of half a step."""
    y = _with_ends(vals, rows, ends, first, last)
    core = y[:, 1 - first:y.shape[1] - 1 + last]  # the block's points
    # second differences there, 0 (which every class admits) at grid ends
    d = np.zeros(core.shape)
    dd = d[:, int(first):d.shape[1] - int(last)]
    np.multiply(y[:, 1:-1], -2.0, out=dd)
    dd += y[:, :-2]
    dd += y[:, 2:]
    mid = d[:, 1::2]
    lo, hi = np.minimum(d[:, :-1:2], mid), np.maximum(d[:, :-1:2], mid)
    np.minimum(lo, d[:, 2::2], out=lo)
    np.maximum(hi, d[:, 2::2], out=hi)
    delta = np.array([ends[i][2] for i in rows])[:, None]
    convex, concave = lo >= -delta, hi <= delta
    # neither: the Darboux bracket of the two halves; convex: [M, T];
    # concave: [T, M]; flat: between them, widened by h * delta
    gap = np.abs(np.subtract(core[:, 2::2], core[:, :-2:2]))
    np.copyto(gap, np.maximum(mid, 0.0), where=convex)
    np.copyto(gap, np.maximum(-mid, 0.0), where=concave)
    np.copyto(gap, np.abs(mid) + 4.0 * delta, where=convex & concave)
    return core[:, 1:core.shape[1] - int(last)], gap


def _bracket(segs, ends, budgets):
    """Integrals of pieces p over segments (p, s, t) with ends (p(s+),
    p(t-), delta, term, ...): the sum of the brackets' midpoints, which
    is the trapezoid sum of the whole grid, and of their half-gaps,
    which must fit the budget, plus term."""
    bounds = [seg[1:] for seg in segs]

    def settle(i, n, parts):
        (s, t), (v0, vn, _, term, *_) = bounds[i], ends[i]
        h = (t - s) / n
        value = h * (math.fsum([v0, vn, *[v for v, _ in parts]]) - 0.5 * (v0 + vn))
        return value, 0.5 * h * math.fsum([g for _, g in parts]), term

    return _refine("Bracket refinement", bounds, [[p.evaluator for p, _, _ in segs]],
                   functools.partial(_bracket_terms, ends), budgets, settle, n0=64)


# the half-gaps of a bracketed segment may take its share less term
_BRACKET = _Route(_bracket, lambda share, e: share - e[3])


def integrate(f: BvFunction, a: float, b: float, tol: float = DEFAULT_TOL) -> Certified:
    """Certified enclosure of the Lebesgue integral of f over [a, b].

    Constant pieces contribute value * (t - s) and pieces with a
    validated antiderivative F contribute F(t)-F(s), with ulp-scale radii
    (0 for an exact product); remaining monotone pieces are bracketed
    (_bracket) until the total radius is at most tol
    (ToleranceUnreachable under the rounding floor or past the cell cap).
    """
    return _certify(_integral_claim(f, a, b, tol))[0]


def _integral_claim(f: BvFunction, a: float, b: float, tol: float) -> _Claim:
    """The prepare phase of integrate."""
    if math.isnan(a) or math.isnan(b) or a > b:
        raise DomainError(f"need a <= b, got [{a}, {b}]")
    if a < f.domain_lo or b > f.domain_hi or math.isinf(b):
        raise DomainError(f"[{a}, {b}] outside domain")
    if a == b:  # exact, whatever tol
        return _prepare(_BRACKET, math.inf, [], [], [], None)
    values, radii, fallback = [], [], []  # fallback: (piece, s, t)
    for p in f.pieces:
        s, t = max(a, p.lo), min(b, p.hi)
        if s >= t:
            continue
        if p.direction == "const":
            c = p.left_boundary_limit
            values.append(c * (t - s))
            # an ulp-scale radius unless the difference and product are exact
            # (a non-finite product goes on to Certified, which refuses it)
            exact = (math.isfinite(values[-1])
                     and Fraction(values[-1]) == Fraction(c) * (Fraction(t) - Fraction(s)))
            radii.append(0.0 if exact else _slack(values[-1]))
        elif p.antiderivative is not None:
            fs = ex.eval_expr(p.antiderivative, s)
            ft = ex.eval_expr(p.antiderivative, t)
            values.append(ft - fs)
            radii.append(_slack(fs, ft, ft - fs))
        else:
            fallback.append((p, s, t))
    return _prepare(_BRACKET, tol, values, radii, fallback, _bracket_weight)


def tail_integral(f: BvFunction, n: float, tol: float = DEFAULT_TOL):
    """Certified integral of f from n to +inf, or DIVERGENT.

    Requires tail antiderivative data, which validate() has checked
    against f by sampled difference quotients.  For n below the last
    breakpoint the head is handled by integrate().  A tol that is not
    positive (<= 0 or NaN) is refused up front.
    """
    if not f.is_half_line:
        raise DomainError("tail_integral needs a half-line domain")
    if math.isnan(n) or n < f.domain_lo:
        raise DomainError(f"n={n!r} outside domain")
    if not tol > 0.0:
        raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
    ts = f.tail
    if ts is None or ts.antiderivative is None:
        raise MissingAntiderivative("no tail antiderivative supplied")
    tail_piece = f.pieces[-1]
    if ts.antiderivative_limit is None or math.isinf(ts.antiderivative_limit):
        return DIVERGENT
    f_inf = ts.antiderivative_limit
    start = max(n, tail_piece.lo)
    f_start = ex.eval_expr(ts.antiderivative, start)
    value = f_inf - f_start
    radius = _slack(f_inf, f_start, value)
    if n < tail_piece.lo:
        head = integrate(f, n, tail_piece.lo, tol)
        value += head.value
        radius += head.radius
    return Certified(value, radius)


# ---------------------------------------------------------------------------
# Periodic Bernoulli kernel


def beta1(x: float) -> float:
    """1-periodic extension of B1(x) = x - 1/2, set to 0 at integers."""
    fr = x - math.floor(x)
    if fr == 0.0:
        return 0.0
    return fr - 0.5


def _parts(s: float, t: float, v0: float, vn: float, integral: float) -> float:
    """beta1 against d(mu_f) on a cell (s, t) of the unit cell (k, k+1),
    where beta1 = x - k - 1/2 has slope 1: by parts, [beta1 * f] at the
    ends, with f(s+) = v0 and f(t-) = vn, less the integral of f."""
    k = math.floor(s)
    return (t - k - 0.5) * vn - (s - k - 0.5) * v0 - integral


def _parts_weight(p: MonotonePiece, s: float, t: float):
    # a cell also keeps, last in its ends, the rounding of _parts, where
    # |beta1| <= 1/2 and |integral| <= (t - s) * max|f|
    weight, floor, (v0, vn, delta, term) = _bracket_weight(p, s, t)
    slack = _slack(v0, vn, (t - s) * max(abs(v0), abs(vn)))
    return weight, floor + slack, (v0, vn, delta, term, slack)


def _by_parts(seg, ends, result):
    # _parts on the segment (p, s, t), whose integral is bracketed
    (_, s, t), (v, r) = seg, result
    return _parts(s, t, ends[0], ends[1], v), r + ends[4]


# the half-gaps may take the share less the slack of _parts and term
_BY_PARTS = _Route(_bracket, lambda share, e: share - e[4] - e[3], _by_parts)


# ---------------------------------------------------------------------------
# Riemann-Stieltjes integration against d(mu_f)


def _refinement_grid(lo: float, hi: float, fns: tuple[BvFunction, ...],
                     with_integers: bool) -> list[float]:
    pts = {lo, hi}
    for fn in fns:
        pts.update(bp.x for bp in fn.breakpoints if lo < bp.x < hi)
    if with_integers:
        pts.update(float(k) for k in range(math.floor(lo) + 1, math.ceil(hi)))
    return sorted(pts)


def stieltjes_beta1(f: BvFunction, lo: int, hi: int,
                    tol: float = DEFAULT_TOL) -> StieltjesResult:
    """Certified integral of beta1 over the open interval ]lo, hi[
    against d(mu_f), split into atom and continuous contributions.

    Atoms at integer breakpoints vanish because beta1 is 0 there; the
    continuous part is computed per cell of the grid that contains all
    integers and all breakpoints, so beta1 is affine on every cell and
    f is continuous inside it.
    """
    return _certify(_beta1_claim(f, lo, hi, tol))[0]


def _beta1_claim(f: BvFunction, lo: int, hi: int, tol: float) -> _Claim:
    """The prepare phase of stieltjes_beta1."""
    lo, hi = _require_int(lo), _require_int(hi)
    if lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if lo < f.domain_lo or hi > f.domain_hi:
        raise DomainError(f"]{lo}, {hi}[ outside domain")
    # one pass over the atoms: their terms, the terms' sizes, which _slack
    # sums, and the absolute errors that _slack, relative to the terms,
    # leaves out
    terms, sizes, errors = [], [], []
    for bp in f.breakpoints:
        if lo < bp.x < hi:
            b, jump = beta1(bp.x), bp.jump
            term = b * jump
            size = abs(term)
            terms.append(term)
            sizes.append(size)
            if jump != 0.0:
                # beta1's rounding: x - floor(x) is exact for x >= 0, and
                # then so is fr - 1/2, for fr >= 1/4 (Sterbenz) or x >= 1
                # (fr is then a multiple of 2^-52); otherwise fr < 1 and
                # fr - 1/2 round once each, and lose at most 2^-54 + 2^-55.
                # Then a product below the normal range, as _underflow
                errors.append((0.0 if bp.x >= 0.25 else 0.5 * _EPS) * abs(jump)
                              + (5e-324 if b != 0.0 and size < sys.float_info.min else 0.0))
    atoms = math.fsum(terms)
    atoms_radius = 8.0 * _EPS * math.fsum(sizes) + math.fsum(errors)  # _slack(*terms)
    grid = _refinement_grid(float(lo), float(hi), (f,), with_integers=True)
    values, radii, fallback = [], [], []  # fallback: (piece, s, t)
    for s, t in zip(grid[:-1], grid[1:]):
        p = f.piece_containing(0.5 * (s + t))
        if p is None:
            raise DomainError(f"no piece covers ({s}, {t})")
        if p.direction == "const":
            continue
        if p.antiderivative is not None:
            v0, vn = _segment_endpoint_values(p, s, t)
            fs = ex.eval_expr(p.antiderivative, s)
            ft = ex.eval_expr(p.antiderivative, t)
            v = _parts(s, t, v0, vn, ft - fs)
            values.append(v)
            radii.append(_slack(fs, ft, v0, vn, v))
        else:
            fallback.append((p, s, t))

    def wrap(cont: Certified) -> StieltjesResult:
        value = atoms + cont.value
        # the sum's rounding error, exactly (Knuth's TwoSum), covered if
        # the sum rounds; a sum that overflows is refused by Certified
        back = value - atoms
        rounded = (atoms - (value - back)) + (cont.value - back) != 0.0
        certified = Certified(value, cont.radius + atoms_radius
                              + (_slack(value) if rounded else 0.0))
        if not certified.radius <= tol:
            raise ToleranceUnreachable(
                f"achieved radius {certified.radius:.3g} exceeds tol {tol:.3g}")
        return StieltjesResult(certified, atoms, cont)

    return _prepare(_BY_PARTS, tol, values, radii, fallback, _parts_weight, wrap,
                    atoms_radius)


def _require_int(v) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise NonIntegerBounds(f"bounds must be integers, got {v!r}")


def _value(seen: dict, e: ex.Expr, x: float) -> float:
    """e(x), evaluated once per expression and point and kept in seen.
    The key holds the sign of x, since 0.0 == -0.0."""
    key = (id(e), x, math.copysign(1.0, x))
    v = seen.get(key)
    if v is None:
        v = seen[key] = ex.eval_expr(e, x)
    return v


def _limit(seen: dict, fn: BvFunction, x: float, right: bool,
           strict: bool = False) -> float:
    """right_limit(fn, x, strict) if right, else left_limit(fn, x,
    strict), with an evaluation of fn's piece at x kept in seen."""
    p = None if fn.breakpoint_at(x) is not None else fn.piece_containing(x)
    if p is not None:
        return _value(seen, p.evaluator, x)
    return right_limit(fn, x, strict) if right else left_limit(fn, x, strict)


def _mid_terms(ends, lims, rows, first, last, xs, errs, vals):
    """The terms of a mid-value grid of an even number of cells, with
    pads: per pair of cells, twice its bracket's midpoint and twice its
    width.  vals stacks the rows of g under those of f; ends[i] is
    (f(s+), f(t-), g(s+), g(t-), eu, eg, term) of segment i, and lims[i]
    and lims[len(ends) + i] are its limits of f and of g."""
    n = len(rows)
    uy = _with_ends(vals, rows + [len(ends) + i for i in rows], lims, first, last)
    steps = uy[:, 1:] - uy[:, :-1]
    d, e = steps[:n], steps[n:]
    # cross differences and their rounding bounds at the block's points,
    # 0 (which every class admits) at grid ends
    cross, delta = np.zeros((2, n, uy.shape[1] - 2 + first + last))
    inner = slice(int(first), cross.shape[1] - int(last))
    np.multiply(e[:, 1:], d[:, :-1], out=cross[:, inner])
    cross[:, inner] -= e[:, :-1] * d[:, 1:]
    # the block's cells, without pads, and twice their trapezoid sums
    k, m = 1 - first, cross.shape[1] - 1
    y = uy[n:, k:k + m + 1]
    trapezoid = y[:, :-1] + y[:, 1:]
    trapezoid *= d[:, k:k + m]
    size = np.abs(steps, out=steps)
    eu, eg = np.array([ends[i][4:6] for i in rows]).T[:, :, None]
    np.add(size[n:, :-1], size[n:, 1:], out=delta[:, inner])
    delta[:, inner] *= eu
    delta[:, inner] += eg * (size[:n, :-1] + size[:n, 1:])
    # neither convex nor concave: the crosses at a pair's ends and middle
    # leave [-delta, delta] on both sides
    up, down = cross > delta, cross < -delta
    neither = (up[:, :-1:2] | up[:, 1::2] | up[:, 2::2]) & \
        (down[:, :-1:2] | down[:, 1::2] | down[:, 2::2])
    ad, ae = size[:n, k:k + m], size[n:, k:k + m]
    with np.errstate(divide="ignore", invalid="ignore"):
        # convex or concave, the integral is between the trapezoid sum T
        # and T - cross * rho, rho = (d1^2 + d2^2) / (2 d1 d2); off by at
        # most delta * rho.  Twice rho is r + 1/r, r = |d1 / d2|.
        rho = ad[:, ::2] / ad[:, 1::2]
        rho += 1.0 / rho
        c = cross[:, 1::2] * rho
        rho *= delta[:, 1::2]
        lo, hi = np.maximum(c, 0.0), np.maximum(-c, 0.0)
        lo += rho
        hi += rho
        # the Darboux bracket, its width twice, caps every pair (and
        # replaces a NaN or infinite rho's)
        darboux = ae * ad
        dd = darboux[:, ::2] + darboux[:, 1::2]
        np.copyto(lo, dd, where=neither)
        np.copyto(hi, dd, where=neither)
        np.fmin(lo, dd, out=lo)
        np.fmin(hi, dd, out=hi)
    value = trapezoid[:, ::2] + trapezoid[:, 1::2]
    value += 0.5 * (hi - lo)
    lo += hi
    return value, lo


def _stieltjes_mid(segs, ends, budgets):
    """Integrals of g against d(mu_f) on open cells (s, t) where f runs
    on its non-constant piece fp and g on its piece gp, (fp, gp, s, t) in
    segs, with ends (f(s+), f(t-), g(s+), g(t-), eu, eg, term).  There it
    is the integral of phi = g o f^-1, which is monotone, over [f(s+),
    f(t-)], and the grid points x_k give its nodes (f(x_k), g(x_k)).  Each
    pair of grid cells is classed by the cross differences at its ends
    and middle (_mid_rounding): convex or concave, phi lies between the
    trapezoid sum and the secants extended from the pair's other cell;
    flat within rounding, both ways; neither, the Darboux bracket
    |dg| * |df| of its cells, which also caps every pair."""
    def settle(i, n, parts):
        return (0.5 * math.fsum(v for v, _ in parts),
                0.25 * math.fsum(r for _, r in parts), ends[i][6])

    return _refine("Stieltjes refinement", [seg[2:] for seg in segs],
                   [[seg[0].evaluator for seg in segs], [seg[1].evaluator for seg in segs]],
                   functools.partial(_mid_terms, ends,
                                     [e[:2] for e in ends] + [e[2:4] for e in ends]),
                   budgets, settle, n0=16)


# the brackets' half-gaps may take the share less term
_MIDVALUE = _Route(_stieltjes_mid, lambda share, e: share - e[6])


def stieltjes_midvalue(g: BvFunction, f: BvFunction, lo: float, hi: float,
                       tol: float = DEFAULT_TOL) -> Certified:
    """Certified integral of the mid-value modification of g over
    [lo, hi[ against d(mu_f).

    Atoms: g_m(x) * jump_f(x) over breakpoints of f in [lo, hi[ (the
    left end belongs to the interval).  The continuous part runs on the
    common refinement of both breakpoint sets, so g is continuous and
    equal to g_m inside every cell; cells where f is constant add 0.
    """
    return _certify(_midvalue_claim(g, f, lo, hi, tol, {}))[0]


def _midvalue_claim(g: BvFunction, f: BvFunction, lo: float, hi: float, tol: float,
                    seen: dict) -> _Claim:
    """The prepare phase of stieltjes_midvalue.  seen holds the scalar
    evaluations made, so that each expression is evaluated once at each
    point, here and in the routines that share it: the cell ends are
    shared by the atoms and the ends of both cells beside them."""
    if math.isnan(lo) or math.isnan(hi) or lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    for fn in (f, g):
        if lo < fn.domain_lo or hi > fn.domain_hi:
            raise DomainError(f"[{lo}, {hi}[ outside a domain")
    atom_terms, underflows = [], []
    for bp in f.breakpoints:
        if lo <= bp.x < hi and bp.jump != 0.0:
            # as mid_value_strict(g, bp.x)
            total = _limit(seen, g, bp.x, False, True) + _limit(seen, g, bp.x, True, True)
            g_mid = 0.5 * total
            atom_terms.append(g_mid * bp.jump)
            # _slack is relative: a mid-value or product that rounds
            # below the normal range adds an absolute error
            underflows.append(_underflow(g_mid, total) * max(1.0, abs(bp.jump))
                              + _underflow(atom_terms[-1], g_mid))
    atoms = math.fsum(atom_terms)

    grid = _refinement_grid(lo, hi, (f, g), with_integers=False)
    fallback = []  # (fp, gp, s, t)
    for s, t in zip(grid[:-1], grid[1:]):
        fp = f.piece_containing(0.5 * (s + t))
        if fp is not None and fp.direction != "const":
            gp = g.piece_containing(0.5 * (s + t))
            if gp is None:
                raise DomainError(f"no piece of the integrand covers ({s}, {t})")
            fallback.append((fp, gp, s, t))

    def weigh(fp: MonotonePiece, gp: MonotonePiece, s: float, t: float):
        # floor: the rounding term and the widening of flat pairs, twice
        u0, un = _limit(seen, f, s, True), _limit(seen, f, t, False)
        gs, gt = _limit(seen, g, s, True), _limit(seen, g, t, False)
        eu, eg, term, widening = _mid_rounding(u0, un, gs, gt)
        return (abs(un - u0) * abs(gs - gt) + 1e-300, term + 2.0 * widening,
                (u0, un, gs, gt, eu, eg, term))

    return _prepare(_MIDVALUE, tol, [atoms], [_slack(*atom_terms) + math.fsum(underflows)],
                    fallback, weigh)
