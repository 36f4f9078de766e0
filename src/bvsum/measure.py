"""Stieltjes measure of a BV function, certified quadrature against dx and
against d(mu_f), and the periodic first Bernoulli kernel.

Every approximate routine returns a Certified(value, radius) enclosure.
A piece with a validated antiderivative contributes its closed form with
an ulp-scale radius.  Other monotone pieces are integrated by midpoint-
trapezoid brackets: each cell of an n-cell grid is classed by the second
differences at its ends and midpoint.  Convex: by Hermite-Hadamard its
integral lies between the midpoint sum M and the trapezoid sum T;
concave: between T and M; flat within rounding: between both, widened by
h * delta; neither: between the Darboux sums of its halves.  Convexity is
sampled on the grid, as monotonicity is in validate, not proved.  beta1
against d(mu_f) is reduced to such integrals by parts; mid-value
integrals are tagged Riemann-Stieltjes sums.

integrate, stieltjes_beta1 and stieltjes_midvalue share one refinement
engine.  _certify reserves each segment's rounding floor, refusing a tol
that does not cover the floors, and splits the rest over the segments;
_refine grows their grids round by round from the measured error.  _walk
evaluates the grids of all segments together, in chunks of _CHUNK cells:
chunks of one cell count are rows of one 2-D grid of at most _BATCH
points, and eval_rows runs the rows of one expression shape as one
program; longer chunks are walked in blocks of at most _BATCH points.
Every point, value and sum is the float operation of a lone segment's
grid, so results and errors are those of refining one segment after the
other: the error raised is the first failing segment's.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
    BvError,
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


@dataclass(frozen=True)
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


def _walk(jobs, bounds, curves, failed: dict, terms, pad: bool = False) -> dict:
    """Walk the uniform grids of the jobs (i, n), in segment order: per
    segment i the list of its chunks' sums.  Segment i's grid is the n+1
    points over bounds[i] = (s, t), cut into chunks of _CHUNK cells that
    share their end points; with pad, a chunk or block also takes the
    point beyond each end that is not a grid's.
    terms(rows, first, last, xs, errs, *vals) gives a block's terms, a
    2-D array per term with a row per segment of rows; first and last
    tell whether it holds the grids' ends, and vals has an array per
    curve (curves[c][i] is segment i's expression) over the points xs but
    the grids' ends.  A row that fails to evaluate records its segment's
    first EvalError in failed; later segments' rows are then skipped."""
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
                curves, terms, pad)
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


def _block(rows, n: int, s, width, curves, terms, pad: bool, c0: int, c1: int,
           errs: dict):
    """The terms of the cells between the points c0 and c1 of the rows'
    n-cell grids over [s, s + width], evaluating the curves in order;
    errors go to errs."""
    first, last = c0 == 0, c1 == n
    p0, p1 = (c0 - (not first), c1 + (not last)) if pad else (c0, c1)
    xs = width * (np.arange(p0, p1 + 1, dtype=np.float64) / n)
    xs += s  # s + (t - s) * (k / n), as for a lone grid
    inner = xs[:, int(first):xs.shape[1] - int(last)]
    vals = [_evaluate(curve, rows, inner, errs) for curve in curves]
    return terms(rows, first, last, xs, errs, *vals)


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


def _evaluate(exprs, rows, xs, errs: dict):
    """exprs[i] over the points xs of each row, for the segments rows; a
    failing row records its segment's error in errs, if it is the first."""
    vals, errors = ex.eval_rows([exprs[i] for i in rows], xs)
    for r, err in errors.items():
        errs.setdefault(rows[r], err)
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


def _certify(tol: float, values: list[float], radii: list[float],
             fallback: list, weigh, refine) -> Certified:
    """One enclosure of radius at most tol from closed-form parts and the
    fallback segments.  weigh(*seg) -> (weight, floor, ends) gives a
    segment its floor plus a share of the rest in proportion to weight,
    and ends for refine(fallback, ends, shares) -> [(value, radius)]."""
    if fallback:
        budget = tol - math.fsum(radii)
        if budget > 0.0:
            weights, floors, ends = zip(*[weigh(*seg) for seg in fallback])
            budget -= math.fsum(floors)
        if not budget > 0.0:
            raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
        wsum = math.fsum(weights)
        shares = [floor + budget * w / wsum for w, floor in zip(weights, floors)]
        for v, r in refine(fallback, ends, shares):
            values.append(v)
            radii.append(r)
    result = Certified(math.fsum(values), math.fsum(radii))
    if not result.radius <= tol:
        raise ToleranceUnreachable(
            f"achieved radius {result.radius:.3g} exceeds tol {tol:.3g}")
    return result


def _refine(route: str, bounds, curves, terms, budgets, settle, failed: dict, *,
            n0: int, order: int, pad: bool = False):
    """Refine the segments over bounds[i] = (s, t) together, round by
    round from n0 cells: each pending segment i walks a grid of n cells,
    and settle(i, n, parts) -> (value, err, rounding) reads its sums.  It
    is done, with radius err + rounding, when err fits budgets[i]; else n
    grows at least twofold, aiming just under the budget at the route's
    convergence order, up to the cap of MAX_CELLS cells.  The first
    failing segment's error is raised."""
    ns = [n0] * len(bounds)
    out: list = [None] * len(bounds)
    pending = [i for i in range(len(bounds)) if i < min(failed, default=math.inf)]
    while pending:
        parts = _walk([(i, ns[i]) for i in pending], bounds, curves, failed, terms, pad)
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
            # brackets keep n a power of two, so that segments share batches
            ratio = 1.2 * err / max(budget, 1e-300)
            ns[i] = min(MAX_CELLS, int(n * max(2.0, ratio)) + 1 if order == 1
                        else n << max(1, math.ceil(0.5 * math.log2(ratio))))
            grown.append(i)
        pending = grown
    if failed:
        raise failed[min(failed)]
    return out


# ---------------------------------------------------------------------------
# Lebesgue quadrature by midpoint-trapezoid brackets

# The rounding model of the brackets: a sample of f is within _ULPS ulps of
# max|f| on its segment (f is monotone: the larger end) of f at its float
# point, which is within an ulp of max(|s|, |t|) of its grid point; numpy's
# pairwise sums are within _SUM_ULPS ulps of the sum of |terms|.
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


def _bracket_weight(p: MonotonePiece, s: float, t: float):
    # floor: term and the widening of flat cells, at most (t - s) * delta
    v0, vn = _segment_endpoint_values(p, s, t)
    delta, term = _rounding(s, t, v0, vn)
    return (t - s) * abs(vn - v0) + 1e-300, term + (t - s) * delta, (v0, vn, delta, term)


def _bracket_terms(ends, rows, first, last, xs, errs, vals):
    """The terms of a grid of an even number of cells, walked with pad:
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


def _bracket(segs, ends, shares):
    """Certified integrals of pieces p over segments (p, s, t) with ends
    (p(s+), p(t-), delta, term): the sum of the brackets' midpoints, which
    is the trapezoid sum of the whole grid, and of their half-gaps,
    which must fit the share less term, plus term."""
    bounds = [seg[1:] for seg in segs]

    def settle(i, n, parts):
        (s, t), (v0, vn, _, term, *_) = bounds[i], ends[i]
        h = (t - s) / n
        value = h * (math.fsum([v0, vn, *[v for v, _ in parts]]) - 0.5 * (v0 + vn))
        return value, 0.5 * h * math.fsum([g for _, g in parts]), term

    return _refine("Bracket refinement", bounds, [[p.evaluator for p, _, _ in segs]],
                   functools.partial(_bracket_terms, ends),
                   [share - e[3] for share, e in zip(shares, ends)],
                   settle, {}, n0=64, order=2, pad=True)


def integrate(f: BvFunction, a: float, b: float, tol: float = DEFAULT_TOL) -> Certified:
    """Certified enclosure of the Lebesgue integral of f over [a, b].

    Constant pieces are exact; pieces with a validated antiderivative F
    contribute F(t)-F(s) with an ulp-scale radius; remaining monotone
    pieces are bracketed (_bracket) until the total radius is at most tol
    (ToleranceUnreachable under the rounding floor or past the cell cap).
    """
    if math.isnan(a) or math.isnan(b) or a > b:
        raise DomainError(f"need a <= b, got [{a}, {b}]")
    if a < f.domain_lo or b > f.domain_hi or math.isinf(b):
        raise DomainError(f"[{a}, {b}] outside domain")
    if a == b:
        return Certified(0.0, 0.0)
    values, radii, fallback = [], [], []  # fallback: (piece, s, t)
    for p in f.pieces:
        s, t = max(a, p.lo), min(b, p.hi)
        if s >= t:
            continue
        if p.direction == "const":
            values.append(p.left_boundary_limit * (t - s))
            radii.append(0.0)
        elif p.antiderivative is not None:
            fs = ex.eval_expr(p.antiderivative, s)
            ft = ex.eval_expr(p.antiderivative, t)
            values.append(ft - fs)
            radii.append(_slack(fs, ft, ft - fs))
        else:
            fallback.append((p, s, t))
    return _certify(tol, values, radii, fallback, _bracket_weight, _bracket)


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


def _by_parts(segs, ends, shares):
    # _parts over the segments (p, s, t), their integrals bracketed
    integrals = _bracket(segs, ends, [share - e[4] for share, e in zip(shares, ends)])
    return [(_parts(s, t, e[0], e[1], v), r + e[4])
            for (_, s, t), e, (v, r) in zip(segs, ends, integrals)]


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
    lo, hi = _require_int(lo), _require_int(hi)
    if lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if lo < f.domain_lo or hi > f.domain_hi:
        raise DomainError(f"]{lo}, {hi}[ outside domain")
    atoms = math.fsum(
        beta1(bp.x) * bp.jump for bp in f.breakpoints if lo < bp.x < hi)
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
    cont = _certify(tol, values, radii, fallback, _parts_weight, _by_parts)
    return StieltjesResult(Certified(atoms + cont.value, cont.radius), atoms, cont)


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


def _stieltjes_mid(g: BvFunction, f: BvFunction, segs, ends, shares, *, seen: dict):
    """Integrals of g (continuous on each cell (s, t)) against d(mu_f) on
    open cells where f runs on the non-constant piece fp of (fp, s, t),
    with g's ends (g(s+), g(t-)); tagged Riemann-Stieltjes sums with cell
    error bounded by osc(g) * |mu_f| per subcell, refined at order 1.
    Scalar evaluations are kept in seen (see _value)."""
    failed: dict = {}
    curves: tuple[list, list] = ([], [])
    f_ends = []
    for i, (fp, s, t) in enumerate(segs):
        try:
            gp = g.piece_containing(0.5 * (s + t))
            if gp is None:
                raise DomainError(f"no piece of the integrand covers ({s}, {t})")
            f_ends.append((_limit(seen, f, s, True), _limit(seen, f, t, False)))
        except (BvError, ex.EvalError) as exc:
            failed[i] = exc
            break
        curves[0].append(fp.evaluator)
        curves[1].append(gp.evaluator)

    def terms(rows, first, last, xs, errs, fv, gv):
        # g(mid) * dmu and |dg| * |dmu|, in the arrays of g(mid) and dg
        mids = np.add(xs[:, :-1], xs[:, 1:])
        mids *= 0.5
        gmid = _evaluate(curves[1], rows, mids, errs)
        dmu = np.diff(_with_ends(fv, rows, f_ends, first, last))
        dg = np.diff(_with_ends(gv, rows, ends, first, last))
        np.multiply(gmid, dmu, out=gmid)
        np.abs(dg, out=dg)
        dg *= np.abs(dmu, out=dmu)
        return gmid, dg

    def settle(i, n, parts):
        value = math.fsum(v for v, _ in parts)
        return value, math.fsum(e for _, e in parts), _slack(value)

    return _refine("Stieltjes refinement", [seg[1:] for seg in segs], curves, terms,
                   shares, settle, failed, n0=16, order=1)


def stieltjes_midvalue(g: BvFunction, f: BvFunction, lo: float, hi: float,
                       tol: float = DEFAULT_TOL) -> Certified:
    """Certified integral of the mid-value modification of g over
    [lo, hi[ against d(mu_f).

    Atoms: g_m(x) * jump_f(x) over breakpoints of f in [lo, hi[ (the
    left end belongs to the interval).  The continuous part runs on the
    common refinement of both breakpoint sets, so g is continuous and
    equal to g_m inside every cell; cells where f is constant add 0.
    """
    if math.isnan(lo) or math.isnan(hi) or lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    for fn in (f, g):
        if lo < fn.domain_lo or hi > fn.domain_hi:
            raise DomainError(f"[{lo}, {hi}[ outside a domain")
    # every scalar evaluation of the call, so that each expression is
    # evaluated once at each point: the cell ends are shared by the atoms,
    # the weights of both cells beside them and the refinement
    seen: dict = {}
    atom_terms = []
    for bp in f.breakpoints:
        if lo <= bp.x < hi and bp.jump != 0.0:
            # as mid_value_strict(g, bp.x)
            g_mid = 0.5 * (_limit(seen, g, bp.x, False, True)
                           + _limit(seen, g, bp.x, True, True))
            atom_terms.append(g_mid * bp.jump)
    atoms = math.fsum(atom_terms)

    grid = _refinement_grid(lo, hi, (f, g), with_integers=False)
    fallback: list[tuple[MonotonePiece, float, float]] = []
    for s, t in zip(grid[:-1], grid[1:]):
        fp = f.piece_containing(0.5 * (s + t))
        if fp is not None and fp.direction != "const":
            fallback.append((fp, s, t))

    def weigh(fp: MonotonePiece, s: float, t: float):
        # as _segment_endpoint_values(fp, s, t)
        v0 = fp.left_boundary_limit if s == fp.lo else _value(seen, fp.evaluator, s)
        vn = fp.right_boundary_limit if t == fp.hi else _value(seen, fp.evaluator, t)
        gs, gt = _limit(seen, g, s, True), _limit(seen, g, t, False)
        return abs(vn - v0) * abs(gs - gt) + 1e-300, 0.0, (gs, gt)

    return _certify(tol, [atoms], [], fallback, weigh,
                    functools.partial(_stieltjes_mid, g, f, seen=seen))
