"""Stieltjes measure of a BV function, certified quadrature against dx and
against d(mu_f), and the periodic first Bernoulli kernel.

Every approximate routine returns a Certified(value, radius) enclosure.
On monotone pieces the Lebesgue integral is bracketed by Darboux sums
(no smoothness assumed); when a piece carries an antiderivative the
closed form is used instead, with an ulp-scale radius, after the
antiderivative has passed the sampled difference-quotient check.

integrate, stieltjes_beta1 and stieltjes_midvalue share one refinement
engine.  _certify splits what tol leaves after the closed-form radii over
the segments to refine, refusing tol <= 0 or NaN before any work, and
hands all of them to the route at once.  Each segment's cell count is
fixed a priori (_cells) or, for mid-value sums, grown round by round from
the measured error.  _walk evaluates the grids of all segments together:
segments with the same cell count are rows of one 2-D grid, capped at
_BATCH points, and eval_rows runs the rows of one expression shape as
one program.  Every point, value and sum is the float operation a lone
per-segment grid makes, so results are bit for bit those of refining one
segment after the other, and so is the error: that of the first segment,
in segment order, whose refinement fails.
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
    check_antiderivative,
    left_limit,
    right_limit,
    _segment_endpoint_values,
)
from .errors import (
    BadAntiderivative,
    BvError,
    DomainError,
    MissingAntiderivative,
    NonIntegerBounds,
    ToleranceUnreachable,
)

_EPS = sys.float_info.epsilon
MAX_CELLS = 1 << 24  # subdivision cap per piece segment
_CHUNK = 1 << 20
_BATCH = 1 << 15  # points per batched grid, so that a batch stays in cache

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


def _cells(s: float, t: float, spread: float, budget: float, n: int,
           route: str) -> int:
    """A-priori cell count on [s, t]: n is doubled until the error bound
    (t-s) * spread / (2n) fits the budget."""
    width = t - s
    while width * spread / (2 * n) > budget:
        n *= 2
        if n > MAX_CELLS:
            raise ToleranceUnreachable(
                f"{route} needs more than {MAX_CELLS} cells on "
                f"[{s}, {t}]; supply an antiderivative or relax tol")
    return n


def _walk(jobs, bounds, curves, failed: dict, sums) -> dict:
    """Walk the uniform grids of the jobs (i, n), in segment order, and
    return per segment i the list of its chunks' sums.

    Segment i's grid is the n+1 points over bounds[i] = (s, t), cut into
    chunks of _CHUNK cells that share their end points.  Chunks of the
    same span and cell count are the rows of one batch of at most _BATCH
    points, each with the float operations of a lone grid.  Per batch,
    sums(rows, first, last, xs, *vals) gives arrays with one entry per
    row: rows are the batch's segments, first and last tell whether it
    holds the grids' ends, xs are its points and vals has one array per
    curve, curves[c][i] being segment i's expression.  vals cover xs but
    the grids' ends, so no expression is evaluated at s or t (_with_ends
    puts the one-sided limits there).  A row that fails to evaluate
    records its segment's first EvalError in failed; rows of segments at
    or after the first failed one are skipped."""
    parts = {i: [] for i, _ in jobs}
    batches = {}
    for i, n in jobs:
        for start in range(0, n, _CHUNK):
            batches.setdefault((n, start), []).append(i)
    for (n, start), segs in batches.items():
        stop = min(n, start + _CHUNK)
        first, last = start == 0, stop == n
        size = max(1, _BATCH // (stop - start + 1))
        for k in range(0, len(segs), size):
            cut = min(failed, default=math.inf)
            rows = [i for i in segs[k:k + size] if i < cut]
            if not rows:
                continue
            s = np.array([bounds[i][0] for i in rows])[:, None]
            xs = (np.array([bounds[i][1] for i in rows])[:, None] - s) * (
                np.arange(start, stop + 1, dtype=np.float64) / n)
            xs += s  # s + (t - s) * (k / n), as for a lone grid
            inner = xs[:, int(first):xs.shape[1] - int(last)]
            vals = [_evaluate(curve, rows, inner, failed) for curve in curves]
            for i, *sum_ in zip(rows, *sums(rows, first, last, xs, *vals)):
                parts[i].append(sum_)
            del xs, inner, vals  # free this batch before the next is built
    return parts


def _evaluate(exprs, rows, xs, failed: dict):
    """exprs[i] over the points xs of each row, for the segments rows;
    a failing row records its segment's error in failed, if it is the
    first."""
    vals, errors = ex.eval_rows([exprs[i] for i in rows], xs)
    for r, err in errors.items():
        failed.setdefault(rows[r], err)
    return vals


def _with_ends(vals, rows, ends, first: bool, last: bool):
    """A curve's values over whole grid rows: vals inside, and at a
    grid's ends the one-sided limits ends[i] = (v0, vn) of segment i."""
    m, k = vals.shape
    whole = np.empty((m, k + first + last))
    whole[:, int(first):k + int(first)] = vals
    if first:
        whole[:, 0] = [ends[i][0] for i in rows]
    if last:
        whole[:, -1] = [ends[i][1] for i in rows]
    return whole


def _raise_first(failed: dict) -> None:
    # the error of the first segment that fails, as one walk in segment
    # order would meet it
    if failed:
        raise failed[min(failed)]


def _certify(tol: float, values: list[float], radii: list[float],
             fallback: list, weigh, refine) -> Certified:
    """One enclosure of radius at most tol from closed-form parts and the
    fallback segments.  weigh(*seg) -> (weight, ends) gives a segment a
    share of the budget proportional to weight, and the one-sided limits
    ends that its refinement reuses; refine(fallback, ends, shares) ->
    [(value, radius)] refines all segments together.  A budget that is
    not positive (tol <= 0 or NaN) is refused up front."""
    if fallback:
        budget = tol - math.fsum(radii)
        if not budget > 0.0:
            raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
        weights, ends = zip(*[weigh(*seg) for seg in fallback])
        wsum = math.fsum(weights)
        shares = [budget * w / wsum for w in weights]
        for v, r in refine(fallback, ends, shares):
            values.append(v)
            radii.append(r)
    result = Certified(math.fsum(values), math.fsum(radii))
    if not result.radius <= tol:
        raise ToleranceUnreachable(
            f"achieved radius {result.radius:.3g} exceeds tol {tol:.3g}")
    return result


def _a_priori(segs, ends, shares, n0: int, route: str, sums):
    """Walk monotone segments (p, s, t) with ends (v0, vn) on a-priori
    grids (_cells from n0) and sum them by sums (see _walk): per segment
    its cell count and its chunks' sums.  A segment's refusal is raised
    only if the segments before it evaluate."""
    jobs, failed = [], {}
    for i, ((_, s, t), (v0, vn), share) in enumerate(zip(segs, ends, shares)):
        try:
            jobs.append((i, _cells(s, t, abs(vn - v0), share, n0, route)))
        except ToleranceUnreachable as exc:
            failed[i] = exc
            break
    parts = _walk(jobs, [seg[1:] for seg in segs],
                  [[p.evaluator for p, _, _ in segs]], failed, sums)
    _raise_first(failed)
    return [(n, [sum_[0] for sum_ in parts[i]]) for i, n in jobs]


def _spread_weight(p: MonotonePiece, s: float, t: float):
    # the a-priori error bound of a monotone segment scales with this
    v0, vn = _segment_endpoint_values(p, s, t)
    return (t - s) * abs(vn - v0) + 1e-300, (v0, vn)


# ---------------------------------------------------------------------------
# Lebesgue quadrature


def _overlapping_segments(f: BvFunction, a: float, b: float):
    for p in f.pieces:
        s, t = max(a, p.lo), min(b, p.hi)
        if s < t:
            yield p, s, t


def _darboux(segs, ends, shares):
    """Certified integrals of monotone pieces over their segments by
    bracketing Darboux sums; the bracket gap for a monotone function on
    an n-cell grid is (t-s)/n * |f(t)-f(s)|, so each segment's cell count
    is doubled until half the gap fits its share."""
    def sums(rows, first, last, xs, vals):
        # each chunk after the first leaves its first point to the one
        # before it
        return (np.sum(vals if first else vals[:, 1:], axis=1),)

    out = []
    walked = _a_priori(segs, ends, shares, 64, "Darboux bracketing", sums)
    for (_, s, t), (v0, vn), (n, parts) in zip(segs, ends, walked):
        h = (t - s) / n
        value = h * (math.fsum([v0, vn, *parts]) - 0.5 * (v0 + vn))
        out.append((value, 0.5 * h * abs(vn - v0) + _slack(value)))
    return out


def integrate(f: BvFunction, a: float, b: float, tol: float = DEFAULT_TOL) -> Certified:
    """Certified enclosure of the Lebesgue integral of f over [a, b].

    Constant pieces are exact; pieces with a validated antiderivative F
    contribute F(t)-F(s) with an ulp-scale radius; remaining monotone
    pieces are bracketed by Darboux sums refined until the total radius
    is at most tol (ToleranceUnreachable past the subdivision cap).
    """
    if math.isnan(a) or math.isnan(b) or a > b:
        raise DomainError(f"need a <= b, got [{a}, {b}]")
    if a < f.domain_lo or b > f.domain_hi or math.isinf(b):
        raise DomainError(f"[{a}, {b}] outside domain")
    if a == b:
        return Certified(0.0, 0.0)
    values: list[float] = []
    radii: list[float] = []
    fallback: list[tuple[MonotonePiece, float, float]] = []
    for p, s, t in _overlapping_segments(f, a, b):
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
    return _certify(tol, values, radii, fallback, _spread_weight, _darboux)


def tail_integral(f: BvFunction, n: float, tol: float = DEFAULT_TOL):
    """Certified integral of f from n to +inf, or DIVERGENT.

    Requires tail antiderivative data; F' is re-checked against f by
    sampled difference quotients (BadAntiderivative on mismatch).  For
    n below the last breakpoint the head is handled by integrate().  A
    tol that is not positive (<= 0 or NaN) is refused up front.
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
    if check_antiderivative(tail_piece.evaluator, ts.antiderivative,
                            tail_piece.lo, tail_piece.hi) > 1.0:
        raise BadAntiderivative("tail antiderivative fails the sampled F' = f check")
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


def _beta1_branch(x: float, k: float) -> float:
    # affine branch of beta1 on the open cell (k, k+1)
    return x - k - 0.5


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


def _beta1_stieltjes(segs, ends, shares):
    """beta1 against d(mu_f) on open cells (s, t) by tagged
    Riemann-Stieltjes sums; beta1 is 1-Lipschitz on a cell so the
    midpoint-tag error per subcell is (h/2) * |mu_f|(subcell)."""
    def sums(rows, first, last, xs, vals):
        # beta1's affine branch on the cell (k, k+1) of each row
        k = np.array([math.floor(segs[i][1]) + 0.5 for i in rows])[:, None]
        mids = 0.5 * (xs[:, :-1] + xs[:, 1:])
        dmu = np.diff(_with_ends(vals, rows, ends, first, last), axis=1)
        return (np.sum((mids - k) * dmu, axis=1),)

    out = []
    walked = _a_priori(segs, ends, shares, 16, "Stieltjes refinement", sums)
    for (_, s, t), (v0, vn), (n, parts) in zip(segs, ends, walked):
        value = math.fsum(parts)
        out.append((value, 0.5 * ((t - s) / n) * abs(vn - v0) + _slack(value)))
    return out


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
    values: list[float] = []
    radii: list[float] = []
    fallback: list[tuple[MonotonePiece, float, float]] = []
    for s, t in zip(grid[:-1], grid[1:]):
        p = f.piece_containing(0.5 * (s + t))
        if p is None:
            raise DomainError(f"no piece covers ({s}, {t})")
        if p.direction == "const":
            values.append(0.0)
            radii.append(0.0)
        elif p.antiderivative is not None:
            # beta1 has slope 1 on the cell, so Stieltjes parts gives
            # [branch * f] at the ends minus the plain integral of f.
            k = math.floor(s)
            v0, vn = _segment_endpoint_values(p, s, t)
            fs = ex.eval_expr(p.antiderivative, s)
            ft = ex.eval_expr(p.antiderivative, t)
            v = _beta1_branch(t, k) * vn - _beta1_branch(s, k) * v0 - (ft - fs)
            values.append(v)
            radii.append(_slack(fs, ft, v0, vn, v))
        else:
            fallback.append((p, s, t))
    cont = _certify(tol, values, radii, fallback, _spread_weight, _beta1_stieltjes)
    return StieltjesResult(Certified(atoms + cont.value, cont.radius), atoms, cont)


def _require_int(v) -> int:
    if isinstance(v, bool):
        raise NonIntegerBounds(f"bounds must be integers, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise NonIntegerBounds(f"bounds must be integers, got {v!r}")


def _stieltjes_mid(g: BvFunction, f: BvFunction, segs, ends, shares):
    """Integrals of g (continuous on each cell (s, t)) against d(mu_f) on
    open cells where f runs on the non-constant piece fp of (fp, s, t),
    with g's ends (g(s+), g(t-)); tagged Riemann-Stieltjes sums with cell
    error bounded by osc(g) * |mu_f| per subcell.  Every pending segment
    refines one round at a time, from 16 cells, until its error fits its
    share or it reaches the cell cap."""
    failed: dict = {}
    curves: tuple[list, list] = ([], [])
    f_ends = []
    for i, (fp, s, t) in enumerate(segs):
        try:
            gp = g.piece_containing(0.5 * (s + t))
            if gp is None:
                raise DomainError(f"no piece of the integrand covers ({s}, {t})")
            f_ends.append((right_limit(f, s), left_limit(f, t)))
        except (BvError, ex.EvalError) as exc:
            failed[i] = exc
            break
        curves[0].append(fp.evaluator)
        curves[1].append(gp.evaluator)

    def sums(rows, first, last, xs, fv, gv):
        gmid = _evaluate(curves[1], rows, 0.5 * (xs[:, :-1] + xs[:, 1:]), failed)
        dmu = np.diff(_with_ends(fv, rows, f_ends, first, last), axis=1)
        dg = np.diff(_with_ends(gv, rows, ends, first, last), axis=1)
        return np.sum(gmid * dmu, axis=1), np.sum(np.abs(dg) * np.abs(dmu), axis=1)

    bounds = [seg[1:] for seg in segs]
    ns = [16] * len(f_ends)
    out: list = [None] * len(ns)
    pending = list(range(len(ns)))
    while pending:
        parts = _walk([(i, ns[i]) for i in pending], bounds, curves, failed, sums)
        cut = min(failed, default=math.inf)
        grown = []
        for i in pending:
            if i >= cut:
                break
            value = math.fsum(v for v, _ in parts[i])
            err = math.fsum(e for _, e in parts[i])
            n, budget = ns[i], shares[i]
            if err <= budget:
                out[i] = (value, err + _slack(value))
            elif n >= MAX_CELLS:
                _, s, t = segs[i]
                failed[i] = ToleranceUnreachable(
                    f"Stieltjes refinement hit the {MAX_CELLS}-cell cap on [{s}, {t}]")
                break
            else:
                growth = max(2.0, 1.2 * err / max(budget, 1e-300))
                ns[i] = min(MAX_CELLS, int(n * growth) + 1)
                grown.append(i)
        pending = grown
    _raise_first(failed)
    return out


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
    from .bv import mid_value_strict

    atom_terms = []
    for bp in f.breakpoints:
        if lo <= bp.x < hi and bp.jump != 0.0:
            atom_terms.append(mid_value_strict(g, bp.x) * bp.jump)
    atoms = math.fsum(atom_terms)

    grid = _refinement_grid(lo, hi, (f, g), with_integers=False)
    fallback: list[tuple[MonotonePiece, float, float]] = []
    for s, t in zip(grid[:-1], grid[1:]):
        fp = f.piece_containing(0.5 * (s + t))
        if fp is not None and fp.direction != "const":
            fallback.append((fp, s, t))

    def weigh(fp: MonotonePiece, s: float, t: float):
        v0, vn = _segment_endpoint_values(fp, s, t)
        gs, gt = right_limit(g, s), left_limit(g, t)
        return abs(vn - v0) * abs(gs - gt) + 1e-300, (gs, gt)

    return _certify(tol, [atoms], [], fallback, weigh,
                    functools.partial(_stieltjes_mid, g, f))
