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
engine, in two phases.  A function's data that its queries read are
fixed once, on first use, in its Layout (BvFunction.layout): columns of
its pieces and breakpoints, each piece's bracket columns taken whole,
and one expr.Rows plan of its pieces' evaluators.  A routine's prepare
phase (_prepare) finds its fallback segments in one sweep over the
cells, the pieces that contain them in one search per function, and
keeps the segments as columns: arrays of one entry per segment (s, t,
the one-sided limits, the rounding terms, weights, floors and budgets),
gathered from the layout for whole pieces and computed for the ends
inside a piece, and per curve the rows of its pieces in the plan.  It
reserves each segment's rounding floor, refusing a tol that does not
cover the floors, and splits the rest over the segments.  _certify then
refines the segments of one or more routines on one route in one _refine
call, which grows their grids round by round from the measured error,
settling each round's segments column by column, and finishes each
routine in turn: it sums the values and checks the radius against tol.
So em_midvalue_check and parts_check refine both halves of their
identities in one walk, and parts_check prepares both on one grid, with
one search and one table of one-sided limits per function and one plan,
an expr.Rows of both functions' pieces made once per pair (_mid_grid).
_walk evaluates the grids of all segments together, in chunks of _CHUNK
cells, walked in blocks of at most _BATCH points: a block is a 2-D array
of rows, segments by points, whose layout only _block knows, and its
terms are computed row by row and pair by pair of cells (_pairs), with
nothing that straddles two rows.  A refinement runs the rows of its
function's plan, which groups the pieces by shape, and walks its
segments in the order of their first curve's groups, so that a block
runs each group once, on a contiguous slice of its rows, and reads each
segment's columns from one matrix (s, width, term and the route's
columns).  Every point, value and sum is the float operation of a lone
segment's grid, and every math.fsum is kept, so results and errors are
those of refining one segment after the other, and one routine after the
other: the error raised is the first failing segment's.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .bv import (
    BvFunction,
    Certified,
    left_limit,
    right_limit,
    _BATCH,
    _increments,
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
    terms = _increments(f, iv.lo, iv.hi)
    for bp in f.breakpoints:
        if iv.lo < bp.x < iv.hi:
            terms.append(abs(bp.jump))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# The layout of a function, which its refinements read

# how a piece's integral is taken: value * width, by its antiderivative,
# or by brackets
_CONST, _CLOSED, _BRACKETED = 0, 1, 2


def _route(p) -> int:
    if p.direction == "const":
        return _CONST
    return _BRACKETED if p.antiderivative is None else _CLOSED


class Layout:
    """The columns of a function that its queries read, made once per
    function (BvFunction.layout), each on first use, so a query pays
    only for what it reads.  Per piece: los and his, its lo and hi, and
    closed, the pieces not bracketed, as lists for bisect; lo and hi as
    arrays; route (_CONST for a constant piece, else _CLOSED with an
    antiderivative, else _BRACKETED); and bracket, the rows v0, vn,
    delta, term, weight and floor of _bracket_columns for the piece
    taken whole.  Per breakpoint, in increasing x: xs as a list, x, and
    left and right, its one-sided limits, each with a NaN after the
    last, which the index -1 reads.  plan is the expr.Rows of the
    pieces' evaluators, a row per piece, and joined(other) the expr.Rows
    of this function's pieces and then other's."""

    def __init__(self, f: BvFunction):
        self.pieces, self.breakpoints, self.los = f.pieces, f.breakpoints, f._piece_los
        self.his = [p.hi for p in f.pieces]
        self.closed = [k for k, p in enumerate(f.pieces) if _route(p) != _BRACKETED]
        self.xs = [bp.x for bp in f.breakpoints]

    @functools.cached_property
    def lo(self) -> np.ndarray:
        return np.array(self.los)

    @functools.cached_property
    def hi(self) -> np.ndarray:
        return np.array(self.his)

    @functools.cached_property
    def route(self) -> np.ndarray:
        return np.array([_route(p) for p in self.pieces])

    @functools.cached_property
    def bracket(self) -> np.ndarray:
        v0 = np.array([p.left_boundary_limit for p in self.pieces])
        vn = np.array([p.right_boundary_limit for p in self.pieces])
        with np.errstate(all="ignore"):  # as _prepare; a tail piece is never bracketed
            return np.array([v0, vn, *_rounding(self.lo, self.hi, v0, vn)])

    @functools.cached_property
    def x(self) -> np.ndarray:
        return np.array(self.xs)

    @functools.cached_property
    def left(self) -> np.ndarray:
        return np.array([*(bp.left_value for bp in self.breakpoints), math.nan])

    @functools.cached_property
    def right(self) -> np.ndarray:
        return np.array([*(bp.right_value for bp in self.breakpoints), math.nan])

    @functools.cached_property
    def plan(self) -> ex.Rows:
        return ex.Rows([p.evaluator for p in self.pieces])

    @functools.cached_property
    def _joins(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()  # other layout -> joined plan

    def joined(self, other: "Layout") -> ex.Rows:
        """The plan of the rows of this function's pieces and then of
        other's, made once while other lives."""
        plan = self._joins.get(other)
        if plan is None:
            plan = self._joins[other] = ex.Rows([*self.plan.exprs, *other.plan.exprs])
        return plan

    def containing(self, xs):
        """The index of the piece whose open interval contains x, for each
        x of xs, else -1 (as BvFunction.piece_containing)."""
        i = self.lo.searchsorted(xs, "right") - 1  # bisect_right
        return np.where((i >= 0) & (self.lo[i] < xs) & (xs < self.hi[i]), i, -1)

    def breakpoints_at(self, xs):
        """The index of the breakpoint at x, for each x of xs, else -1."""
        if not len(self.x):
            return np.full(len(xs), -1)
        i = np.minimum(self.x.searchsorted(xs), len(self.x) - 1)
        return np.where(self.x[i] == xs, i, -1)


# ---------------------------------------------------------------------------
# Refinement engine shared by integrate, stieltjes_beta1 and stieltjes_midvalue


def _walk(rows, ns, prow, col, plan, terms, failed: dict):
    """Walk the uniform grids of the segments rows, ns[j] cells for
    segment rows[j]: per term (a route has two), a (len(rows), chunks)
    array of the sums of each segment's chunks, -0.0 past its last chunk.
    col[:, j] holds the columns of segment rows[j] (see _refine), s and
    width first: its grid is the n+1 points over [s, s + width], cut into
    chunks of _CHUNK cells that share their end points; a chunk or block
    also takes the point beyond each end that is not a grid's (its pads).
    plan is the Rows of the curves' expressions, curve c of segment i in
    its row prow[c, i].  The segments of one cell count and chunk are walked
    together, in the order of rows, in blocks of at most _BATCH points.
    terms(col, a, last, q, y) gives a block's terms, a 2-D array per term
    with a row per segment, from the block's columns col and its values y
    (see _block).  A row that fails to evaluate records its segment's
    first EvalError in failed; later segments' rows are then skipped."""
    nl = ns.tolist()
    out = np.empty((2, len(nl), -(-max(nl) // _CHUNK)))
    out.fill(-0.0)
    if nl.count(nl[0]) == len(nl):
        batches = [(nl[0], np.arange(len(nl)))]
    else:
        batches = [(n, (ns == n).nonzero()[0]) for n in sorted(set(nl))]
    for n, pos in batches:
        for c, start in enumerate(range(0, n, _CHUNK)):
            stop = min(n, start + _CHUNK)
            size = max(1, _BATCH // (stop - start + 1))
            for k in range(0, len(pos), size):
                p = pos[k:k + size]
                if failed:
                    p = p[rows[p] < min(failed)]
                    if not p.size:
                        continue
                if len(p) == len(nl):  # all of them, in order
                    p, seg, block_col = slice(None), rows, col
                else:
                    seg, block_col = rows[p], col[:, p]
                block = functools.partial(_block, seg, block_col, n, prow, plan, terms)
                if stop - start < _BATCH:
                    sums = [np.add.reduce(a, axis=1) for a in block(start, stop, failed)]
                else:
                    sums = _blocks(block, start, stop)
                    if sums is None:
                        # the whole chunk as one block records the error
                        # that the walk without blocks met
                        block(start, stop, failed)
                        continue
                out[0, p, c], out[1, p, c] = sums
    return out


def _block(seg, col, n: int, prow, plan, terms, c0: int, c1: int, errs: dict):
    """The terms of the cells between the points c0 and c1 of the n-cell
    grids of the segments seg, whose columns col holds, evaluating the
    curves in order; errors go to errs.  The block is a 2-D array of
    rows, a row per curve and segment (curve c in the rows from c *
    len(seg) on), each holding the points c0..c1 and the pads beside
    them, so nothing straddles two rows.  A grid's end, which is never
    evaluated, is evaluated at the point beside it, and its value
    replaced by the curve's limit there: col holds s, width and term,
    then per curve the limit at s, then per curve the limit at t.
    terms(col, a, last, q, y) reads the rows y, where a is the row's
    index of the point c0, last tells whether the block holds the grids'
    end and q is its number of pairs of cells (see _pairs)."""
    first, last = c0 == 0, c1 == n
    a = int(not first)
    size = c1 + (not last) - c0 + a + 1
    xs = np.arange(c0 - a, c0 - a + size, dtype=np.float64) / n  # k / n
    if first:
        xs[0] = xs[1]
    if last:
        xs[-1] = xs[-2]
    xs = col[1, :, None] * xs
    xs += col[0, :, None]  # s + (t - s) * (k / n), as for a lone grid
    y = _evaluate(plan, prow, seg, xs, errs)
    curves = len(prow)
    if first:
        y[:, 0] = col[3:3 + curves].reshape(-1)
    if last:
        y[:, -1] = col[3 + curves:3 + 2 * curves].reshape(-1)
    return terms(col, a, last, (c1 - c0) // 2, y)


def _pairs(v, a: int, q: int):
    """The first points, middles and last points of the q pairs of cells
    of the rows v whose first pair starts at the point a; of rows with an
    entry per cell, the pairs' first and second cells (and then the
    cells after each pair)."""
    return v[:, a:a + 2 * q:2], v[:, a + 1:a + 2 * q + 1:2], v[:, a + 2:a + 2 * q + 2:2]


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
    return [np.add.reduce(buf[:, :p], axis=1) for buf, p in zip(bufs, pos)]


def _evaluate(plan, prow, seg, xs, errs: dict):
    """Each curve's expressions for the segments seg, rows prow[:, seg] of
    plan, over the points xs of each row, in one run of plan, the curves'
    rows stacked; a failing row records its segment's error in errs, if
    it is the first (an earlier curve's first)."""
    curves = len(prow)
    rows = prow[0, seg] if curves == 1 else prow[:, seg].reshape(-1)
    vals, errors = plan(xs if curves == 1 else np.concatenate([xs] * curves), rows)
    for r in sorted(errors):
        errs.setdefault(int(seg[r % len(seg)]), errors[r])
    return vals


def _fsums(*columns) -> np.ndarray:
    """math.fsum of each row of the columns."""
    return np.fromiter(map(math.fsum, zip(*[c.tolist() for c in columns])), np.float64,
                       len(columns[0]))


class _Route(NamedTuple):
    """How fallback segments are refined: refine(segs) -> (values,
    radii, failed) refines the segments of the columns segs together
    (see _refine); budget(share, segs) is the part of the segments'
    shares of tol that their refined errors may take; post(segs, values,
    radii), if given, turns the route's values and radii into the
    routine's."""

    refine: Callable
    budget: Callable
    post: Callable | None = None


class _Claim(NamedTuple):
    """A routine's part of a refinement walk, as its prepare phase
    leaves it: tol, the closed-form values and radii, the columns of the
    fallback segments (see _prepare), and wrap, which makes the routine's
    result of its enclosure."""

    route: _Route
    tol: float
    values: list
    radii: list
    segs: dict
    wrap: Callable | None


# The columns' arithmetic stands for float arithmetic, which rounds an
# overflow to inf and an invalid operation to nan without a word: so does
# numpy under np.errstate(all="ignore").
@np.errstate(all="ignore")
def _prepare(route: _Route, tol: float, values: list[float], radii: list[float],
             fallback: tuple, weigh, wrap=None, reserved: float = 0.0) -> _Claim:
    """The prepare phase of a routine.  fallback holds the columns of the
    fallback segments, of one entry per segment (their pieces' indices, s
    and t), and weigh(*fallback) their columns for the route: arrays of
    one entry per segment, plan, the expr.Rows of the curves, rows (per
    curve, the segments' rows of plan), and weight and floor.  Each
    segment gets its floor plus a share of the rest of tol, after the
    closed-form radii, the radius reserved for wrap to add and all
    floors, in proportion to weight: its budget.  A tol that does not
    cover them is refused."""
    segs: dict = {}
    if len(fallback[0]):
        budget = tol - math.fsum(radii) - reserved
        if budget > 0.0:
            segs = weigh(*fallback)
            budget -= math.fsum(segs["floor"].tolist())
        if not budget > 0.0:
            raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
        weight = segs.pop("weight")
        share = segs.pop("floor") + budget * weight / math.fsum(weight.tolist())
        segs["budget"] = route.budget(share, segs)
    return _Claim(route, tol, values, radii, segs, wrap)


def _joined(parts: list) -> dict:
    """The columns that all of the claims' segment columns parts have, in
    turn."""
    parts = [p for p in parts if p]
    if len(parts) < 2:
        return parts[0] if parts else {}
    joined = {k: np.concatenate([p[k] for p in parts])
              for k in set.intersection(*map(set, parts)) if k not in ("plan", "rows")}
    joined["plan"] = parts[0]["plan"]  # the claims of one call share it
    joined["rows"] = tuple(np.concatenate([p["rows"][c] for p in parts])
                           for c in range(len(parts[0]["rows"])))
    return joined


def _certify(*claims: _Claim) -> list:
    """The results of the claims of routines on one route: the fallback
    segments of all of them go to one refine call, and then each claim
    is finished in turn: its first failing segment's error is raised, or
    its values sum to one enclosure, refused if its radius exceeds tol.
    A segment's grid, sums and radius depend on it alone, so results
    and errors are those of the routines called one after the other,
    provided the caller raises an error of a later routine's prepare
    phase only after certifying the claims before it."""
    segs = _joined([c.segs for c in claims])
    values, radii, failed = (claims[0].route.refine(segs) if segs
                             else (np.empty(0), np.empty(0), {}))
    results, j = [], 0
    for c in claims:
        i, j = j, j + (len(c.segs["s"]) if c.segs else 0)
        if min(failed, default=j) < j:
            raise failed[min(failed)]
        value, radius = values[i:j], radii[i:j]
        if c.route.post is not None and c.segs:
            value, radius = c.route.post(c.segs, value, radius)
        result = _total(c.values + value.tolist(), c.radii + radius.tolist())
        if not result.radius <= c.tol:
            raise ToleranceUnreachable(
                f"achieved radius {result.radius:.3g} exceeds tol {c.tol:.3g}")
        results.append(result if c.wrap is None else c.wrap(result))
    return results


def _total(values: list, radii: list) -> Certified:
    """The enclosure of the sum of values with radii, whose radius also
    covers the rounding of the sum: what fsum leaves of the values less
    their sum, an ulp up, or nothing for an exact sum."""
    value, radius = math.fsum(values), math.fsum(radii)
    lost = math.fsum([*values, -value]) if math.isfinite(value) else 0.0
    if lost:
        radius = math.nextafter(radius + abs(lost), math.inf)
    return Certified(value, radius)


@np.errstate(all="ignore")  # as _prepare
def _refine(route: str, segs: dict, columns: list, terms, settle, *, n0: int):
    """Refine the segments of the columns segs (s, t, budget, term, and
    the plan and rows of the curves) together, round by round from n0
    cells: each pending segment walks a grid of n cells, with pads (see
    _walk).  The walk and settle see the segments' columns as the rows of
    one matrix, s, width (t - s) and term, then the route's columns:
    terms (see _walk) reads them, and settle(col, n, sums) -> (values,
    errs, roundings) reads the sums of the segments whose columns col
    holds, n[j] cells for col[:, j].  Segment i is done, with radius err
    + rounding, when err fits budget[i]; else n grows by a power of two,
    at least twofold, aiming just under the budget at order 2, up to the
    cap of MAX_CELLS cells.  -> (values, radii, failed): failed maps
    failing segments to their errors, the first of which is sure to be
    there, and values[i] and radii[i] are segment i's if no segment up
    to i failed (the rows of later ones are skipped).

    The evaluation layout is the function's (see Layout): its expr.Rows
    plan, whose rows the curves' pieces are, and the segments walked in
    the order of their first curve's groups, so that a block's rows of
    that curve come in group order, each group a contiguous slice."""
    s, t, budget = segs["s"], segs["t"], segs["budget"]
    plan, prow = segs["plan"], np.array(segs["rows"])
    cols = np.array([s, t - s, segs["term"], *columns])
    ns = np.full(len(s), n0)
    values, radii = np.empty(len(s)), np.empty(len(s))
    failed: dict = {}
    rows = np.argsort(plan.group[prow[0]], kind="stable")
    while rows.size:
        n = ns[rows]
        col = cols[:, rows]
        value, err, rounding = settle(col, n, _walk(rows, n, prow, col, plan, terms, failed))
        fits = err <= budget[rows]
        if not failed and fits.all():  # the last round
            values[rows] = value
            radii[rows] = err + rounding
            break
        grow = ~fits
        if failed:  # the segments after the first failing one are dropped
            fits &= rows < min(failed)
            grow &= rows < min(failed)
        capped = grow & (n >= MAX_CELLS)
        if capped.any():
            i = int(rows[capped].min())
            failed[i] = ToleranceUnreachable(
                f"{route} hit the {MAX_CELLS}-cell cap on {[float(s[i]), float(t[i])]}")
            fits &= rows < i
            grow &= rows < i
        values[rows[fits]] = value[fits]
        radii[rows[fits]] = err[fits] + rounding[fits]
        # n stays a power of two, so that segments share batches
        ns[rows[grow]] = [
            min(MAX_CELLS, k << max(1, math.ceil(0.5 * math.log2(1.2 * e / max(b, 1e-300)))))
            for k, e, b in zip(n[grow].tolist(), err[grow].tolist(),
                               budget[rows[grow]].tolist())]
        rows = rows[grow]
    return values, radii, failed


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


def _rounding(s, t, v0, vn):
    """(delta, term, weight, floor) of bracketed segments [s, t] with ends
    v0, vn.  delta bounds the error of a second difference: 4 sample and 4
    point errors (at f's mean slope), twice over.  term bounds what
    rounding adds to a bracket: (t - s) * delta for sample and point
    errors in M and T and for cells classed by a difference off by delta,
    and 8 * _SUM_ULPS ulps of (t - s) * max|f| for the sums.  weight is
    (t - s) * |vn - v0|, never 0, and floor is term and the widening of
    flat cells, at most (t - s) * delta."""
    width, rise = t - s, np.abs(vn - v0)
    big = np.maximum(np.abs(v0), np.abs(vn))
    delta = 8.0 * _EPS * (_ULPS * big + np.maximum(np.abs(s), np.abs(t)) * rise / width)
    term = width * (delta + 8 * _SUM_ULPS * _EPS * big)
    return delta, term, width * rise + 1e-300, term + width * delta


def _mid_rounding(u0, un, g0, gn):
    """(eu, eg, term, widening) of mid-value segments on which f runs
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
    big = np.maximum(np.abs(g0), np.abs(gn))
    eu = 8 * _ULPS * _EPS * np.maximum(np.abs(u0), np.abs(un))
    eg = 8 * _ULPS * _EPS * big
    du, dg = np.abs(un - u0), np.abs(gn - g0)
    widening = eg * du + eu * dg
    return eu, eg, 0.5 * (widening + eu * big) + 8 * _SUM_ULPS * _EPS * big * du, widening


def _bracket_columns(f: BvFunction, ks, ss, ts) -> dict:
    """The columns of the bracketed segments (f.pieces[ks[i]], ss[i],
    ts[i]): their plan and rows, s, t, ends v0 = p(s+) and vn = p(t-),
    and delta, term, weight and floor (see _rounding).  A piece taken
    whole has its columns in f's layout; the ends inside a piece are
    evaluated segment by segment, once per piece and point, and their
    segments' columns computed."""
    lay = f.layout
    bracket = lay.bracket[:, ks]
    v0, vn, delta, term, weight, floor = bracket
    at_s, at_t = ss != lay.lo[ks], ts != lay.hi[ks]
    clipped = (at_s | at_t).nonzero()[0]
    if clipped.size:
        seen: dict = {}
        for i, k, s, t, es, et in zip(clipped.tolist(), ks[clipped].tolist(),
                                      ss[clipped].tolist(), ts[clipped].tolist(),
                                      at_s[clipped].tolist(), at_t[clipped].tolist()):
            e = f.pieces[k].evaluator
            if es:
                v0[i] = _value(seen, e, s)
            if et:
                vn[i] = _value(seen, e, t)
        bracket[2:, clipped] = _rounding(ss[clipped], ts[clipped], v0[clipped], vn[clipped])
    return {"plan": lay.plan, "rows": (ks,), "s": ss, "t": ts, "v0": v0, "vn": vn,
            "delta": delta, "term": term, "weight": weight, "floor": floor}


def _bracket_terms(col, a, last, q, y):
    """The terms of a block of a grid of an even number of cells, for the
    segments whose columns col holds (see _bracket); y holds the rows of
    values of _block.  The terms are the block's values, but the grid's
    ends and the block's first point; and per bracket cell, two grid
    cells, its half-gap in units of half a step."""
    delta = col[5][:, None]
    # second differences, 0 (which every class admits) at the rows' ends,
    # where they are read only at a grid's end
    d = np.empty(y.shape)
    d[:, 0] = d[:, -1] = 0.0
    np.multiply(y[:, 1:-1], -2.0, out=d[:, 1:-1])
    d[:, 1:-1] += y[:, :-2]
    d[:, 1:-1] += y[:, 2:]
    # per bracket cell, its ends and its middle
    start, mid, end = _pairs(d, a, q)
    lo = np.minimum(start, mid)
    hi = np.maximum(start, mid)
    np.minimum(lo, end, out=lo)
    np.maximum(hi, end, out=hi)
    convex = lo >= -delta
    concave = hi <= delta
    # neither: the Darboux bracket of the two halves; convex: [M, T];
    # concave: [T, M]; flat: between them, widened by h * delta
    start, _, end = _pairs(y, a, q)
    gap = np.subtract(end, start, out=lo)
    np.abs(gap, out=gap)
    np.maximum(mid, 0.0, out=gap, where=convex)
    np.negative(mid, out=hi, where=concave)
    np.maximum(hi, 0.0, out=gap, where=concave)
    both = np.logical_and(convex, concave, out=convex)
    np.abs(mid, out=gap, where=both)
    np.add(gap, 4.0 * delta, out=gap, where=both)
    return y[:, a + 1:a + 2 * q + 1 - last], gap


def _bracket(segs: dict):
    """Integrals of pieces over the segments of the columns segs (see
    _bracket_columns): the sum of the brackets' midpoints, which is the
    trapezoid sum of the whole grid, and of their half-gaps, which must
    fit the budget, plus term.  The walk's columns are v0, vn and delta."""
    def settle(col, n, sums):
        a, b = col[3], col[4]
        h = col[1] / n
        value = h * (_fsums(a, b, *sums[0].T) - 0.5 * (a + b))
        return value, 0.5 * h * _fsums(*sums[1].T), col[2]

    return _refine("Bracket refinement", segs, [segs["v0"], segs["vn"], segs["delta"]],
                   _bracket_terms, settle, n0=64)


# the half-gaps of a bracketed segment may take its share less term
_BRACKET = _Route(_bracket, lambda share, segs: share - segs["term"])


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
    values, radii = [], []
    if a == b:  # exact, whatever tol
        return _prepare(_BRACKET, math.inf, values, radii, ((), (), ()), None)
    lay = f.layout
    # the pieces i..j-1 meet ]a, b[; closed[c0:c1] are those not bracketed
    i, j = bisect.bisect_right(lay.his, a), bisect.bisect_left(lay.los, b)
    c0, c1 = bisect.bisect_left(lay.closed, i), bisect.bisect_left(lay.closed, j)
    for k in lay.closed[c0:c1]:
        p = f.pieces[k]
        s, t = max(a, p.lo), min(b, p.hi)
        if p.direction == "const":
            c = p.left_boundary_limit
            values.append(c * (t - s))
            # an ulp-scale radius unless the difference and product are exact,
            # and one subnormal ulp for a product below the normal range,
            # whose relative slack underflows (a non-finite product goes on
            # to Certified, which refuses it)
            exact = (math.isfinite(values[-1])
                     and Fraction(values[-1]) == Fraction(c) * (Fraction(t) - Fraction(s)))
            radii.append(0.0 if exact else _slack(values[-1])
                         + (5e-324 if abs(values[-1]) < sys.float_info.min else 0.0))
        else:
            fs = ex.eval_expr(p.antiderivative, s)
            ft = ex.eval_expr(p.antiderivative, t)
            values.append(ft - fs)
            radii.append(_slack(fs, ft, ft - fs))
    if c1 - c0 == j - i:  # nothing to bracket
        return _prepare(_BRACKET, tol, values, radii, ((), (), ()), None)
    ks = np.arange(i, j)
    if c1 > c0:
        ks = ks[lay.route[i:j] == _BRACKETED]
    lo, hi = lay.lo[ks], lay.hi[ks]
    ss, ts = np.where(lo > a, lo, a), np.where(hi < b, hi, b)  # max(a, lo), min(b, hi)
    return _prepare(_BRACKET, tol, values, radii, (ks, ss, ts),
                    functools.partial(_bracket_columns, f))


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
        return _total([value, head.value], [radius, head.radius])
    return Certified(value, radius)


# ---------------------------------------------------------------------------
# Periodic Bernoulli kernel


def beta1(x: float) -> float:
    """1-periodic extension of B1(x) = x - 1/2, set to 0 at integers."""
    fr = x - math.floor(x)
    if fr == 0.0:
        return 0.0
    return fr - 0.5



def _parts(s, t, v0, vn, integral):
    """beta1 against d(mu_f) on cells (s, t) of the unit cells (k, k+1),
    where beta1 = x - k - 1/2 has slope 1: by parts, [beta1 * f] at the
    ends, with f(s+) = v0 and f(t-) = vn, less the integral of f.  Floats
    or arrays."""
    k = s // 1.0  # floor(s), exactly
    return (t - k - 0.5) * vn - (s - k - 0.5) * v0 - integral


def _parts_columns(f: BvFunction, ks, ss, ts) -> dict:
    """The columns of _bracket_columns, and the rounding of _parts in
    slack, which the floor takes too: |beta1| <= 1/2 and |integral| <=
    (t - s) * max|f|."""
    segs = _bracket_columns(f, ks, ss, ts)
    a, b = np.abs(segs["v0"]), np.abs(segs["vn"])
    segs["slack"] = 8.0 * _EPS * _fsums(  # _slack(v0, vn, (t - s) * max|f|)
        a, b, np.abs((segs["t"] - segs["s"]) * np.maximum(a, b)))
    segs["floor"] = segs["floor"] + segs["slack"]
    return segs


@np.errstate(all="ignore")  # as _prepare
def _by_parts(segs: dict, values, radii):
    # _parts on the segments, whose integrals are bracketed
    return (_parts(segs["s"], segs["t"], segs["v0"], segs["vn"], values),
            radii + segs["slack"])


# the half-gaps may take the share less the slack of _parts and term
_BY_PARTS = _Route(_bracket, lambda share, segs: share - segs["slack"] - segs["term"],
                   _by_parts)


# ---------------------------------------------------------------------------
# Riemann-Stieltjes integration against d(mu_f)


def _refinement_grid(lo: float, hi: float, fns: tuple[BvFunction, ...],
                     with_integers: bool) -> list[float]:
    pts = {lo, hi}
    for fn in fns:
        xs = fn.layout.xs
        pts.update(xs[bisect.bisect_right(xs, lo):bisect.bisect_left(xs, hi)])
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
    # one pass over the atoms, f's breakpoints in ]lo, hi[: their terms,
    # the terms' sizes, which _slack sums, and the absolute errors that
    # _slack, relative to the terms, leaves out
    lay = f.layout
    terms, sizes, errors = [], [], []
    for bp in f.breakpoints[bisect.bisect_right(lay.xs, lo):bisect.bisect_left(lay.xs, hi)]:
        b, jump = beta1(bp.x), bp.jump
        term = b * jump
        size = abs(term)
        terms.append(term)
        sizes.append(size)
        if jump != 0.0:
            # beta1's rounding: x - floor(x) is exact for x >= 0, and then so
            # is fr - 1/2, for fr >= 1/4 (Sterbenz) or x >= 1 (fr is then a
            # multiple of 2^-52); otherwise fr < 1 and fr - 1/2 round once
            # each, and lose at most 2^-54 + 2^-55.  Then a product below
            # the normal range, as in the atoms of stieltjes_midvalue
            errors.append((0.0 if bp.x >= 0.25 else 0.5 * _EPS) * abs(jump)
                          + (5e-324 if b != 0.0 and size < sys.float_info.min else 0.0))
    atoms = math.fsum(terms)
    atoms_radius = 8.0 * _EPS * math.fsum(sizes) + math.fsum(errors)  # _slack(*terms)
    grid = _refinement_grid(float(lo), float(hi), (f,), with_integers=True)
    x = np.array(grid)
    ks = lay.containing(0.5 * (x[:-1] + x[1:]))  # the pieces of the cells
    ss, ts = x[:-1], x[1:]
    uncovered = (ks < 0).nonzero()[0]
    route = lay.route[ks]
    values, radii = [], []
    for k in (route == _CLOSED).nonzero()[0].tolist():
        if uncovered.size and k >= uncovered[0]:  # raised before its closed form
            break
        s, t = grid[k], grid[k + 1]
        p = f.pieces[ks[k]]
        v0, vn = _segment_endpoint_values(p, s, t)
        fs = ex.eval_expr(p.antiderivative, s)
        ft = ex.eval_expr(p.antiderivative, t)
        v = _parts(s, t, v0, vn, ft - fs)
        values.append(v)
        radii.append(_slack(fs, ft, v0, vn, v))
    if uncovered.size:
        k = int(uncovered[0])
        raise DomainError(f"no piece covers ({grid[k]}, {grid[k + 1]})")
    bracketed = route == _BRACKETED

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

    return _prepare(_BY_PARTS, tol, values, radii,
                    (ks[bracketed], ss[bracketed], ts[bracketed]),
                    functools.partial(_parts_columns, f), wrap, atoms_radius)


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


class _Sides(NamedTuple):
    """A function's data on a refinement grid: at, the indices of its
    pieces at the middles of the cells, -1 where none contains one; left
    and right, its one-sided limits at the points as left_limit and
    right_limit take them, not strict (NaN where its piece fails to
    evaluate); failed, which maps each such point to its EvalError;
    loose, the points with neither a breakpoint nor a piece, where a
    strict limit may differ; and offset, the row of its first piece in
    the grid's plan."""

    at: np.ndarray
    left: np.ndarray
    right: np.ndarray
    failed: dict
    loose: set
    offset: int


def _sides(fn: BvFunction, grid: list, x, mids, offset: int) -> _Sides:
    """The _Sides of fn on a refinement grid: its points grid, as the
    array x, and the middles mids of its cells.  The limits at fn's
    breakpoints are its layout's; at each other point (a breakpoint of
    the other function, or a grid end) its piece is evaluated, once."""
    lay = fn.layout
    bp = lay.breakpoints_at(x)
    left, right = lay.left[bp], lay.right[bp]
    failed, loose = {}, set()
    for k in (bp < 0).nonzero()[0].tolist():
        p = fn.piece_containing(grid[k])
        if p is None:
            loose.add(k)
            left[k], right[k] = left_limit(fn, grid[k]), right_limit(fn, grid[k])
            continue
        try:
            left[k] = right[k] = ex.eval_expr(p.evaluator, grid[k])
        except ex.EvalError as err:
            left[k] = right[k] = math.nan
            failed[k] = err.with_traceback(None)
    return _Sides(lay.containing(mids), left, right, failed, loose, offset)


def _strict_left(mid, fn: BvFunction, k: int) -> float:
    """left_limit(fn, x, strict=True) at the point x = mid.grid[k], read
    from fn's _Sides."""
    sides = mid.sides[id(fn)]
    if k in sides.failed:
        raise sides.failed[k]
    if k in sides.loose:
        return left_limit(fn, mid.grid[k], strict=True)
    return float(sides.left[k])


class _MidGrid(NamedTuple):
    """What the mid-value integrals over one common refinement grid
    share: the grid, its points as an array x, by id the _Sides of each
    function, and plan, the expr.Rows of the rows of the first
    function's pieces and then, unless it is the first, of the
    second's."""

    grid: list
    x: np.ndarray
    sides: dict
    plan: ex.Rows


def _mid_grid(f: BvFunction, g: BvFunction, lo: float, hi: float) -> _MidGrid:
    """The _MidGrid of f and g over [lo, hi], what both integrals of
    parts_check and its right-hand side share: one search per function
    and one plan, an expr.Rows of both functions' pieces made once per
    pair (Layout.joined).  Each piece is evaluated once at each point;
    an evaluation that fails is raised only where a phase that reads it
    meets it (_midvalue_claim)."""
    if math.isnan(lo) or math.isnan(hi) or lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    for fn in (f, g):
        if lo < fn.domain_lo or hi > fn.domain_hi:
            raise DomainError(f"[{lo}, {hi}[ outside a domain")
    grid = _refinement_grid(lo, hi, (f, g), with_integers=False)
    x = np.array(grid)
    mids = 0.5 * (x[:-1] + x[1:])
    sides = {id(f): _sides(f, grid, x, mids, 0)}
    if g is f:
        return _MidGrid(grid, x, sides, f.layout.plan)
    sides[id(g)] = _sides(g, grid, x, mids, len(f.pieces))
    return _MidGrid(grid, x, sides, f.layout.joined(g.layout))


def _mid_terms(col, a, last, q, y):
    """The terms of a block of a mid-value grid of an even number of
    cells: per pair of cells, twice its bracket's midpoint and twice its
    width.  y holds the rows of values of _block, those of g under those
    of f; col holds the segments' columns (see _stieltjes_mid)."""
    eu, eg = col[7][:, None], col[8][:, None]
    n = len(eu)
    # the steps of f and of g
    steps = y[:, 1:] - y[:, :-1]
    d, e = steps[:n], steps[n:]
    # cross differences and their rounding bounds (see _mid_rounding) at
    # the points, 0 (which every class admits) at the rows' ends, where
    # they are read only at a grid's end
    cross, delta = np.empty((2, n, y.shape[1]))
    cross[:, 0] = cross[:, -1] = delta[:, 0] = delta[:, -1] = 0.0
    np.multiply(e[:, 1:], d[:, :-1], out=cross[:, 1:-1])
    cross[:, 1:-1] -= e[:, :-1] * d[:, 1:]
    # twice the trapezoid sums of the cells
    trapezoid = y[n:, :-1] + y[n:, 1:]
    trapezoid *= d
    ad, ae = np.abs(steps, out=steps)[:n], steps[n:]
    np.add(ad[:, :-1], ad[:, 1:], out=delta[:, 1:-1])
    delta[:, 1:-1] *= eg
    delta[:, 1:-1] += (ae[:, :-1] + ae[:, 1:]) * eu
    # neither convex nor concave: the crosses at a pair's ends and middle
    # leave [-delta, delta] on both sides
    up, down = _pairs(cross > delta, a, q), _pairs(cross < -delta, a, q)
    neither = (up[0] | up[1] | up[2]) & (down[0] | down[1] | down[2])
    d1, d2, _ = _pairs(ad, a, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # convex or concave, the integral is between the trapezoid sum T
        # and T - cross * rho, rho = (d1^2 + d2^2) / (2 d1 d2); off by at
        # most delta * rho.  Twice rho is r + 1/r, r = |d1 / d2|.
        rho = d1 / d2
        rho += 1.0 / rho
        c = _pairs(cross, a, q)[1] * rho
        rho *= _pairs(delta, a, q)[1]
        lo = np.maximum(c, 0.0)
        hi = np.maximum(np.negative(c, out=c), 0.0)
        lo += rho
        hi += rho
        # the Darboux bracket, its width twice, caps every pair (and
        # replaces a NaN or infinite rho's)
        dd = np.add(*_pairs(ae * ad, a, q)[:2])
        np.putmask(lo, neither, dd)
        np.putmask(hi, neither, dd)
        np.fmin(lo, dd, out=lo)
        np.fmin(hi, dd, out=hi)
    t1, t2, _ = _pairs(trapezoid, a, q)
    value = t1 + t2
    value += 0.5 * (hi - lo)
    lo += hi
    return value, lo


def _stieltjes_mid(segs: dict):
    """Integrals of g against d(mu_f) on the open cells (s, t) of the
    columns segs, where f runs on its non-constant piece and g on its
    piece, with ends u0 = f(s+), un = f(t-), g0 = g(s+), gn = g(t-).
    There it is the integral of phi = g o f^-1, which is monotone, over
    [f(s+), f(t-)], and the grid points x_k give its nodes (f(x_k),
    g(x_k)).  Each pair of grid cells is classed by the cross differences
    at its ends and middle (_mid_rounding): convex or concave, phi lies
    between the trapezoid sum and the secants extended from the pair's
    other cell; flat within rounding, both ways; neither, the Darboux
    bracket |dg| * |df| of its cells, which also caps every pair.  The
    walk's columns are u0, g0, un, gn, eu and eg."""
    def settle(col, n, sums):
        # term is relative: unless g is 0, a cell's products that round
        # below the normal range add an absolute error, at most 8 of the
        # least subnormal (0 beside a normal radius)
        under = np.where((col[4] != 0.0) | (col[6] != 0.0), 8 * 5e-324 * n, 0.0)
        return 0.5 * _fsums(*sums[0].T), 0.25 * _fsums(*sums[1].T), col[2] + under

    return _refine("Stieltjes refinement", segs,
                   [segs[k] for k in ("u0", "g0", "un", "gn", "eu", "eg")],
                   _mid_terms, settle, n0=16)


# the brackets' half-gaps may take the share less term
_MIDVALUE = _Route(_stieltjes_mid, lambda share, segs: share - segs["term"])


def stieltjes_midvalue(g: BvFunction, f: BvFunction, lo: float, hi: float,
                       tol: float = DEFAULT_TOL) -> Certified:
    """Certified integral of the mid-value modification of g over
    [lo, hi[ against d(mu_f).

    Atoms: g_m(x) * jump_f(x) over breakpoints of f in [lo, hi[ (the
    left end belongs to the interval).  The continuous part runs on the
    common refinement of both breakpoint sets, so g is continuous and
    equal to g_m inside every cell; cells where f is constant add 0.
    """
    return _certify(_midvalue_claim(g, f, lo, hi, tol, _mid_grid(f, g, lo, hi)))[0]


def _midvalue_claim(g: BvFunction, f: BvFunction, lo: float, hi: float, tol: float,
                    mid: _MidGrid) -> _Claim:
    """The prepare phase of stieltjes_midvalue, on the grid, the _Sides
    of f and g and the plan that mid holds (see _mid_grid), which the
    routines that share it share: the cell ends are shared by the atoms
    and the ends of both cells beside them.  Errors are raised in the
    order of the scalar evaluations: the atoms' in turn, then each cell's
    limits, f's and then g's, cell by cell."""
    grid, x, sides, plan = mid
    fs, gs = sides[id(f)], sides[id(g)]
    lay = f.layout
    # the atoms g_m(x) * jump: g's limits at each jump of f in [lo, hi[,
    # as mid_value_strict(g, x) takes them, then the terms in one pass
    i, j = bisect.bisect_left(lay.xs, lo), bisect.bisect_left(lay.xs, hi)
    with np.errstate(all="ignore"):  # as _prepare
        jump = lay.right[i:j] - lay.left[i:j]
    at = jump != 0.0
    jump = jump[at]
    ks = x.searchsorted(lay.x[i:j][at])
    left, right = gs.left[ks], gs.right[ks]
    if gs.failed or gs.loose:
        for n, k in enumerate(ks.tolist()):
            if k in gs.failed:  # g's piece fails to evaluate there
                raise gs.failed[k]
            if k in gs.loose:  # neither a breakpoint nor a piece: strict limits
                left[n], right[n] = left_limit(g, grid[k], True), right_limit(g, grid[k], True)
    with np.errstate(all="ignore"):  # as _prepare
        total = left + right
        g_mid = 0.5 * total
        atom_terms = g_mid * jump
        terms = atom_terms.tolist()
        radius = _slack(*terms)
        # _slack is relative: a mid-value or product of a nonzero factor
        # that rounds below the normal range adds an absolute error, the
        # least subnormal, twice what rounding to nearest loses there
        tiny = sys.float_info.min
        if (np.abs(g_mid) < tiny).any() or (np.abs(atom_terms) < tiny).any():
            underflows = (np.where((total != 0.0) & (np.abs(g_mid) < tiny), 5e-324, 0.0)
                          * np.maximum(1.0, np.abs(jump))
                          + np.where((g_mid != 0.0) & (np.abs(atom_terms) < tiny), 5e-324, 0.0))
            radius += math.fsum(underflows.tolist())
    atoms = math.fsum(terms)

    # the fallback cells, where f is not constant: pieces of f and g, s, t
    fks, gks = fs.at, gs.at
    cells = ((fks >= 0) & (lay.route[fks] != _CONST)).nonzero()[0]
    fks, gks = fks[cells], gks[cells]
    if (gks < 0).any():
        k = int(cells[(gks < 0).argmax()])
        raise DomainError(f"no piece of the integrand covers ({grid[k]}, {grid[k + 1]})")

    def weigh(fks, gks, ss, ts) -> dict:
        # the limits of f and g at both ends, cell by cell; the first
        # that failed to evaluate is raised
        if fs.failed or gs.failed:
            for k in cells.tolist():
                for side, at in ((fs, k), (fs, k + 1), (gs, k), (gs, k + 1)):
                    if at in side.failed:
                        raise side.failed[at]
        u0, un, g0, gn = fs.right[cells], fs.left[cells + 1], gs.right[cells], gs.left[cells + 1]
        eu, eg, term, widening = _mid_rounding(u0, un, g0, gn)
        # floor: the rounding term and the widening of flat pairs, twice
        return {"plan": plan, "rows": (fks + fs.offset, gks + gs.offset), "s": ss, "t": ts,
                "u0": u0, "un": un, "g0": g0, "gn": gn, "eu": eu, "eg": eg, "term": term,
                "weight": np.abs(un - u0) * np.abs(g0 - gn) + 1e-300,
                "floor": term + 2.0 * widening}

    return _prepare(_MIDVALUE, tol, [atoms], [radius], (fks, gks, x[cells], x[cells + 1]),
                    weigh)
