"""Piecewise-monotone model of functions of bounded variation.

A function is described by monotone pieces between breakpoints, with
every one-sided limit stored explicitly.  That makes pointwise
variation, jumps and the Jordan decomposition exact computations on the
representation instead of estimates from samples.  Validation is a
falsification check: evaluators are black boxes, so monotonicity and
limit consistency are tested by sampling, not proved.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    DomainError,
    ExteriorLimitRequired,
    ValidationError,
    Violation,
)

INC, DEC, CONST = "inc", "dec", "const"
DIRECTIONS = (INC, DEC, CONST)

# declared limits vs sampled evaluator values
REL_TOL = 1e-6
ABS_TOL = 1e-9
# monotonicity sampling density
MONO_SAMPLES = 1025
EDGE_SAMPLES = 64
# antiderivative difference-quotient check
FD_POINTS = 32
FD_REL_TOL = 1e-4


@dataclass(frozen=True, slots=True)
class Certified:
    """A value together with a radius enclosing the true quantity."""

    value: float
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite certified value {self.value!r}")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"bad radius {self.radius!r}")

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return abs(x - self.value) <= self.radius + slack


@dataclass(frozen=True)
class Breakpoint:
    """A location with the stored triple (f(x-), f(x), f(x+))."""

    x: float
    left_value: float
    value: float
    right_value: float

    @property
    def jump(self) -> float:
        return self.right_value - self.left_value

    @property
    def excursion(self) -> float:
        """|f(x)-f(x-)| + |f(x+)-f(x)|, the point's contribution to pV."""
        return abs(self.value - self.left_value) + abs(self.right_value - self.value)


@dataclass(frozen=True)
class MonotonePiece:
    """A continuous monotone segment on the open interval (lo, hi)."""

    lo: float
    hi: float  # math.inf on the tail piece of a half-line
    evaluator: ex.Expr
    direction: str
    left_boundary_limit: float
    right_boundary_limit: float
    antiderivative: ex.Expr | None = None

    def __call__(self, x):
        return ex.eval_expr(self.evaluator, x)

    @property
    def delta(self) -> float:
        return self.right_boundary_limit - self.left_boundary_limit


@dataclass(frozen=True)
class TailSpec:
    """Behaviour at +inf: the finite limit f(inf) and optional
    antiderivative data for tail integrals."""

    limit_at_infinity: float
    antiderivative: ex.Expr | None = None
    antiderivative_limit: float | None = None


@dataclass(frozen=True)
class BvFunction:
    """A validated piecewise-monotone function; immutable and safe to share."""

    domain_lo: float
    domain_hi: float  # math.inf on a half-line
    breakpoints: tuple[Breakpoint, ...]
    pieces: tuple[MonotonePiece, ...]
    tail: TailSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "_bp_map", {bp.x: bp for bp in self.breakpoints})
        object.__setattr__(self, "_piece_los", [p.lo for p in self.pieces])

    @functools.cached_property
    def layout(self):
        """The columns and evaluation plan that refinements read (see
        measure.Layout), made once, on first use; like Expr.compiled, it
        is kept outside the fields, so eq, hash and pickle ignore it."""
        from .measure import Layout  # measure builds on this module

        return Layout(self)

    def __getstate__(self):
        # the copy makes its layout again on first use
        return {k: v for k, v in vars(self).items() if k != "layout"}

    @property
    def is_half_line(self) -> bool:
        return math.isinf(self.domain_hi)

    def breakpoint_at(self, x: float) -> Breakpoint | None:
        return self._bp_map.get(x)

    def piece_containing(self, x: float) -> MonotonePiece | None:
        """The piece whose open interval contains x, else None."""
        i = bisect.bisect_right(self._piece_los, x) - 1
        if i < 0:
            return None
        p = self.pieces[i]
        return p if p.lo < x < p.hi else None

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def _check_point(f: BvFunction, x: float) -> None:
    if not math.isfinite(x) or x < f.domain_lo or x > f.domain_hi:
        raise DomainError(f"x={x!r} outside domain [{f.domain_lo}, {f.domain_hi}]")


def evaluate(f: BvFunction, x: float) -> float:
    """f(x); at a breakpoint the stored value is authoritative."""
    _check_point(f, x)
    bp = f.breakpoint_at(x)
    if bp is not None:
        return bp.value
    p = f.piece_containing(x)
    if p is not None:
        return ex.eval_expr(p.evaluator, x)
    if x == f.domain_lo:
        return f.pieces[0].left_boundary_limit
    return f.pieces[-1].right_boundary_limit


def values_at_integers(f: BvFunction, a: int, b: int):
    """An iterator of evaluate(f, k) for the integers a <= k < b, in
    increasing k, so the first failing k raises.  The pieces tile the
    domain between breakpoints, so an integer strictly inside a piece
    takes that piece's evaluator, and evaluate() gives the others, which
    are breakpoints or domain_lo.  Each run of two or more integers inside
    a piece goes to the evaluator's block kernel (Expr.block) in runs of
    at most _BLOCK integers, evaluated lazily, one at a time, so memory
    does not grow with b - a; a lone integer, for which the kernel's fixed
    cost is many times evaluate()'s, goes to evaluate().  The kernel gives
    the values of the evaluator's float function bit for bit.  Only the
    integers k with |k| <= 2^53 take the runs: their floats are k itself,
    so strictly inside the piece, while the float of a larger k may round
    onto a breakpoint; evaluate() gives those too.  Only the pieces that
    overlap [a, b) are visited."""
    runs = []
    k = a
    i = max(bisect.bisect_right(f._piece_los, a) - 1, 0)
    for p in f.pieces[i:]:
        if p.lo >= b:
            break
        s = max(k, math.floor(p.lo) + 1, -_EXACT)
        t = min(b, _EXACT + 1)
        if not math.isinf(p.hi):
            t = min(t, math.ceil(p.hi))
        if t - s > 1:
            runs.append(_evaluated(f, k, s))
            runs.append(_blocks(p.evaluator.block, s, t))
            k = t
    runs.append(_evaluated(f, k, b))
    return itertools.chain.from_iterable(runs)


# The integers a direct sum's block kernel takes at once: its arrays and
# lists of as many floats stay far below a megabyte.
_BLOCK = 1 << 12
# Every integer k with |k| <= _EXACT is a float.
_EXACT = 1 << 53


def _blocks(kernel, s: int, t: int):
    """The values of kernel (an Expr.block) over the integers s..t-1, one
    run of at most _BLOCK integers at a time."""
    return itertools.chain.from_iterable(
        kernel(j, min(j + _BLOCK, t)) for j in range(s, t, _BLOCK))


def _evaluated(f: BvFunction, a: int, b: int):
    return (evaluate(f, float(k)) for k in range(a, b))


def right_limit(f: BvFunction, x: float, strict: bool = False) -> float:
    """f(x+).  With strict=True, data from outside the domain must exist
    (a breakpoint at the right endpoint); otherwise the endpoint
    convention f(b+) = f(b) applies."""
    _check_point(f, x)
    bp = f.breakpoint_at(x)
    if bp is not None:
        return bp.right_value
    if x == f.domain_hi:
        if strict:
            raise ExteriorLimitRequired(f"no right-limit data at domain end {x!r}")
        return f.pieces[-1].right_boundary_limit
    p = f.piece_containing(x)
    if p is not None:
        return ex.eval_expr(p.evaluator, x)
    return f.pieces[0].left_boundary_limit  # x == domain_lo


def left_limit(f: BvFunction, x: float, strict: bool = False) -> float:
    """f(x-), symmetric to right_limit."""
    _check_point(f, x)
    bp = f.breakpoint_at(x)
    if bp is not None:
        return bp.left_value
    if x == f.domain_lo:
        if strict:
            raise ExteriorLimitRequired(f"no left-limit data at domain start {x!r}")
        return f.pieces[0].left_boundary_limit
    p = f.piece_containing(x)
    if p is not None:
        return ex.eval_expr(p.evaluator, x)
    return f.pieces[-1].right_boundary_limit  # x == finite domain_hi


def limits(f: BvFunction, x: float) -> tuple[float, float, float]:
    """The triple (f(x-), f(x), f(x+)) under the endpoint convention."""
    return left_limit(f, x), evaluate(f, x), right_limit(f, x)


def mid_value(f: BvFunction, x: float) -> float:
    """(f(x-) + f(x+)) / 2; equals f(x) at continuity points."""
    return 0.5 * (left_limit(f, x) + right_limit(f, x))


def mid_value_strict(f: BvFunction, x: float) -> float:
    """Mid-value using genuine one-sided limits; raises
    ExteriorLimitRequired at a domain endpoint without breakpoint data."""
    return 0.5 * (left_limit(f, x, strict=True) + right_limit(f, x, strict=True))


def rho(f: BvFunction, x: float) -> float:
    """|f(x+)-f(x)| + |f(x)-f(x-)| - |f(x+)-f(x-)|: twice the distance
    from f(x) to the interval spanned by the one-sided limits."""
    l, v, r = limits(f, x)
    return max(0.0, abs(r - v) + abs(v - l) - abs(r - l))


def _segment_endpoint_values(p: MonotonePiece, s: float, t: float) -> tuple[float, float]:
    """One-sided values of the piece at the ends of [s, t] within (lo, hi)."""
    vl = p.left_boundary_limit if s == p.lo else ex.eval_expr(p.evaluator, s)
    vr = p.right_boundary_limit if t == p.hi else ex.eval_expr(p.evaluator, t)
    return vl, vr


def _increments(f: BvFunction, lo: float, hi: float) -> list[float]:
    """|piece increment| of each piece over its part of (lo, hi), in order."""
    terms = []
    for p in f.pieces:
        s, t = max(lo, p.lo), min(hi, p.hi)
        if s < t:
            vl, vr = _segment_endpoint_values(p, s, t)
            terms.append(abs(vr - vl))
    return terms


def _check_range(f: BvFunction, lo: float, hi: float) -> None:
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("NaN interval endpoint")
    if lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if lo < f.domain_lo or (math.isinf(hi) and not f.is_half_line) or hi > f.domain_hi:
        raise DomainError(f"[{lo}, {hi}] outside domain [{f.domain_lo}, {f.domain_hi}]")


def pointwise_variation(
    f: BvFunction,
    lo: float,
    hi: float,
    closed_lo: bool = True,
    closed_hi: bool = True,
) -> float:
    """Exact pointwise variation over the interval from lo to hi.

    The open-interval core is the sum of |piece increments| plus the
    two-sided excursion at every interior breakpoint; a closed end adds
    |f(end) - f(end+-)|.  hi may be +inf on a half-line (the tail limit
    then acts as the final value and closed_hi is ignored).
    """
    _check_range(f, lo, hi)
    terms = _increments(f, lo, hi)
    for bp in f.breakpoints:
        if lo < bp.x < hi:
            terms.append(abs(bp.value - bp.left_value))
            terms.append(abs(bp.right_value - bp.value))
    if closed_lo:
        bp = f.breakpoint_at(lo)
        if bp is not None:
            terms.append(abs(bp.value - bp.right_value))
    if closed_hi and math.isfinite(hi):
        bp = f.breakpoint_at(hi)
        if bp is not None:
            terms.append(abs(bp.value - bp.left_value))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Jordan decomposition


def _pos(d: float) -> float:
    return d if d > 0.0 else 0.0


def _shifted(e: ex.Expr, shift: float) -> ex.Expr:
    return e if shift == 0.0 else ex.Bin("+", ex.Num(shift), e)


def jordan_decompose(f: BvFunction) -> tuple[BvFunction, BvFunction]:
    """Split f = f1 - f2 into nondecreasing parts with additive variation.

    f1(x) = f(a) + (positive variation on [a, x]), f2(x) = negative
    variation on [a, x]; both share f's breakpoint locations.
    """
    base = evaluate(f, f.domain_lo)
    pos_inc: list[float] = []
    neg_inc: list[float] = []

    def snapshot() -> tuple[float, float]:
        return math.fsum(pos_inc), math.fsum(neg_inc)

    def push(delta: float) -> None:
        pos_inc.append(_pos(delta))
        neg_inc.append(_pos(-delta))

    events: list[tuple[float, int, object]] = []
    for bp in f.breakpoints:
        events.append((bp.x, 0, bp))
    for p in f.pieces:
        events.append((p.lo, 1, p))
    events.sort(key=lambda t: (t[0], t[1]))

    bps1: list[Breakpoint] = []
    bps2: list[Breakpoint] = []
    pieces1: list[MonotonePiece] = []
    pieces2: list[MonotonePiece] = []

    for _, tag, obj in events:
        if tag == 0:
            bp = obj
            if bp.x == f.domain_lo:
                # the excursion f(a-) -> f(a) lies outside [a, .]: it only
                # shapes the stored exterior values, not the running sums
                push(bp.right_value - bp.value)
                p2, n2 = snapshot()
                bps1.append(Breakpoint(bp.x, base - _pos(bp.value - bp.left_value),
                                       base, base + p2))
                bps2.append(Breakpoint(bp.x, -_pos(bp.left_value - bp.value),
                                       0.0, n2))
                continue
            p0, n0 = snapshot()
            push(bp.value - bp.left_value)
            p1, n1 = snapshot()
            push(bp.right_value - bp.value)
            p2, n2 = snapshot()
            bps1.append(Breakpoint(bp.x, base + p0, base + p1, base + p2))
            bps2.append(Breakpoint(bp.x, n0, n1, n2))
        else:
            p = obj
            pc, nc = snapshot()
            push(p.delta)
            pd, nd = snapshot()
            top1, top2 = base + pc, base + pd
            if p.direction == DEC:
                pieces1.append(MonotonePiece(p.lo, p.hi, ex.Num(top1), CONST, top1, top1))
                e2 = ex.Bin("-", ex.Num(nc + p.left_boundary_limit), p.evaluator)
                pieces2.append(MonotonePiece(p.lo, p.hi, e2, INC, nc, nd))
            elif p.direction == INC:
                shift = top1 - p.left_boundary_limit
                pieces1.append(
                    MonotonePiece(p.lo, p.hi, _shifted(p.evaluator, shift), INC, top1, top2)
                )
                pieces2.append(MonotonePiece(p.lo, p.hi, ex.Num(nc), CONST, nc, nc))
            else:
                pieces1.append(MonotonePiece(p.lo, p.hi, ex.Num(top1), CONST, top1, top1))
                pieces2.append(MonotonePiece(p.lo, p.hi, ex.Num(nc), CONST, nc, nc))

    p_end, n_end = snapshot()
    tail1 = TailSpec(base + p_end) if f.tail is not None else None
    tail2 = TailSpec(n_end) if f.tail is not None else None
    f1 = BvFunction(f.domain_lo, f.domain_hi, tuple(bps1), tuple(pieces1), tail1)
    f2 = BvFunction(f.domain_lo, f.domain_hi, tuple(bps2), tuple(pieces2), tail2)
    return f1, f2


# ---------------------------------------------------------------------------
# Validation


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


# validate names the place of a violation by a format of the index of the
# piece or breakpoint, formatted only when it reports one.

def _to_float(raw, out: list[Violation], where: str, i: int | None = None) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        out.append(Violation("BadSpec", where.format(i), f"expected a number, got {raw!r}"))
        return math.nan


def _parse_expr(raw, out: list[Violation], where: str, i: int | None = None) -> ex.Expr | None:
    if isinstance(raw, ex.Expr):
        return raw
    if not isinstance(raw, str):
        out.append(Violation("BadSpec", where.format(i),
                             f"expected expression text, got {raw!r}"))
        return None
    try:
        return ex.parse(raw)
    except ex.ParseError as e:
        out.append(Violation("BadExpression", where.format(i), str(e)))
        return None


# ---------------------------------------------------------------------------
# Piece checks.  validate checks all pieces of a spec together: pieces of
# one expression shape (expr.Expr.shape: the ops and the bits of the
# pinned constants) are the rows of 2-D arrays of at most _BATCH points,
# expr.eval_rows evaluates the rows of one shape as one program, and each
# check is a reduction over the rows.  The sample points of a row are
# made in their sorted order, each by the float operations of the point
# made alone.  Every point, value, verdict, message and error is the one
# a check of the piece alone gives (tests/test_bv.py keeps those checks
# and the previous batched sample points as references); only the
# failing rows reach Python.

_BATCH = 1 << 15  # points per batch, so that a batch stays in cache

_LADDER = 41  # the points lo + w*2^j, j < _LADDER, of a half-line
_FD_I = np.arange(1, FD_POINTS + 1, dtype=np.float64)
_FD_LADDER_POW2 = np.array([2.0**j for j in range(-2, 2 * FD_POINTS - 2, 2)])


def _fraction_order(half_line: bool) -> np.ndarray:
    """The order of the exact fractions of w at which _sample_points
    computes its points, in the order it computes them: i/(MONO_SAMPLES+1),
    then 2^j and 2^-j on a half-line, or 2^-j and 1 - 2^-j.  Each fraction
    is scaled to an integer; ties keep their order."""
    unit = (MONO_SAMPLES + 1) << EDGE_SAMPLES
    edge = [unit >> j for j in range(1, EDGE_SAMPLES + 1)]
    keys = [i << EDGE_SAMPLES for i in range(1, MONO_SAMPLES + 1)]
    if half_line:
        keys += [unit << j for j in range(_LADDER)] + edge
    else:
        keys += edge + [unit - k for k in edge]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__))


_ORDER = {half_line: _fraction_order(half_line) for half_line in (False, True)}


def _sample_columns(half_line: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(factor m, divisor d, the upper-edge columns) of the columns of
    _sample_points's rows, in _ORDER.  A column's point is lo + (w*m)/d,
    or hi - w*m in an upper-edge column: the float operations of that
    point computed alone, as dividing by 1 is exact."""
    mono = [(float(i), float(MONO_SAMPLES + 1), False) for i in range(1, MONO_SAMPLES + 1)]
    edge = [(2.0**-j, 1.0, False) for j in range(1, EDGE_SAMPLES + 1)]
    if half_line:
        columns = mono + [(2.0**j, 1.0, False) for j in range(_LADDER)] + edge
    else:
        columns = mono + edge + [(m, d, True) for m, d, _ in edge]
    factor, divisor, upper = (np.array(c)[_ORDER[half_line]] for c in zip(*columns))
    return factor, divisor, np.flatnonzero(upper)


_COLUMNS = {half_line: _sample_columns(half_line) for half_line in (False, True)}


def _sample_points(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xs, empty) for the pieces on (lo[i], hi[i]), all bounded or all
    half-lines.  Row i of xs holds, in increasing order, the distinct
    points strictly inside the piece: MONO_SAMPLES equispaced ones,
    EDGE_SAMPLES approaching each finite end at distance w*2^-j, and on a
    half-line a doubling ladder lo + w*2^j.  A point that is not finite,
    not inside or equal to another is replaced by a kept neighbour, so
    every row has the same length and its distinct points in order;
    empty[i] tells that row i keeps none."""
    lo, hi = lo[:, None], hi[:, None]
    half_line = math.isinf(hi[0, 0])
    factor, divisor, upper = _COLUMNS[half_line]
    with np.errstate(over="ignore"):
        w = np.maximum(1.0, np.abs(lo)) if half_line else hi - lo
        pts = np.multiply(w, factor)
        np.divide(pts, divisor, out=pts)
        top = hi - pts[:, upper]
        np.add(lo, pts, out=pts)
        pts[:, upper] = top
    # rounding may swap close points on a piece a few ulps wide
    swapped = pts[:, 1:] < pts[:, :-1]
    if swapped.any():
        unsorted = swapped.any(axis=1)
        pts[unsorted] = np.sort(pts[unsorted], axis=1)
    # A point equal to the one before it already holds a kept neighbour.
    # The points at or below lo (or -inf) come first and take the first
    # point inside; those at or above hi (or inf) come last and take the
    # last point inside.  They are found, and replaced, among the first
    # and the last k points of a row, at most EDGE_SAMPLES of them on each
    # side but on a piece a few ulps wide: the points between are inside.
    n = pts.shape[1]
    k = EDGE_SAMPLES + 1
    if not ((pts[:, k - 1] > lo[:, 0]).all() and (pts[:, n - k] < hi[:, 0]).all()):
        k = n
    head, tail = pts[:, :k], pts[:, n - k:]
    first = (head > lo).argmax(axis=1)
    last = n - 1 - (tail < hi)[:, ::-1].argmax(axis=1)
    at = np.arange(0, pts.size, n)
    flat = pts.reshape(-1)
    inside_lo, inside_hi = flat[at + first], flat[at + last]
    np.maximum(head, inside_lo[:, None], out=head)
    np.minimum(tail, inside_hi[:, None], out=tail)
    # a row keeps a point if its first point above lo is below hi
    return pts, ~((lo[:, 0] < inside_lo) & (inside_lo < hi[:, 0]))


def _batches(items, half_line, shape, width: int):
    """items in lists of at most _BATCH // width, the bounded ones, then
    the half-lines, each ordered by shape(item), so that a list holds one
    kind of piece and few shapes."""
    size = max(1, _BATCH // width)
    for side in (False, True):
        groups: dict = {}
        for item in items:
            if half_line(item) == side:
                groups.setdefault(shape(item), []).append(item)
        run = [item for group in groups.values() for item in group]
        for k in range(0, len(run), size):
            yield run[k:k + size]


_SAMPLES = MONO_SAMPLES + 2 * EDGE_SAMPLES  # the most sample points of a piece
_DIRECTION_INDEX = {INC: 0, DEC: 1, CONST: 2}


def _check_sampling(pieces: list[MonotonePiece], found: list[list[Violation]]) -> None:
    """Sample each piece at the points of _sample_points and append to
    found[i] what piece i violates: its evaluator must give finite values
    there, monotone in its direction and inside its boundary limits, up
    to a slack.  A piece with no point inside it is not sampled."""
    for rows in _batches(range(len(pieces)), lambda i: math.isinf(pieces[i].hi),
                         lambda i: pieces[i].evaluator.shape, _SAMPLES):
        xs, empty = _sample_points(np.array([pieces[i].lo for i in rows]),
                                   np.array([pieces[i].hi for i in rows]))
        if empty.any():
            rows = [i for i, e in zip(rows, empty) if not e]
            xs = xs[~empty]
            if not rows:
                continue
        ps = [pieces[i] for i in rows]
        vals, errors = ex.eval_rows([p.evaluator for p in ps], xs)
        with np.errstate(all="ignore"):  # the rows that failed hold NaN
            # per row: the least and the greatest limit, value and step
            lim_lo, lim_hi = np.array([sorted((p.left_boundary_limit, p.right_boundary_limit))
                                       for p in ps]).T
            vmin, vmax, v0 = vals.min(axis=1), vals.max(axis=1), vals[:, 0]
            # max(|v|) is max(vmax, -vmin)
            scale = np.maximum(np.maximum(vmax, -vmin), np.maximum(-lim_lo, lim_hi))
            slack = ABS_TOL + REL_TOL * scale
            # per direction, the step or spread that must stay within the
            # slack, made only if a row has that direction; v - v0 rounds
            # monotonically in v, so the largest |v - v0| is at vmin or vmax
            directions = [_DIRECTION_INDEX[p.direction] for p in ps]
            has = set(directions)
            if has != {2}:
                d = vals[:, 1:] - vals[:, :-1]
            worst = np.choose(directions,
                              (-d.min(axis=1) if 0 in has else 0.0,
                               d.max(axis=1) if 1 in has else 0.0,
                               np.maximum(vmax - v0, v0 - vmin) if 2 in has else 0.0))
            varies = worst > slack
            leaves = (vmin < lim_lo - slack) | (vmax > lim_hi + slack)
        for r in sorted({*np.flatnonzero(varies | leaves).tolist(), *errors}):
            where, p, out = f"pieces[{rows[r]}]", ps[r], found[rows[r]]
            if r in errors:
                out.append(Violation("BadExpression", where, f"evaluator failed: {errors[r]}"))
                continue
            if varies[r] and p.direction == INC:
                out.append(Violation("NonMonotonePiece", where,
                                     "declared increasing but decreases near "
                                     f"x={xs[r, np.argmin(d[r])]:.6g}"))
            elif varies[r] and p.direction == DEC:
                out.append(Violation("NonMonotonePiece", where,
                                     "declared decreasing but increases near "
                                     f"x={xs[r, np.argmax(d[r])]:.6g}"))
            elif varies[r]:
                out.append(Violation("NonMonotonePiece", where, "declared constant but varies"))
            if leaves[r]:
                out.append(Violation("InconsistentLimits", where,
                                     "sampled values leave the declared boundary-limit range"))



def _kept_neighbours(keep: np.ndarray) -> np.ndarray:
    """Per row, the column of each kept entry, and for any other entry
    the column of the last kept entry before it, or of the row's first
    kept entry if none is before it."""
    cols = np.where(keep, np.arange(keep.shape[1]), -1)
    np.maximum.accumulate(cols, axis=1, out=cols)
    return np.where(cols < 0, keep.argmax(axis=1)[:, None], cols)


def _stencils(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, h, empty) for check_antiderivative on the pieces (lo[i],
    hi[i]), all bounded or all half-lines: row i holds the FD_POINTS
    points, np.linspace(lo, hi, FD_POINTS + 2)[1:-1] or the ladder
    lo + max(1, |lo|)*4^j, and their steps.  A point whose stencil
    reaches an end is replaced, with its step, by a kept neighbour;
    empty[i] tells that row i keeps none."""
    lo, hi = lo[:, None], hi[:, None]
    with np.errstate(all="ignore"):
        if math.isinf(hi[0, 0]):
            xs = lo + np.maximum(1.0, np.abs(lo)) * _FD_LADDER_POW2
            h = np.maximum(np.abs(xs), 1.0) * 1e-5
            skip = xs - h <= lo
        else:
            # the float operations of linspace, its branch for a zero step
            # taken row by row
            delta = hi - lo
            step = delta / (FD_POINTS + 1)
            xs = _FD_I * step
            if not step.all():
                xs = np.where(step == 0.0, _FD_I / (FD_POINTS + 1) * delta, xs)
            xs += lo
            h = np.minimum(np.maximum(np.abs(xs), 1.0) * 1e-5, delta * 1e-3)
            skip = (xs - h <= lo) | (xs + h >= hi)
    if skip.any():
        cols = _kept_neighbours(~skip)
        xs, h = np.take_along_axis(xs, cols, axis=1), np.take_along_axis(h, cols, axis=1)
    return xs, h, skip.all(axis=1)


def _antiderivative_scores(checks) -> list:
    """Per check (f, F, lo, hi), the score of check_antiderivative, or the
    EvalError it raises."""
    results: list = [0.0] * len(checks)

    for rows in _batches(range(len(checks)), lambda k: math.isinf(checks[k][3]),
                         lambda k: checks[k][1].shape, FD_POINTS):
        xs, h, empty = _stencils(np.array([checks[k][2] for k in rows]),
                                 np.array([checks[k][3] for k in rows]))
        if empty.any():  # these score 0.0, and nothing is evaluated
            rows = [k for k, e in zip(rows, empty) if not e]
            xs, h = xs[~empty], h[~empty]
            if not rows:
                continue
        # one plan and one run per shape, both sides of the stencil in one:
        # F(x + h) in rows [0, n), F(x - h) in [n, 2n), f(x) in [2n, 3n)
        n = len(rows)
        Fs = [checks[k][1] for k in rows]
        vals, errors = ex.eval_rows([*Fs, *Fs, *(checks[k][0] for k in rows)],
                                    np.concatenate((xs + h, xs - h, xs)))
        up, down, ref = vals[:n], vals[n:2 * n], vals[2 * n:]
        with np.errstate(all="ignore"):
            score = np.abs((up - down) / (2.0 * h) - ref) / (FD_REL_TOL * (1.0 + np.abs(ref)))
        # fmax ignores NaN scores, from stencils at points that overflowed to inf
        worst = np.fmax.reduce(score, axis=1, initial=0.0).tolist()
        for r, k in enumerate(rows):
            err = errors.get(r) or errors.get(n + r) or errors.get(2 * n + r)
            results[k] = worst[r] if err is None else err
    return results


def check_antiderivative(fe: ex.Expr, F: ex.Expr, lo: float, hi: float) -> float:
    """Max mismatch of (F(x+h)-F(x-h))/2h against f over FD_POINTS samples,
    scaled by the tolerance; values > 1 mean the check failed.  Points
    whose stencil reaches lo or hi are skipped; 0.0 when all are.  An
    EvalError of F or f is raised."""
    [score] = _antiderivative_scores([(fe, F, lo, hi)])
    if isinstance(score, ex.EvalError):
        raise score
    return score


def _check_pieces(pieces: list[MonotonePiece], tail: TailSpec | None,
                  out: list[Violation]) -> None:
    """Append the sampled violations of all pieces, in piece order, each
    piece's sampling ones before its antiderivative's, then the tail's."""
    found: list[list[Violation]] = [[] for _ in range(len(pieces) + 1)]
    _check_sampling(pieces, found)
    checks = [(i, p.evaluator, p.antiderivative, p.lo, p.hi)
              for i, p in enumerate(pieces) if p.antiderivative is not None]
    if tail is not None and tail.antiderivative is not None and pieces \
            and math.isinf(pieces[-1].hi):
        p = pieces[-1]
        checks.append((len(pieces), p.evaluator, tail.antiderivative, p.lo, p.hi))
    scores = _antiderivative_scores([check[1:] for check in checks])
    for (i, *_), score in zip(checks, scores):
        where = "tail" if i == len(pieces) else f"pieces[{i}]"
        if isinstance(score, ex.EvalError):
            found[i].append(Violation("BadAntiderivative", where,
                                      f"antiderivative failed: {score}"))
        elif score > 1.0:
            found[i].append(Violation("BadAntiderivative", where,
                                      "difference quotients of the antiderivative "
                                      "do not match"))
    for violations in found:
        out.extend(violations)


def validate(spec: Mapping) -> BvFunction:
    """Build a BvFunction from a raw description, collecting all invariant
    violations; raises ValidationError when any are found.

    The accepted mapping mirrors the JSON file format: ``domain`` with
    lo/hi ("inf" allowed for hi), ``pieces`` with interval/expr/
    direction/left_limit/right_limit[/antiderivative], ``breakpoints``
    with x/left/value/right, and optional ``tail``.
    """
    out: list[Violation] = []

    dom = spec.get("domain")
    if not isinstance(dom, Mapping) or "lo" not in dom or "hi" not in dom:
        raise ValidationError([Violation("BadSpec", "domain", "need domain.lo and domain.hi")])
    lo = _to_float(dom["lo"], out, "domain.lo")
    hi_raw = dom["hi"]
    hi = math.inf if hi_raw == "inf" else _to_float(hi_raw, out, "domain.hi")
    if out:
        raise ValidationError(out)
    if not math.isfinite(lo) or math.isnan(hi) or lo >= hi:
        raise ValidationError([Violation("BadSpec", "domain", f"bad domain [{lo}, {hi}]")])
    half_line = math.isinf(hi)

    bps: list[Breakpoint] = []
    for i, braw in enumerate(spec.get("breakpoints", ())):
        x = _to_float(braw.get("x"), out, "breakpoints[{}].x", i)
        l = _to_float(braw.get("left"), out, "breakpoints[{}].left", i)
        v = _to_float(braw.get("value"), out, "breakpoints[{}].value", i)
        r = _to_float(braw.get("right"), out, "breakpoints[{}].right", i)
        if not (math.isfinite(l) and math.isfinite(v) and math.isfinite(r)):
            out.append(Violation("InconsistentLimits", f"breakpoints[{i}]",
                                 "breakpoint values must be finite"))
            continue
        if math.isnan(x):
            continue
        if not (lo <= x <= hi):
            out.append(Violation("BadPartition", f"breakpoints[{i}]",
                                 f"breakpoint x={x} outside domain"))
            continue
        bps.append(Breakpoint(x, l, v, r))
    for a, b in zip(bps, bps[1:]):
        if not (a.x < b.x):
            out.append(Violation("BadPartition", "breakpoints",
                                 f"not strictly increasing at x={b.x}"))

    pieces: list[MonotonePiece] = []
    for i, praw in enumerate(spec.get("pieces", ())):
        iv = praw.get("interval")
        if not isinstance(iv, Sequence) or len(iv) != 2:
            out.append(Violation("BadSpec", f"pieces[{i}]", "interval must be [lo, hi]"))
            continue
        plo = _to_float(iv[0], out, "pieces[{}].interval", i)
        phi = math.inf if iv[1] == "inf" else _to_float(iv[1], out, "pieces[{}].interval", i)
        e = _parse_expr(praw.get("expr"), out, "pieces[{}].expr", i)
        direction = praw.get("direction")
        if direction not in DIRECTIONS:
            out.append(Violation("BadSpec", f"pieces[{i}]",
                                 f"direction must be one of {DIRECTIONS}"))
            continue
        ll = _to_float(praw.get("left_limit"), out, "pieces[{}].left_limit", i)
        rl = _to_float(praw.get("right_limit"), out, "pieces[{}].right_limit", i)
        anti = None
        if praw.get("antiderivative") is not None:
            anti = _parse_expr(praw["antiderivative"], out, "pieces[{}].antiderivative", i)
        if e is None or math.isnan(plo) or math.isnan(phi) or math.isnan(ll) or math.isnan(rl):
            continue
        if not (math.isfinite(ll) and math.isfinite(rl)):
            out.append(Violation("InconsistentLimits", f"pieces[{i}]",
                                 "boundary limits must be finite"))
            continue
        if direction == INC and ll > rl and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", f"pieces[{i}]",
                                 "increasing piece needs left_limit <= right_limit"))
        if direction == DEC and ll < rl and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", f"pieces[{i}]",
                                 "decreasing piece needs left_limit >= right_limit"))
        if direction == CONST and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", f"pieces[{i}]",
                                 "constant piece needs equal boundary limits"))
        pieces.append(MonotonePiece(plo, phi, e, direction, ll, rl, anti))

    # partition: pieces must tile [lo, first bp] ... [last bp, hi/inf]
    cuts = [lo] + [bp.x for bp in bps if lo < bp.x < hi]
    cuts.append(math.inf if half_line else hi)
    expected = [(s, t) for s, t in zip(cuts[:-1], cuts[1:]) if s < t]
    got = [(p.lo, p.hi) for p in pieces]
    if got != expected:
        out.append(Violation(
            "BadPartition", "pieces",
            f"piece intervals {got} do not tile the domain as {expected}"))

    # breakpoint values vs adjacent piece limits
    piece_by_lo = {p.lo: p for p in pieces}
    piece_by_hi = {p.hi: p for p in pieces}
    for i, bp in enumerate(bps):  # finite values, so equal ones are close
        pl = piece_by_hi.get(bp.x)
        pr = piece_by_lo.get(bp.x)
        if pl is not None and bp.left_value != pl.right_boundary_limit \
                and not _close(bp.left_value, pl.right_boundary_limit):
            out.append(Violation("InconsistentLimits", f"breakpoints[{i}]",
                                 f"left value {bp.left_value} != piece limit "
                                 f"{pl.right_boundary_limit}"))
        if pr is not None and bp.right_value != pr.left_boundary_limit \
                and not _close(bp.right_value, pr.left_boundary_limit):
            out.append(Violation("InconsistentLimits", f"breakpoints[{i}]",
                                 f"right value {bp.right_value} != piece limit "
                                 f"{pr.left_boundary_limit}"))

    tail = None
    traw = spec.get("tail")
    if half_line:
        if traw is None:
            out.append(Violation("MissingTail", "tail", "half-line domain requires tail data"))
        else:
            tl = _to_float(traw.get("limit"), out, "tail.limit")
            anti = None
            alim = None
            if traw.get("antiderivative") is not None:
                anti = _parse_expr(traw["antiderivative"], out, "tail.antiderivative")
                araw = traw.get("antiderivative_limit")
                if araw == "inf":
                    alim = math.inf
                elif araw == "-inf":
                    alim = -math.inf
                elif araw is None:
                    out.append(Violation("MissingTail", "tail",
                                         "antiderivative given without antiderivative_limit"))
                else:
                    alim = _to_float(araw, out, "tail.antiderivative_limit")
            if not math.isfinite(tl):
                out.append(Violation("MissingTail", "tail", "limit at infinity must be finite"))
            else:
                tail = TailSpec(tl, anti, alim)
                if pieces and math.isinf(pieces[-1].hi) and not _close(
                        pieces[-1].right_boundary_limit, tl):
                    out.append(Violation("InconsistentLimits", "tail",
                                         "tail limit != last piece right limit"))
    elif traw is not None:
        out.append(Violation("BadPartition", "tail", "tail given for a compact domain"))

    _check_pieces(pieces, tail, out)
    if out:
        raise ValidationError(out)
    return BvFunction(lo, hi, tuple(bps), tuple(pieces), tail)
