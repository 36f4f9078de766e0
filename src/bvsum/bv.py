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
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
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

    def __add__(self, other: "Certified") -> "Certified":
        return Certified(self.value + other.value, self.radius + other.radius)

    def shift(self, c: float) -> "Certified":
        return Certified(self.value + c, self.radius)


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
    takes that piece's compiled evaluator, and evaluate() gives the
    others, which are breakpoints or domain_lo.  Only the pieces that
    overlap [a, b) are visited, and no list of values is built."""
    runs = []
    k = a
    i = max(bisect.bisect_right(f._piece_los, a) - 1, 0)
    for p in f.pieces[i:]:
        if p.lo >= b:
            break
        s = max(k, math.floor(p.lo) + 1)
        t = b if math.isinf(p.hi) else min(b, math.ceil(p.hi))
        if s < t:
            runs.append(_evaluated(f, k, s))
            runs.append(map(p.evaluator.compiled, map(float, range(s, t))))
            k = t
    runs.append(_evaluated(f, k, b))
    return itertools.chain.from_iterable(runs)


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
    terms: list[float] = []
    for p in f.pieces:
        s, t = max(lo, p.lo), min(hi, p.hi)
        if s >= t:
            continue
        vl, vr = _segment_endpoint_values(p, s, t)
        terms.append(abs(vr - vl))
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
# Linear combination (used for linearity checks and by callers that
# compose step functions with smooth parts)


def _sample_direction(e: ex.Expr, lo: float, hi: float, n: int = 257) -> str:
    xs = np.linspace(lo, hi, n + 2)[1:-1]
    vals = ex.eval_expr(e, xs)
    scale = float(np.max(np.abs(vals))) if len(vals) else 1.0
    slack = ABS_TOL + REL_TOL * scale
    d = np.diff(vals)
    if np.all(np.abs(vals - vals[0]) <= slack):
        return CONST
    if np.all(d >= -slack):
        return INC
    if np.all(d <= slack):
        return DEC
    raise ValidationError(
        [Violation("NonMonotonePiece", f"({lo}, {hi})", "combination is not monotone")]
    )


def linear_combination(alpha: float, f: BvFunction, beta: float, g: BvFunction) -> BvFunction:
    """alpha*f + beta*g on a common refinement of the two breakpoint sets.

    Requires identical domains and that every combined piece stays
    monotone (checked by sampling); raises ValidationError otherwise.
    """
    if (f.domain_lo, f.domain_hi) != (g.domain_lo, g.domain_hi):
        raise ValueError("linear_combination requires identical domains")
    cut = sorted({bp.x for bp in f.breakpoints} | {bp.x for bp in g.breakpoints})

    def comb(u: float, v: float) -> float:
        return alpha * u + beta * v

    bps = []
    for x in cut:
        bps.append(
            Breakpoint(
                x,
                comb(left_limit(f, x), left_limit(g, x)),
                comb(evaluate(f, x), evaluate(g, x)),
                comb(right_limit(f, x), right_limit(g, x)),
            )
        )

    interior = [x for x in cut if f.domain_lo < x < f.domain_hi]
    bounds = [f.domain_lo] + interior + [f.domain_hi]
    pieces = []
    for s, t in zip(bounds[:-1], bounds[1:]):
        if s >= t:
            continue
        probe = 0.5 * (s + t) if math.isfinite(t) else s + max(1.0, abs(s))
        ef = f.piece_containing(probe).evaluator
        eg = g.piece_containing(probe).evaluator
        e = ex.Bin("+", ex.Bin("*", ex.Num(alpha), ef), ex.Bin("*", ex.Num(beta), eg))
        ll = comb(right_limit(f, s), right_limit(g, s))
        if math.isinf(t):
            rl = comb(f.tail.limit_at_infinity, g.tail.limit_at_infinity)
        else:
            rl = comb(left_limit(f, t), left_limit(g, t))
        probe_hi = t if math.isfinite(t) else s + max(1.0, abs(s)) * 64.0
        direction = _sample_direction(e, s, probe_hi)
        pieces.append(MonotonePiece(s, t, e, direction, ll, rl))

    tail = None
    if f.is_half_line:
        tail = TailSpec(comb(f.tail.limit_at_infinity, g.tail.limit_at_infinity))
    return BvFunction(f.domain_lo, f.domain_hi, tuple(bps), tuple(pieces), tail)


# ---------------------------------------------------------------------------
# Validation


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _to_float(raw, where: str, out: list[Violation]) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError):
        out.append(Violation("BadSpec", where, f"expected a number, got {raw!r}"))
        return math.nan
    return v


def _parse_expr(raw, where: str, out: list[Violation]) -> ex.Expr | None:
    if isinstance(raw, ex.Expr):
        return raw
    if not isinstance(raw, str):
        out.append(Violation("BadSpec", where, f"expected expression text, got {raw!r}"))
        return None
    try:
        return ex.parse(raw)
    except ex.ParseError as e:
        out.append(Violation("BadExpression", where, str(e)))
        return None


# factors of the sample points lo + w*i/(MONO_SAMPLES+1) and lo + w*2^j;
# the powers of two are exact, so each point is rounded as if computed alone
_MONO_I = np.arange(1, MONO_SAMPLES + 1, dtype=np.float64)
_EDGE_POW2 = np.array([2.0**-j for j in range(1, EDGE_SAMPLES + 1)])
_LADDER_POW2 = np.array([2.0**j for j in range(0, 41)])
_FD_LADDER_POW2 = np.array([2.0**j for j in range(-2, 2 * FD_POINTS - 2, 2)])


def _mono_sample_points(lo: float, hi: float) -> np.ndarray:
    """Sorted distinct points strictly inside (lo, hi): MONO_SAMPLES
    equispaced ones, EDGE_SAMPLES approaching each finite end at
    distance w*2^-j, and on a half-line a doubling ladder lo + w*2^j."""
    with np.errstate(over="ignore"):
        if math.isinf(hi):
            w = max(1.0, abs(lo))
            pts = np.concatenate((lo + w * _MONO_I / (MONO_SAMPLES + 1),
                                  lo + w * _LADDER_POW2,
                                  lo + w * _EDGE_POW2))
        else:
            w = hi - lo
            off = w * _EDGE_POW2
            pts = np.concatenate((lo + w * _MONO_I / (MONO_SAMPLES + 1),
                                  lo + off, hi - off))
    return np.unique(pts[(lo < pts) & (pts < hi) & np.isfinite(pts)])


def _check_piece_sampling(p: MonotonePiece, where: str, out: list[Violation]) -> None:
    xs = _mono_sample_points(p.lo, p.hi)
    try:
        vals = ex.eval_expr(p.evaluator, xs)
    except ex.EvalError as e:
        out.append(Violation("BadExpression", where, f"evaluator failed: {e}"))
        return
    lim_lo = min(p.left_boundary_limit, p.right_boundary_limit)
    lim_hi = max(p.left_boundary_limit, p.right_boundary_limit)
    scale = max(abs(lim_lo), abs(lim_hi), float(np.max(np.abs(vals))))
    slack = ABS_TOL + REL_TOL * scale
    d = np.diff(vals)
    if p.direction == INC and not np.all(d >= -slack):
        i = int(np.argmin(d))
        out.append(Violation("NonMonotonePiece", where,
                             f"declared increasing but decreases near x={xs[i]:.6g}"))
    elif p.direction == DEC and not np.all(d <= slack):
        i = int(np.argmax(d))
        out.append(Violation("NonMonotonePiece", where,
                             f"declared decreasing but increases near x={xs[i]:.6g}"))
    elif p.direction == CONST and not np.all(np.abs(vals - vals[0]) <= slack):
        out.append(Violation("NonMonotonePiece", where, "declared constant but varies"))
    if np.any(vals < lim_lo - slack) or np.any(vals > lim_hi + slack):
        out.append(Violation("InconsistentLimits", where,
                             "sampled values leave the declared boundary-limit range"))


def check_antiderivative(fe: ex.Expr, F: ex.Expr, lo: float, hi: float) -> float:
    """Max mismatch of (F(x+h)-F(x-h))/2h against f over FD_POINTS samples,
    scaled by the tolerance; values > 1 mean the check failed.  Points
    whose stencil reaches lo or hi are skipped; 0.0 when all are."""
    with np.errstate(all="ignore"):
        if math.isfinite(hi):
            xs = np.linspace(lo, hi, FD_POINTS + 2)[1:-1]
            h = np.minimum(np.maximum(np.abs(xs), 1.0) * 1e-5, (hi - lo) * 1e-3)
            skip = (xs - h <= lo) | (xs + h >= hi)
        else:
            xs = lo + max(1.0, abs(lo)) * _FD_LADDER_POW2
            h = np.maximum(np.abs(xs), 1.0) * 1e-5
            skip = xs - h <= lo
        xs, h = xs[~skip], h[~skip]
        if not len(xs):
            return 0.0
        est = (ex.eval_expr(F, xs + h) - ex.eval_expr(F, xs - h)) / (2.0 * h)
        ref = ex.eval_expr(fe, xs)
        score = np.abs(est - ref) / (FD_REL_TOL * (1.0 + np.abs(ref)))
    # fmax ignores NaN scores, from stencils at points that overflowed to inf
    return float(np.fmax.reduce(score, initial=0.0))


def _check_piece_antiderivative(p: MonotonePiece, where: str, out: list[Violation]) -> None:
    if p.antiderivative is None:
        return
    try:
        worst = check_antiderivative(p.evaluator, p.antiderivative, p.lo, p.hi)
    except ex.EvalError as e:
        out.append(Violation("BadAntiderivative", where, f"antiderivative failed: {e}"))
        return
    if worst > 1.0:
        out.append(Violation("BadAntiderivative", where,
                             "difference quotients of the antiderivative do not match"))


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
    lo = _to_float(dom["lo"], "domain.lo", out)
    hi_raw = dom["hi"]
    hi = math.inf if hi_raw == "inf" else _to_float(hi_raw, "domain.hi", out)
    if out:
        raise ValidationError(out)
    if not math.isfinite(lo) or math.isnan(hi) or lo >= hi:
        raise ValidationError([Violation("BadSpec", "domain", f"bad domain [{lo}, {hi}]")])
    half_line = math.isinf(hi)

    bps: list[Breakpoint] = []
    for i, braw in enumerate(spec.get("breakpoints", ())):
        where = f"breakpoints[{i}]"
        x = _to_float(braw.get("x"), where + ".x", out)
        l = _to_float(braw.get("left"), where + ".left", out)
        v = _to_float(braw.get("value"), where + ".value", out)
        r = _to_float(braw.get("right"), where + ".right", out)
        if not all(map(math.isfinite, (l, v, r))):
            out.append(Violation("InconsistentLimits", where, "breakpoint values must be finite"))
            continue
        if math.isnan(x):
            continue
        if not (lo <= x <= hi):
            out.append(Violation("BadPartition", where, f"breakpoint x={x} outside domain"))
            continue
        bps.append(Breakpoint(x, l, v, r))
    for a, b in zip(bps, bps[1:]):
        if not (a.x < b.x):
            out.append(Violation("BadPartition", "breakpoints",
                                 f"not strictly increasing at x={b.x}"))

    pieces: list[MonotonePiece] = []
    for i, praw in enumerate(spec.get("pieces", ())):
        where = f"pieces[{i}]"
        iv = praw.get("interval")
        if not isinstance(iv, Sequence) or len(iv) != 2:
            out.append(Violation("BadSpec", where, "interval must be [lo, hi]"))
            continue
        plo = _to_float(iv[0], where + ".interval", out)
        phi = math.inf if iv[1] == "inf" else _to_float(iv[1], where + ".interval", out)
        e = _parse_expr(praw.get("expr"), where + ".expr", out)
        direction = praw.get("direction")
        if direction not in DIRECTIONS:
            out.append(Violation("BadSpec", where, f"direction must be one of {DIRECTIONS}"))
            continue
        ll = _to_float(praw.get("left_limit"), where + ".left_limit", out)
        rl = _to_float(praw.get("right_limit"), where + ".right_limit", out)
        anti = None
        if praw.get("antiderivative") is not None:
            anti = _parse_expr(praw["antiderivative"], where + ".antiderivative", out)
        if e is None or math.isnan(plo) or math.isnan(phi) or math.isnan(ll) or math.isnan(rl):
            continue
        if not (math.isfinite(ll) and math.isfinite(rl)):
            out.append(Violation("InconsistentLimits", where, "boundary limits must be finite"))
            continue
        if direction == INC and ll > rl and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", where,
                                 "increasing piece needs left_limit <= right_limit"))
        if direction == DEC and ll < rl and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", where,
                                 "decreasing piece needs left_limit >= right_limit"))
        if direction == CONST and not _close(ll, rl):
            out.append(Violation("InconsistentLimits", where,
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
    for i, bp in enumerate(bps):
        where = f"breakpoints[{i}]"
        pl = piece_by_hi.get(bp.x)
        pr = piece_by_lo.get(bp.x)
        if pl is not None and not _close(bp.left_value, pl.right_boundary_limit):
            out.append(Violation("InconsistentLimits", where,
                                 f"left value {bp.left_value} != piece limit "
                                 f"{pl.right_boundary_limit}"))
        if pr is not None and not _close(bp.right_value, pr.left_boundary_limit):
            out.append(Violation("InconsistentLimits", where,
                                 f"right value {bp.right_value} != piece limit "
                                 f"{pr.left_boundary_limit}"))

    tail = None
    traw = spec.get("tail")
    if half_line:
        if traw is None:
            out.append(Violation("MissingTail", "tail", "half-line domain requires tail data"))
        else:
            tl = _to_float(traw.get("limit"), "tail.limit", out)
            anti = None
            alim = None
            if traw.get("antiderivative") is not None:
                anti = _parse_expr(traw["antiderivative"], "tail.antiderivative", out)
                araw = traw.get("antiderivative_limit")
                if araw == "inf":
                    alim = math.inf
                elif araw == "-inf":
                    alim = -math.inf
                elif araw is None:
                    out.append(Violation("MissingTail", "tail",
                                         "antiderivative given without antiderivative_limit"))
                else:
                    alim = _to_float(araw, "tail.antiderivative_limit", out)
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

    for i, p in enumerate(pieces):
        _check_piece_sampling(p, f"pieces[{i}]", out)
        _check_piece_antiderivative(p, f"pieces[{i}]", out)
    if tail is not None and tail.antiderivative is not None and pieces \
            and math.isinf(pieces[-1].hi):
        p = pieces[-1]
        try:
            worst = check_antiderivative(p.evaluator, tail.antiderivative, p.lo, p.hi)
            if worst > 1.0:
                out.append(Violation("BadAntiderivative", "tail",
                                     "difference quotients of the antiderivative "
                                     "do not match"))
        except ex.EvalError as e:
            out.append(Violation("BadAntiderivative", "tail", f"antiderivative failed: {e}"))

    if out:
        raise ValidationError(out)
    return BvFunction(lo, hi, tuple(bps), tuple(pieces), tail)
