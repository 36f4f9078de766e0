"""Piecewise-monotone model of functions of bounded variation.

A function is described by monotone pieces between breakpoints, with
every one-sided limit stored explicitly.  That makes pointwise
variation, jumps and the Jordan decomposition exact computations on the
representation instead of estimates from samples.  Validation proves a
piece monotone where the composition rule of expr._monotone covers its
evaluator, from its values at its first and last sample points, and
otherwise falsifies: monotonicity and limit consistency are tested by
sampling (see the piece checks below).  It works by columns (see
validate), and a validated function keeps them (BvFunction.columns),
with whether each piece was proved or sampled; its pieces and tail make
their expression trees only when they are read.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    """A continuous monotone segment on the open interval (lo, hi).

    A piece that validate makes holds its row of the spec's parsed texts
    in place of its trees, and makes each tree on first read (_Tree):
    eq, hash, repr and pickle read them.  The float functions of its
    evaluator (compiled, with block) and of its antiderivative
    (compiled_antiderivative) come from those texts while no tree is made
    (_Compiled), so no query makes one."""

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

    @functools.cached_property
    def block(self):
        """The evaluator's block kernel (expr.Expr.block)."""
        self.compiled  # sets block too
        return vars(self)["block"]

    def __getstate__(self):
        # the fields, each tree made; not the parsed texts nor the kernels
        return {name: getattr(self, name) for name in _PIECE_FIELDS}


class _Tree:
    """A tree field of a piece or tail that validate made: its row of the
    parsed texts (vars(obj)["_texts"]: the evaluator's, then the
    antiderivative's, each a Parsed and an index) makes it on first read,
    which it then keeps in the object's __dict__, where every later read
    finds it."""

    def __init__(self, name: str, at: int):
        self.name, self.at = name, at

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        texts = vars(obj)["_texts"]
        e = vars(obj)[self.name] = texts[self.at].tree(texts[self.at + 1])
        return e


class _Compiled:
    """The float function of a tree field of a piece or tail
    (expr.Expr.compiled), None where the field is None: made on first
    read from the field's parsed text (expr.Parsed.kernels) while its
    tree is not made, else from the tree, and then kept in the object's
    __dict__ under name, and its block kernel under block if given."""

    def __init__(self, name: str, field: str, at: int, block: str | None = None):
        self.name, self.field, self.at, self.block = name, field, at, block

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        d = vars(obj)
        if self.field in d:  # a tree, made or given, or None
            e = d[self.field]
            fn, block = (None, None) if e is None else (e.compiled, e.block)
        else:
            texts = d["_texts"]
            fn, block = texts[self.at].kernels(texts[self.at + 1])
        d[self.name] = fn
        if self.block is not None:
            d[self.block] = block
        return fn


_PIECE_FIELDS = tuple(f.name for f in dataclasses.fields(MonotonePiece))
MonotonePiece.evaluator = _Tree("evaluator", 0)
MonotonePiece.antiderivative = _Tree("antiderivative", 2)
MonotonePiece.compiled = _Compiled("compiled", "evaluator", 0, "block")
MonotonePiece.compiled_antiderivative = _Compiled("compiled_antiderivative", "antiderivative", 2)


@dataclass(frozen=True)
class TailSpec:
    """Behaviour at +inf: the finite limit f(inf) and optional
    antiderivative data for tail integrals.  Like a piece, a tail that
    validate makes builds its antiderivative's tree on first read, and
    compiled_antiderivative is its float function."""

    limit_at_infinity: float
    antiderivative: ex.Expr | None = None
    antiderivative_limit: float | None = None

    def __getstate__(self):
        return {name: getattr(self, name) for name in _TAIL_FIELDS}


_TAIL_FIELDS = tuple(f.name for f in dataclasses.fields(TailSpec))
TailSpec.antiderivative = _Tree("antiderivative", 2)
TailSpec.compiled_antiderivative = _Compiled("compiled_antiderivative", "antiderivative", 2)


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
    def columns(self) -> "Columns":
        """The fields of the pieces and breakpoints as arrays and the plan
        of the evaluators (see Columns): validate sets them, and a function
        made otherwise makes them from its pieces on first use."""
        return _columns(self)

    @functools.cached_property
    def layout(self):
        """The columns and evaluation plan that refinements read (see
        measure.Layout), made once, on first use; like Expr.compiled, it
        is kept outside the fields, so eq, hash and pickle ignore it."""
        from .measure import Layout  # measure builds on this module

        return Layout(self)

    def __getstate__(self):
        # the copy makes its columns and layout again on first use
        return {k: v for k, v in vars(self).items() if k not in ("columns", "layout")}

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


class Columns(NamedTuple):
    """A function's pieces and breakpoints as arrays, each a field of
    every piece or breakpoint in order, and the expr.Rows plan of its
    pieces' evaluators, a row per piece: what validate's sampled checks
    and measure.Layout read, and what validate found of each piece's
    monotonicity."""

    lo: np.ndarray
    hi: np.ndarray
    left: np.ndarray  # left_boundary_limit
    right: np.ndarray  # right_boundary_limit
    direction: np.ndarray  # its index in DIRECTIONS
    closed: np.ndarray  # whether the piece has an antiderivative
    plan: ex.Rows
    x: np.ndarray  # the breakpoints'
    bp_left: np.ndarray
    bp_right: np.ndarray
    # whether validate proved the piece monotone (_proved), so that it
    # was not sampled; False on a function that validate did not make
    proved: np.ndarray


def _columns(f: BvFunction) -> Columns:
    """The columns of a function that validate did not make."""
    ps, bps = f.pieces, f.breakpoints

    def column(values, dtype=np.float64):
        return np.array(values, dtype)

    return Columns(column([p.lo for p in ps]), column([p.hi for p in ps]),
                   column([p.left_boundary_limit for p in ps]),
                   column([p.right_boundary_limit for p in ps]),
                   column([_DIRECTION_INDEX[p.direction] for p in ps], np.intp),
                   column([p.antiderivative is not None for p in ps], bool),
                   ex.rows_of([p.evaluator for p in ps]), column([bp.x for bp in bps]),
                   column([bp.left_value for bp in bps]), column([bp.right_value for bp in bps]),
                   np.zeros(len(ps), bool))


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
        return p.compiled(float(x))
    if x == f.domain_lo:
        return f.pieces[0].left_boundary_limit
    return f.pieces[-1].right_boundary_limit


def summands_at_integers(f: BvFunction, a: int, b: int):
    """An iterator of summands of evaluate(f, k) for the integers a <= k <
    b, in increasing k, whose math.fsum, inside any larger fsum, gives the
    bits of the term-by-term sum; the first failing k raises.  The pieces
    tile the domain between breakpoints, so an integer strictly inside a
    piece takes that piece's evaluator, and evaluate() gives the others,
    which are breakpoints or domain_lo.  Each run of two or more integers
    inside a piece goes to the evaluator's block kernel (Expr.block) in
    runs of at most _BLOCK integers, evaluated lazily, one at a time, so
    memory does not grow with b - a; a lone integer, for which the
    kernel's fixed cost is many times evaluate()'s, goes to evaluate().
    The kernel gives the values of the evaluator's float function bit for
    bit, or one zero for a run on which it is that zero.  Only the
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
            runs.append(_blocks(p.block, s, t))
            k = t
    runs.append(_evaluated(f, k, b))
    return itertools.chain.from_iterable(runs)


# The integers a direct sum's block kernel takes at once: its arrays and
# lists of as many floats stay far below a megabyte.
_BLOCK = 1 << 12
# Every integer k with |k| <= _EXACT is a float.
_EXACT = 1 << 53


def _blocks(kernel, s: int, t: int):
    """The summands of kernel (an Expr.block) over the integers s..t-1,
    one run of at most _BLOCK integers at a time."""
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
        return p.compiled(float(x))
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
        return p.compiled(float(x))
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
    vl = p.left_boundary_limit if s == p.lo else p.compiled(float(s))
    vr = p.right_boundary_limit if t == p.hi else p.compiled(float(t))
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


def _close(a, b):
    """Whether a and b agree up to the limits' slack, for floats or
    elementwise for arrays, with the same float operations."""
    return abs(a - b) <= ABS_TOL + REL_TOL * np.maximum(abs(a), abs(b))


def _number(raw) -> float | None:
    """float(raw) if raw is a number, else None: not a bool, nor a value
    that float() refuses or that is too large for a float."""
    if type(raw) is bool:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        return None


def _not_a_number(raw) -> str:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return "expected a number, got an integer too large for a float"
    return f"expected a number, got {raw!r}"


def _to_float(raw, out: list[Violation], where: str) -> float:
    v = _number(raw)
    if v is None:
        out.append(Violation("BadSpec", where, _not_a_number(raw)))
        return math.nan
    return v


def _floats(rows: list, k: int) -> tuple[np.ndarray, set]:
    """The entries of rows, lists of k raw values each, as an (n, k)
    array of float(v), and the places (i, j) of the entries that are not
    numbers, NaN there: one array at once if every entry is a float, an
    int that a float holds or "inf", else entry by entry by _number."""
    types = set(map(type, itertools.chain.from_iterable(rows)))
    if types <= {float, int} or types <= {float, int, str} and {
            v for v in itertools.chain.from_iterable(rows) if type(v) is str} == {"inf"}:
        try:
            return np.array(rows, np.float64).reshape(len(rows), k), set()
        except OverflowError:
            pass
    values = [list(map(_number, row)) for row in rows]
    bad = {(i, j) for i, row in enumerate(values) for j, v in enumerate(row) if v is None}
    for i, j in bad:
        values[i][j] = math.nan
    return np.array(values, np.float64).reshape(len(rows), k), bad


def _expr_violation(texts: ex.Parsed, raw, i: int, where: str) -> Violation:
    """The violation of entry i of parsed texts, which did not parse."""
    if not isinstance(raw, str):
        return Violation("BadSpec", where, f"expected expression text, got {raw!r}")
    return Violation("BadExpression", where, str(texts.errors[i]))


def _entries(spec: Mapping, name: str, out: list[Violation]) -> Sequence:
    raw = spec.get(name, ())
    if isinstance(raw, (list, tuple)):
        return raw
    out.append(Violation("BadSpec", name, f"{name} must be a list"))
    return ()


def _fields(entries: Sequence, names: tuple) -> list:
    """Per entry, the tuple of its fields of the names, None for a field
    it lacks, or None for an entry that is not an object."""
    return [tuple(map(e.get, names)) if type(e) is dict or isinstance(e, Mapping) else None
            for e in entries]


_BP_FIELDS = ("x", "left", "value", "right")
_NO_BREAKPOINT = (None,) * len(_BP_FIELDS)
_BP_NAMES = tuple(f.name for f in dataclasses.fields(Breakpoint))
_NONE = np.empty(0)
_NONE.flags.writeable = False
_new = object.__new__


def _breakpoints(entries: Sequence, lo: float, hi: float, out: list[Violation]):
    """The breakpoints of the spec's entries, each with finite values at
    an x in the domain: (the Breakpoints, their x, left and right values
    as arrays, the index of each in entries, or None if all are kept);
    the violations go to out, in the order of the entries, then those of
    x not increasing."""
    if not entries:
        return (), _NONE, _NONE, _NONE, None
    kept = None
    fields = _fields(entries, _BP_FIELDS)
    values, bad = _floats([f or _NO_BREAKPOINT for f in fields], 4)
    x = values[:, 0]
    # a finite sum means finite values: the common case needs one test
    if bad or not (math.isfinite(np.add.reduce(values, axis=None))
                   and lo <= min(x.tolist()) and max(x.tolist()) <= hi):
        finite = np.isfinite(values[:, 1:]).all(axis=1)
        inside = (lo <= x) & (x <= hi)  # False at a NaN x
        keep = finite & inside
        # an entry with finite values at a NaN x is left out silently
        faults = ~finite | ~inside & (x == x)
        faults[[i for i, _ in bad]] = True
        for i in faults.nonzero()[0].tolist():
            if fields[i] is None:
                out.append(Violation("BadSpec", f"breakpoints[{i}]",
                                     "breakpoint must be an object"))
                continue
            for j, name in enumerate(_BP_FIELDS):
                if (i, j) in bad:
                    out.append(Violation("BadSpec", f"breakpoints[{i}].{name}",
                                         _not_a_number(fields[i][j])))
            if not finite[i]:
                out.append(Violation("InconsistentLimits", f"breakpoints[{i}]",
                                     "breakpoint values must be finite"))
            elif not inside[i] and x[i] == x[i]:
                out.append(Violation("BadPartition", f"breakpoints[{i}]",
                                     f"breakpoint x={x[i].item()} outside domain"))
        values = values[keep]
        kept = keep.nonzero()[0]
    x, left, _, right = values.T
    if len(x) > 1:
        for j in (x[1:] <= x[:-1]).nonzero()[0].tolist():
            out.append(Violation("BadPartition", "breakpoints",
                                 f"not strictly increasing at x={x[j + 1].item()}"))
    bps = []
    for row in values.tolist():
        bp = _new(Breakpoint)
        vars(bp).update(zip(_BP_NAMES, row))
        bps.append(bp)
    return tuple(bps), x, left, right, kept


class _Pieces(NamedTuple):
    """The pieces that validate accepts, as columns (see _pieces)."""

    rows: np.ndarray  # their entries
    lo: np.ndarray
    hi: np.ndarray
    left: np.ndarray
    right: np.ndarray
    direction: np.ndarray
    closed: np.ndarray  # whether each has an antiderivative that parsed
    exprs: ex.Parsed  # the texts of every entry's expr
    antis: ex.Parsed  # of every entry's antiderivative


_PIECE_KEYS = ("interval", "expr", "direction", "left_limit", "right_limit", "antiderivative")
_NO_PIECE = (None,) * len(_PIECE_KEYS)


def _pair(iv) -> bool:
    return (type(iv) is list or isinstance(iv, Sequence)) and len(iv) == 2


def _pieces(entries: Sequence, tail_text, out: list[Violation]) -> _Pieces:
    """The pieces of the spec's entries that have an interval, an
    expression that parses, a direction, and limits that are finite, as
    columns; the violations go to out, each entry's in the order of its
    fields, and then those of its limits against its direction.  The
    tail's antiderivative tail_text, if not None, is parsed after the
    pieces' antiderivatives, and its violation left to the caller."""
    fields = _fields(entries, _PIECE_KEYS)
    intervals, texts, directions, lefts, rights, anti_texts = (
        zip(*(f or _NO_PIECE for f in fields)) if fields else ((),) * 6)
    pair = list(map(_pair, intervals))
    values, bad = _floats([(iv[0], iv[1], left, right) if ok else (0.0, 0.0, left, right)
                           for iv, left, right, ok in zip(intervals, lefts, rights, pair)], 4)
    lo, hi, left, right = values.T
    directions = [_DIRECTION_INDEX.get(d, -1) if isinstance(d, str) else -1 for d in directions]
    direction = np.array(directions, np.intp)
    exprs, antis = ex.parse_texts(texts), ex.parse_texts([*anti_texts, tail_text])
    bad_anti = [i for i, t in enumerate(anti_texts) if t is not None and antis.item[i] < 0]
    # an entry left out: with a NaN (of a bad number, or "nan"), or
    # without an interval, an expression or a direction; the common case,
    # none left out, needs two tests
    lo_sum, hi_sum, *limit_sums = np.add.reduce(values, axis=0).tolist()
    if bad or exprs.missing or min(directions, default=0) < 0 or not all(pair) \
            or lo_sum != lo_sum or hi_sum != hi_sum or not all(map(math.isfinite, limit_sums)):
        out_ = (np.isnan(values).any(axis=1) | (exprs.item < 0) | (direction < 0)
                | np.logical_not(pair))
        accepted = np.isfinite(values[:, 2:]).all(axis=1) & ~out_
    else:
        out_ = accepted = None
    # per direction, whether the order of the limits breaks it
    order = (left > right).view(np.int8) - (left < right).view(np.int8)
    wrong = _WRONG_ORDER[direction, order + 1]
    if accepted is not None:
        wrong &= accepted
    if any(wrong.tolist()):
        with np.errstate(invalid="ignore"):
            wrong &= ~_close(left, right)
    faults = wrong | (False if accepted is None else ~accepted)
    if bad or bad_anti:
        faults[[i for i, _ in bad] + bad_anti] = True
    for i in faults.nonzero()[0].tolist():
        where = f"pieces[{i}]"
        if not pair[i]:
            out.append(Violation("BadSpec", where, "interval must be [lo, hi]"
                                 if fields[i] else "piece must be an object"))
            continue
        for j in (0, 1):
            if (i, j) in bad:
                out.append(Violation("BadSpec", f"{where}.interval",
                                     _not_a_number(intervals[i][j])))
        if exprs.item[i] < 0:
            out.append(_expr_violation(exprs, texts[i], i, f"{where}.expr"))
        if direction[i] < 0:
            out.append(Violation("BadSpec", where, f"direction must be one of {DIRECTIONS}"))
            continue
        for j, name, raw in ((2, "left_limit", lefts[i]), (3, "right_limit", rights[i])):
            if (i, j) in bad:
                out.append(Violation("BadSpec", f"{where}.{name}", _not_a_number(raw)))
        if i in bad_anti:
            out.append(_expr_violation(antis, anti_texts[i], i, f"{where}.antiderivative"))
        if out_ is not None and out_[i]:
            continue
        if accepted is not None and not accepted[i]:
            out.append(Violation("InconsistentLimits", where, "boundary limits must be finite"))
        elif wrong[i]:
            out.append(Violation("InconsistentLimits", where, _DIRECTION_RULES[direction[i]]))
    if accepted is None:  # every entry
        rows = np.arange(len(pair))
        return _Pieces(rows, lo, hi, left, right, direction, antis.item[:len(rows)] >= 0,
                       exprs, antis)
    rows = accepted.nonzero()[0]
    return _Pieces(rows, lo[rows], hi[rows], left[rows], right[rows], direction[rows],
                   antis.item[rows] >= 0, exprs, antis)


# per direction (inc, dec, const), and per order of the left limit to the
# right one (below, equal, above), whether they break it when not close
# (equal limits are close)
_WRONG_ORDER = np.array([[False, False, True], [True, False, False], [True, False, True]])
_DIRECTION_RULES = ("increasing piece needs left_limit <= right_limit",
                    "decreasing piece needs left_limit >= right_limit",
                    "constant piece needs equal boundary limits")


# ---------------------------------------------------------------------------
# Piece checks.  validate checks all pieces of a spec together: pieces of
# one expression shape (expr.Expr.shape: the ops and the bits of the
# pinned constants) are the rows of 2-D arrays of at most _BATCH points,
# the plan of the spec's parsed texts (expr.Parsed.plan) evaluates the
# rows of one shape as one program, and each check is a reduction over
# the rows.  The sample points of a row are made in their sorted order,
# each by the float operations of the point made alone.  Every point,
# value, verdict, message and error is the one a check of the piece alone
# gives (tests/ref_validate.py keeps those checks, tests/test_bv.py the
# previous batched sample points, as references); only the failing rows
# reach Python.
#
# Monotonicity is first proved where the rule of expr._monotone covers a
# piece's program (_proved): at its first and last sample points alone,
# its values lie between which its values at all others do, under the
# rule's premises (monotone rounding of the float ops and libm calls).
# A piece so proved gives no violation and is not sampled; every other
# piece is, so a piece that turns, fails or leaves its limits keeps the
# violations sampling finds.

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
    swapped = _steps(np.less, pts, bool)
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
    if not ((pts[:, k - 1] > lo[:, 0]) & (pts[:, n - k] < hi[:, 0])).all():
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


def _steps(op, a: np.ndarray, dtype) -> np.ndarray:
    """op(a[:, 1:], a[:, :-1]) of a C-contiguous 2-D array a, run as one
    loop over a's flat data, which is much faster than over its strided
    rows: the steps across rows are computed too, but not returned."""
    out = np.empty(a.shape, dtype)
    flat = a.reshape(-1)
    op(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    return out[:, :-1]


def _batches(rows: np.ndarray, half_line: np.ndarray, group: np.ndarray, width: int):
    """rows in arrays of at most _BATCH // width, the bounded ones, then
    the half-lines, each ordered by group (their shapes' numbers), so
    that an array holds one kind of piece and few shapes."""
    size = max(1, _BATCH // width)
    order = np.lexsort((group, half_line))
    bounded = len(rows) - np.count_nonzero(half_line)
    for part in (rows[order[:bounded]], rows[order[bounded:]]):
        for k in range(0, len(part), size):
            yield part[k:k + size]


_SAMPLES = MONO_SAMPLES + 2 * EDGE_SAMPLES  # the most sample points of a piece
_DIRECTION_INDEX = {INC: 0, DEC: 1, CONST: 2}


# Of the points lo + (w*2^-j)/1 and hi - w*2^-j of _sample_points, those
# whose fraction 2^-j of w is below the least equispaced one, 1/1026,
# and the upper end of the half-line's ladder
_J = (MONO_SAMPLES + 1).bit_length()
_TINY = np.array([2.0**-j for j in range(_J, EDGE_SAMPLES + 1)])
_TOP = 2.0 ** (_LADDER - 1)


def _end_points(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, known) for the pieces on (lo[i], hi[i]), all bounded or all
    half-lines: x[i] holds the first and the last point of row i of
    _sample_points, the least and the greatest of its points strictly
    inside the piece, where known[i] is True.  They are found among a few
    of its points, by the same float operations.

    A point lo + (w*m)/d rounds monotonically in its exact fraction m/d
    of w, and hi - w*2^-j in j.  So the first point is among the points
    of fraction 2^-j below 1/1026, that at 1/1026 and hi - w/2, if those
    two are inside: every other point is at least one of them.  The last
    is among the points hi - w*2^-j of the same j and lo + (1025w)/1026,
    if that one and the least of the former are inside; on a half-line it
    is the ladder's top, lo + w*2^40, if finite.  known is False where
    these conditions fail (a piece a few ulps wide, say)."""
    half_line = math.isinf(hi[0])
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.maximum(1.0, np.abs(lo)) if half_line else hi - lo
        low = lo[:, None] + w[:, None] * _TINY
        step = lo + w / (MONO_SAMPLES + 1)  # the first equispaced point
        first = np.minimum(np.where(low > lo[:, None], low, math.inf).min(axis=1), step)
        known = step > lo
        if half_line:
            last = lo + w * _TOP
            known &= np.isfinite(last)
        else:
            mid = hi - w * 0.5
            first = np.minimum(first, mid)
            high = hi[:, None] - w[:, None] * _TINY
            top = lo + w * float(MONO_SAMPLES) / (MONO_SAMPLES + 1)
            last = np.maximum(np.where(high < hi[:, None], high, -math.inf).max(axis=1), top)
            known &= (mid > lo) & (top < hi) & (high[:, 0] < hi) & (first < hi) & (last > lo)
    return np.stack((first, last), axis=1), known


def _proved(c: Columns, rows: np.ndarray) -> np.ndarray | None:
    """Per piece i of rows, of the columns c, whether its monotonicity is
    proved with no violation, which then sets c.proved[i]; None if the
    rule covers no program of the plan.  Its program
    must be proved monotone between its first and last sample points
    (expr.Rows.monotone), and its values there, the least and the
    greatest of its sampled values, must give _check_sampling's verdicts
    without a violation: by the float operations of those verdicts, its
    scale and slack, its spread if constant, and the limits it must stay
    within; and if increasing or decreasing, it must not go the other
    way, as then every step of the sampled values keeps its direction."""
    proved = c.plan.provable(rows)
    if proved is None or not proved.any():
        return proved
    candidates = rows[proved]
    # in arrays of at most _BATCH points; only the last piece can be a
    # half-line, which goes alone
    half_line = math.isinf(c.hi[candidates[-1]])
    bounded = candidates[:-1] if half_line else candidates
    size = max(1, _BATCH // (2 * len(_TINY)))
    parts = [bounded[k:k + size] for k in range(0, len(bounded), size)]
    if half_line:
        parts.append(candidates[-1:])
    for part in parts:
        x, known = _end_points(c.lo[part], c.hi[part])
        part = part[known]
        values, mono = c.plan.monotone(x[known], part)
        v0, v1 = values[:, 0], values[:, 1]
        with np.errstate(all="ignore"):  # the rows not proved may hold NaN
            left, right = c.left[part], c.right[part]
            lim_lo, lim_hi = np.minimum(left, right), np.maximum(left, right)
            vmin, vmax = np.minimum(v0, v1), np.maximum(v0, v1)
            scale = np.maximum(np.maximum(vmax, -vmin), np.maximum(-lim_lo, lim_hi))
            slack = ABS_TOL + REL_TOL * scale
            direction = c.direction[part]
            varies = np.where(direction == 0, v0 > v1, np.where(
                direction == 1, v0 < v1, np.maximum(vmax - v0, v0 - vmin) > slack))
            leaves = (vmin < lim_lo - slack) | (vmax > lim_hi + slack)
        c.proved[part[mono & ~varies & ~leaves]] = True
    return c.proved[rows]


def _check_sampling(c: Columns, rows: np.ndarray, found: dict) -> None:
    """Sample each piece i of rows, of the columns c, at the points of
    _sample_points and add to found[i] what it violates: its evaluator
    must give finite values there, monotone in its direction and inside
    its boundary limits, up to a slack.  A piece with no point inside it
    is not sampled, nor is one proved monotone with no violation
    (_proved)."""
    proved = _proved(c, rows)
    if proved is not None:
        rows = rows[~proved]
        if not len(rows):
            return
    for rows in _batches(rows, np.isinf(c.hi[rows]), c.plan.group[rows], _SAMPLES):
        xs, empty = _sample_points(c.lo[rows], c.hi[rows])
        if empty.any():
            rows, xs = rows[~empty], xs[~empty]
            if not len(rows):
                continue
        vals, errors = c.plan(xs, rows)
        with np.errstate(all="ignore"):  # the rows that failed hold NaN
            # per row: the least and the greatest limit, value and step
            left, right = c.left[rows], c.right[rows]
            lim_lo, lim_hi = np.minimum(left, right), np.maximum(left, right)
            vmin, vmax, v0 = vals.min(axis=1), vals.max(axis=1), vals[:, 0]
            # max(|v|) is max(vmax, -vmin)
            scale = np.maximum(np.maximum(vmax, -vmin), np.maximum(-lim_lo, lim_hi))
            slack = ABS_TOL + REL_TOL * scale
            # per direction, the step or spread that must stay within the
            # slack, made only if a row has that direction; v - v0 rounds
            # monotonically in v, so the largest |v - v0| is at vmin or vmax
            directions = c.direction[rows]
            has = set(directions.tolist())
            if has != {2}:
                d = _steps(np.subtract, vals, np.float64)
            worst = [-d.min(axis=1) if 0 in has else 0.0, d.max(axis=1) if 1 in has else 0.0,
                     np.maximum(vmax - v0, v0 - vmin) if 2 in has else 0.0]
            worst = worst[has.pop()] if len(has) == 1 else np.choose(directions, worst)
            varies = worst > slack
            leaves = (vmin < lim_lo - slack) | (vmax > lim_hi + slack)
        for r in sorted({*(varies | leaves).nonzero()[0].tolist(), *errors}):
            i = int(rows[r])
            where, out = f"pieces[{i}]", found.setdefault(i, [])
            if r in errors:
                out.append(Violation("BadExpression", where, f"evaluator failed: {errors[r]}"))
                continue
            if varies[r] and directions[r] == 0:
                out.append(Violation("NonMonotonePiece", where,
                                     "declared increasing but decreases near "
                                     f"x={xs[r, np.argmin(d[r])]:.6g}"))
            elif varies[r] and directions[r] == 1:
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


def _antiderivative_scores(plan: ex.Rows, anti: np.ndarray, ev: np.ndarray,
                           lo: np.ndarray, hi: np.ndarray) -> list:
    """Per check k, of F, row anti[k] of plan, against f, row ev[k], on
    the piece (lo[k], hi[k]): the score of check_antiderivative, or the
    EvalError it raises."""
    results: list = [0.0] * len(anti)
    for ks in _batches(np.arange(len(anti)), np.isinf(hi), plan.group[anti], FD_POINTS):
        xs, h, empty = _stencils(lo[ks], hi[ks])
        if empty.any():  # these score 0.0, and nothing is evaluated
            ks, xs, h = ks[~empty], xs[~empty], h[~empty]
            if not len(ks):
                continue
        # one run of the plan, both sides of the stencil in one: F(x + h)
        # in rows [0, n), F(x - h) in [n, 2n), f(x) in [2n, 3n)
        n = len(ks)
        with np.errstate(all="ignore"):  # a ladder's far points overflow
            xs = np.concatenate((xs + h, xs - h, xs))
        vals, errors = plan(xs, np.concatenate((anti[ks], anti[ks], ev[ks])))
        up, down, ref = vals[:n], vals[n:2 * n], vals[2 * n:]
        with np.errstate(all="ignore"):
            score = np.abs((up - down) / (2.0 * h) - ref) / (FD_REL_TOL * (1.0 + np.abs(ref)))
            # a NaN score of finite stencil points fails, as of values
            # that are not finite; fmax ignores the others, from stencils
            # at points that overflowed to inf
            score[np.isnan(score) & np.isfinite(xs[:n]) & np.isfinite(xs[n:2 * n])] = math.inf
        worst = np.fmax.reduce(score, axis=1, initial=0.0).tolist()
        for r, k in enumerate(ks.tolist()):
            err = errors.get(r) or errors.get(n + r) or errors.get(2 * n + r)
            results[k] = worst[r] if err is None else err
    return results


def check_antiderivative(fe: ex.Expr, F: ex.Expr, lo: float, hi: float) -> float:
    """Max mismatch of (F(x+h)-F(x-h))/2h against f over FD_POINTS samples,
    scaled by the tolerance; values > 1 mean the check failed.  Points
    whose stencil reaches lo or hi are skipped; 0.0 when all are.  An
    EvalError of F or f is raised."""
    [score] = _antiderivative_scores(ex.rows_of([F, fe]), np.array([0]), np.array([1]),
                                     np.array([float(lo)]), np.array([float(hi)]))
    if isinstance(score, ex.EvalError):
        raise score
    return score


def _check_pieces(c: Columns, antis: ex.Parsed, entries: np.ndarray, tail: int | None,
                  out: list[Violation]) -> None:
    """Append the sampled violations of the pieces of the columns c, in
    piece order, each piece's sampling ones before its antiderivative's,
    then the tail's.  antis holds the antiderivatives' texts of the
    spec's entries, entries[i] is piece i's, and tail is the tail's if it
    has one, else None.  Only a piece whose lo is finite and below its hi
    is sampled and checked; the tail's antiderivative is checked on the
    last piece, if it is such a half-line."""
    found: dict = {}
    rows = (np.isfinite(c.lo) & (c.lo < c.hi)).nonzero()[0]
    _check_sampling(c, rows, found)
    checked = rows[c.closed[rows]]
    texts = entries[checked]
    where = [f"pieces[{i}]" for i in checked.tolist()]
    m = len(c.lo)
    if tail is not None and len(rows) and rows[-1] == m - 1 and math.isinf(c.hi[-1]):
        texts = np.append(texts, tail)
        checked = np.append(checked, m - 1)
        where.append("tail")
    if len(checked):
        # F in the plan's first rows, a row per check, then f, a row per piece
        scores = _antiderivative_scores(antis.plan(texts, then=c.plan), np.arange(len(texts)),
                                        checked + len(texts), c.lo[checked], c.hi[checked])
        for i, w, score in zip(checked.tolist(), where, scores):
            violations = found.setdefault(m if w == "tail" else i, [])
            if isinstance(score, ex.EvalError):
                violations.append(Violation("BadAntiderivative", w,
                                            f"antiderivative failed: {score}"))
            elif score > 1.0:
                violations.append(Violation("BadAntiderivative", w,
                                            "difference quotients of the antiderivative "
                                            "do not match"))
    for i in sorted(found):
        out.extend(found[i])


def validate(spec: Mapping) -> BvFunction:
    """Build a BvFunction from a raw description, collecting all invariant
    violations; raises ValidationError when any are found.

    The accepted mapping mirrors the JSON file format: ``domain`` with
    lo/hi ("inf" allowed for hi), ``pieces`` with interval/expr/
    direction/left_limit/right_limit[/antiderivative], ``breakpoints``
    with x/left/value/right, and optional ``tail``.

    The checks run on columns: each field of the pieces or breakpoints is
    read as one array (_floats), the expressions are parsed per template
    key (expr.parse_texts), each structural check is an array comparison,
    and a violation is made only for an entry that fails, in the order of
    the entries and of their fields.  The sampled checks evaluate the
    pieces through one expr.Rows plan of their texts, which the function
    keeps in its columns (BvFunction.columns); each piece, and the tail,
    makes its trees only when they are read (_Tree).
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

    bps, x, bp_left, bp_right, kept = _breakpoints(_entries(spec, "breakpoints", out), lo, hi,
                                                   out)
    entries = _entries(spec, "pieces", out)
    traw = spec.get("tail")
    tail_text = traw.get("antiderivative") if half_line and isinstance(traw, Mapping) else None
    ps = _pieces(entries, tail_text, out)

    # partition: pieces must tile [lo, first bp] ... [last bp, hi/inf]
    cuts = np.concatenate(([lo], x[(lo < x) & (x < hi)] if len(x) else x, [hi]))
    ends = cuts[:-1] < cuts[1:]
    s, t = cuts[:-1][ends], cuts[1:][ends]
    if len(s) != len(ps.lo) or not ((ps.lo == s) & (ps.hi == t)).all():
        out.append(Violation(
            "BadPartition", "pieces",
            f"piece intervals {list(zip(ps.lo.tolist(), ps.hi.tolist()))} do not tile the "
            f"domain as {list(zip(s.tolist(), t.tolist()))}"))

    # breakpoint values vs adjacent piece limits, those of the last piece
    # that ends or starts there; finite values, so equal ones are close
    if len(ps.lo) and len(x):
        his = dict(zip(ps.hi.tolist(), itertools.count()))
        los = dict(zip(ps.lo.tolist(), itertools.count()))
        xs = x.tolist()
        jl = np.array([his.get(v, -1) for v in xs])
        jr = np.array([los.get(v, -1) for v in xs])
        pl, pr = ps.right[jl], ps.left[jr]
        left_off = (jl >= 0) & (bp_left != pl)
        right_off = (jr >= 0) & (bp_right != pr)
        off = left_off | right_off
        if off.any():
            left_off &= ~_close(bp_left, pl)
            right_off &= ~_close(bp_right, pr)
            off = left_off | right_off
        for i in off.nonzero()[0].tolist():
            at = f"breakpoints[{i if kept is None else kept[i]}]"  # the spec's entry
            if left_off[i]:
                out.append(Violation("InconsistentLimits", at,
                                     f"left value {bp_left[i].item()} != piece limit "
                                     f"{pl[i].item()}"))
            if right_off[i]:
                out.append(Violation("InconsistentLimits", at,
                                     f"right value {bp_right[i].item()} != piece limit "
                                     f"{pr[i].item()}"))

    tail = anti = None  # anti: the tail's _texts, if its antiderivative parses
    if half_line:
        if traw is None:
            out.append(Violation("MissingTail", "tail", "half-line domain requires tail data"))
        elif not isinstance(traw, Mapping):
            out.append(Violation("BadSpec", "tail", "tail must be an object"))
        else:
            tl = _to_float(traw.get("limit"), out, "tail.limit")
            alim = None
            if tail_text is not None:
                n = len(entries)  # the tail's text follows the pieces'
                if ps.antis.item[n] < 0:
                    out.append(_expr_violation(ps.antis, tail_text, n, "tail.antiderivative"))
                else:
                    anti = (None, None, ps.antis, n)
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
                tail = _new(TailSpec)
                d = vars(tail)
                d["limit_at_infinity"], d["antiderivative_limit"] = tl, alim
                if anti is None:
                    d["antiderivative"] = None
                else:
                    d["_texts"] = anti
                if len(ps.lo) and math.isinf(ps.hi[-1]) and not _close(ps.right[-1], tl):
                    out.append(Violation("InconsistentLimits", "tail",
                                         "tail limit != last piece right limit"))
    elif traw is not None:
        out.append(Violation("BadPartition", "tail", "tail given for a compact domain"))

    columns = Columns(ps.lo, ps.hi, ps.left, ps.right, ps.direction, ps.closed,
                      ps.exprs.plan(ps.rows), x, bp_left, bp_right, np.zeros(len(ps.lo), bool))
    has_tail = tail is not None and anti is not None
    _check_pieces(columns, ps.antis, ps.rows, len(entries) if has_tail else None, out)
    if out:
        raise ValidationError(out)
    pieces = []
    for i, *fields, closed in zip(ps.rows.tolist(), ps.lo.tolist(), ps.hi.tolist(),
                                  ps.left.tolist(), ps.right.tolist(), ps.closed.tolist()):
        p = _new(MonotonePiece)
        d = vars(p)
        d["lo"], d["hi"], d["left_boundary_limit"], d["right_boundary_limit"] = fields
        d["direction"] = entries[i]["direction"]  # the spec's string
        d["_texts"] = (ps.exprs, i, ps.antis, i)
        if not closed:
            d["antiderivative"] = None
        pieces.append(p)
    f = BvFunction(lo, hi, bps, tuple(pieces), tail)
    vars(f)["columns"] = columns
    return f
