"""validate as it was, one piece at a time, kept as the reference of the
column checks of bvsum.bv: every violation (kind, place, message and
order) and every function it builds must be this one's.

It is validate before the checks ran by columns, with two changes made
since to both: a malformed structure (a piece, breakpoint or tail that is
not an object, pieces or breakpoints that are not a list, a bool or an
integer too large for a float where a number belongs) is a BadSpec, and a
piece whose lo is not finite or not below its hi is not sampled, nor is
its antiderivative checked.  The sampled checks are the per-piece checks
below, themselves bit-equality references for the batched checks.
"""

import math
from collections.abc import Mapping, Sequence

import numpy as np

from bvsum import expr as ex
from bvsum.bv import (
    ABS_TOL,
    CONST,
    DEC,
    DIRECTIONS,
    EDGE_SAMPLES,
    FD_POINTS,
    FD_REL_TOL,
    INC,
    MONO_SAMPLES,
    REL_TOL,
    Breakpoint,
    BvFunction,
    MonotonePiece,
    TailSpec,
)
from bvsum.errors import ValidationError, Violation


# The piece checks as validate made them one piece at a time, kept as
# bit-equality references for the batched checks in bvsum.bv.

_MONO_I = np.arange(1, MONO_SAMPLES + 1, dtype=np.float64)
_EDGE_POW2 = np.array([2.0**-j for j in range(1, EDGE_SAMPLES + 1)])
_LADDER_POW2 = np.array([2.0**j for j in range(0, 41)])
_FD_LADDER_POW2 = np.array([2.0**j for j in range(-2, 2 * FD_POINTS - 2, 2)])


def piece_sample_points(lo: float, hi: float) -> np.ndarray:
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


def piece_check_sampling(p, where: str, out: list) -> None:
    xs = piece_sample_points(p.lo, p.hi)
    if not len(xs):
        return  # nothing to sample
    try:
        vals = ex.eval_expr(p.evaluator, xs)
    except ex.EvalError as e:
        out.append(Violation("BadExpression", where, f"evaluator failed: {e}"))
        return
    lim_lo = min(p.left_boundary_limit, p.right_boundary_limit)
    lim_hi = max(p.left_boundary_limit, p.right_boundary_limit)
    scale = max(abs(lim_lo), abs(lim_hi), float(np.max(np.abs(vals))))
    slack = ABS_TOL + REL_TOL * scale
    with np.errstate(over="ignore"):
        d = np.diff(vals)
        spread = np.abs(vals - vals[0])
    if p.direction == "inc" and not np.all(d >= -slack):
        i = int(np.argmin(d))
        out.append(Violation("NonMonotonePiece", where,
                             f"declared increasing but decreases near x={xs[i]:.6g}"))
    elif p.direction == "dec" and not np.all(d <= slack):
        i = int(np.argmax(d))
        out.append(Violation("NonMonotonePiece", where,
                             f"declared decreasing but increases near x={xs[i]:.6g}"))
    elif p.direction == "const" and not np.all(spread <= slack):
        out.append(Violation("NonMonotonePiece", where, "declared constant but varies"))
    if np.any(vals < lim_lo - slack) or np.any(vals > lim_hi + slack):
        out.append(Violation("InconsistentLimits", where,
                             "sampled values leave the declared boundary-limit range"))


def piece_check_antiderivative(fe, F, lo: float, hi: float) -> float:
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
        # a NaN score fails unless a point of its stencil overflowed to inf
        score[np.isnan(score) & np.isfinite(xs + h) & np.isfinite(xs - h)] = np.inf
    return float(np.fmax.reduce(score, initial=0.0))


def _piece_antiderivative(fe, F, lo, hi, where: str, out: list) -> None:
    try:
        worst = piece_check_antiderivative(fe, F, lo, hi)
    except ex.EvalError as e:
        out.append(Violation("BadAntiderivative", where, f"antiderivative failed: {e}"))
        return
    if worst > 1.0:
        out.append(Violation("BadAntiderivative", where,
                             "difference quotients of the antiderivative do not match"))


def usable(p) -> bool:
    """Whether a piece's interval can be sampled: its lo is finite and
    below its hi."""
    return math.isfinite(p.lo) and p.lo < p.hi


def piece_check_pieces(pieces, tail, out: list) -> None:
    for i, p in enumerate(pieces):
        if not usable(p):
            continue
        piece_check_sampling(p, f"pieces[{i}]", out)
        if p.antiderivative is not None:
            _piece_antiderivative(p.evaluator, p.antiderivative, p.lo, p.hi,
                                  f"pieces[{i}]", out)
    if tail is not None and tail.antiderivative is not None and pieces \
            and math.isinf(pieces[-1].hi) and usable(pieces[-1]):
        p = pieces[-1]
        _piece_antiderivative(p.evaluator, tail.antiderivative, p.lo, p.hi, "tail", out)




def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _to_float(raw, out: list, where: str, i=None) -> float:
    if type(raw) is not bool:
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
        except OverflowError:
            out.append(Violation("BadSpec", where.format(i), "expected a number, got an "
                                 "integer too large for a float"))
            return math.nan
    out.append(Violation("BadSpec", where.format(i), f"expected a number, got {raw!r}"))
    return math.nan


def _parse_expr(raw, out: list, where: str, i=None):
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


def _entries(spec, name: str, out: list):
    raw = spec.get(name, ())
    if isinstance(raw, (list, tuple)):
        return raw
    out.append(Violation("BadSpec", name, f"{name} must be a list"))
    return ()


def ref_validate(spec) -> BvFunction:
    out: list = []

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

    bps, entry = [], []  # the breakpoints kept, the index of each in the spec
    for i, braw in enumerate(_entries(spec, "breakpoints", out)):
        if not isinstance(braw, Mapping):
            out.append(Violation("BadSpec", f"breakpoints[{i}]", "breakpoint must be an object"))
            continue
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
        entry.append(i)
    for a, b in zip(bps, bps[1:]):
        if not (a.x < b.x):
            out.append(Violation("BadPartition", "breakpoints",
                                 f"not strictly increasing at x={b.x}"))

    pieces = []
    for i, praw in enumerate(_entries(spec, "pieces", out)):
        if not isinstance(praw, Mapping):
            out.append(Violation("BadSpec", f"pieces[{i}]", "piece must be an object"))
            continue
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
    for i, bp in zip(entry, bps):  # finite values, so equal ones are close
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
        elif not isinstance(traw, Mapping):
            out.append(Violation("BadSpec", "tail", "tail must be an object"))
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

    piece_check_pieces(pieces, tail, out)
    if out:
        raise ValidationError(out)
    return BvFunction(lo, hi, tuple(bps), tuple(pieces), tail)
