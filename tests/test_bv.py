import copy
import dataclasses
import json
import math
import pickle
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsum import (
    Breakpoint,
    DomainError,
    ValidationError,
    evaluate,
    jordan_decompose,
    limits,
    mid_value,
    pointwise_variation,
    rho,
    validate,
)
from bvsum import bv
from bvsum import expr as ex
from bvsum.bv import (
    EDGE_SAMPLES,
    FD_POINTS,
    FD_REL_TOL,
    MONO_SAMPLES,
    Certified,
    _end_points,
    _sample_points,
    _stencils,
    check_antiderivative,
)
from bvsum.euler_maclaurin import CheckReport, EmReport, GammaReport
from bvsum.measure import StieltjesResult
from conftest import CORPUS_DIR
from oracles import grid_variation
from ref_validate import (
    _EDGE_POW2,
    _LADDER_POW2,
    _MONO_I,
    piece_check_antiderivative,
    piece_sample_points,
    ref_validate,
)


def make_linear(lo=0.0, hi=10.0):
    return validate({
        "domain": {"lo": lo, "hi": hi},
        "pieces": [{"interval": [lo, hi], "expr": "x", "direction": "inc",
                    "left_limit": lo, "right_limit": hi,
                    "antiderivative": "x^2/2"}],
        "breakpoints": [],
    })


def make_step(value_at_jump=2.0):
    # constant 0 then 1 with the stored value at the jump possibly
    # outside the limit interval (rho > 0)
    return validate({
        "domain": {"lo": 0, "hi": 2},
        "pieces": [
            {"interval": [0, 1], "expr": "0", "direction": "const",
             "left_limit": 0, "right_limit": 0},
            {"interval": [1, 2], "expr": "1", "direction": "const",
             "left_limit": 1, "right_limit": 1},
        ],
        "breakpoints": [{"x": 1, "left": 0, "value": value_at_jump, "right": 1}],
    })


class TestValidate:
    def test_identity_function_is_valid(self):
        f = make_linear()
        assert len(f.pieces) == 1
        assert f.pieces[0].direction == "inc"

    def test_sin_declared_increasing_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 10},
                "pieces": [{"interval": [0, 10], "expr": "sin(x)",
                            "direction": "inc", "left_limit": 0,
                            "right_limit": math.sin(10.0)}],
                "breakpoints": [],
            })
        assert "NonMonotonePiece" in exc.value.kinds

    def test_breakpoint_piece_limit_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 2},
                "pieces": [
                    {"interval": [0, 1], "expr": "1", "direction": "const",
                     "left_limit": 1, "right_limit": 1},
                    {"interval": [1, 2], "expr": "1", "direction": "const",
                     "left_limit": 1, "right_limit": 1},
                ],
                "breakpoints": [{"x": 1, "left": 0, "value": 1, "right": 1}],
            })
        assert "InconsistentLimits" in exc.value.kinds

    def test_gap_in_partition(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 3},
                "pieces": [{"interval": [0, 1], "expr": "x", "direction": "inc",
                            "left_limit": 0, "right_limit": 1}],
                "breakpoints": [],
            })
        assert "BadPartition" in exc.value.kinds

    def test_half_line_without_tail(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": "inf"},
                "pieces": [{"interval": [0, "inf"], "expr": "1/(1+x)",
                            "direction": "dec", "left_limit": 1,
                            "right_limit": 0}],
                "breakpoints": [],
            })
        assert "MissingTail" in exc.value.kinds

    def test_wrong_antiderivative_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 10},
                "pieces": [{"interval": [0, 10], "expr": "x", "direction": "inc",
                            "left_limit": 0, "right_limit": 10,
                            "antiderivative": "x^3/3"}],
                "breakpoints": [],
            })
        assert "BadAntiderivative" in exc.value.kinds

    def test_bad_expression_reported_with_offset(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 1},
                "pieces": [{"interval": [0, 1], "expr": "log(", "direction": "inc",
                            "left_limit": 0, "right_limit": 1}],
                "breakpoints": [],
            })
        assert "BadExpression" in exc.value.kinds


# Scalar reference versions of the validation sampling, kept as oracles
# for the array code in bvsum.bv.


def ref_mono_sample_points(lo: float, hi: float) -> np.ndarray:
    if math.isinf(hi):
        w = max(1.0, abs(lo))
        pts = [lo + w * i / (MONO_SAMPLES + 1) for i in range(1, MONO_SAMPLES + 1)]
        pts += [lo + w * 2.0**j for j in range(0, 41)]
        pts += [lo + w * 2.0**-j for j in range(1, EDGE_SAMPLES + 1)]
    else:
        w = hi - lo
        pts = [lo + w * i / (MONO_SAMPLES + 1) for i in range(1, MONO_SAMPLES + 1)]
        for j in range(1, EDGE_SAMPLES + 1):
            off = w * 2.0**-j
            pts.append(lo + off)
            pts.append(hi - off)
    return np.array(sorted({p for p in pts if lo < p < hi and math.isfinite(p)}))


def ref_check_antiderivative(fe, F, lo: float, hi: float) -> float:
    if math.isinf(hi):
        w = max(1.0, abs(lo))
        xs = [lo + w * 2.0**j for j in range(-2, 2 * FD_POINTS - 2, 2)][:FD_POINTS]
    else:
        xs = list(np.linspace(lo, hi, FD_POINTS + 2)[1:-1])
    worst = 0.0
    for x in xs:
        h = max(abs(x), 1.0) * 1e-5
        if math.isfinite(hi):
            h = min(h, (hi - lo) * 1e-3)
        if x - h <= lo or (math.isfinite(hi) and x + h >= hi):
            continue
        est = (ex.eval_expr(F, x + h) - ex.eval_expr(F, x - h)) / (2.0 * h)
        ref = ex.eval_expr(fe, x)
        worst = max(worst, abs(est - ref) / (FD_REL_TOL * (1.0 + abs(ref))))
    return worst


def ref_batch_sample_points(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bv._sample_points as it built its rows before they were made in
    order: three parts, joined, then put in order by np.take."""
    lo, hi = lo[:, None], hi[:, None]
    half_line = math.isinf(hi[0, 0])
    with np.errstate(over="ignore"):
        if half_line:
            w = np.maximum(1.0, np.abs(lo))
            parts = (lo + w * _MONO_I / (MONO_SAMPLES + 1),
                     lo + w * _LADDER_POW2, lo + w * _EDGE_POW2)
        else:
            w = hi - lo
            off = w * _EDGE_POW2
            parts = (lo + w * _MONO_I / (MONO_SAMPLES + 1), lo + off, hi - off)
    pts = np.take(np.concatenate(parts, axis=1), bv._ORDER[half_line], axis=1)
    swapped = pts[:, 1:] < pts[:, :-1]
    if swapped.any():
        unsorted = swapped.any(axis=1)
        pts[unsorted] = np.sort(pts[unsorted], axis=1)
    n = pts.shape[1]
    first = (pts > lo).argmax(axis=1)
    last = n - 1 - (pts < hi)[:, ::-1].argmax(axis=1)
    at = np.arange(0, pts.size, n)
    flat = pts.reshape(-1)
    inside_lo, inside_hi = flat[at + first], flat[at + last]
    np.maximum(pts, inside_lo[:, None], out=pts)
    np.minimum(pts, inside_hi[:, None], out=pts)
    return pts, ~((lo[:, 0] < inside_lo) & (inside_lo < hi[:, 0]))


def batched_points(lo: float, hi: float) -> tuple[np.ndarray, bool]:
    [row], [empty] = _sample_points(np.array([lo]), np.array([hi]))
    return row, bool(empty)


def assert_same_points(lo: float, hi: float) -> np.ndarray:
    """The batched row of (lo, hi) is the reference's points, each
    repeated at least once, in increasing order."""
    want = ref_mono_sample_points(lo, hi)
    assert piece_sample_points(lo, hi).tobytes() == want.tobytes(), (lo, hi)
    row, empty = batched_points(lo, hi)
    assert empty == (len(want) == 0), (lo, hi)
    if len(want):
        assert row.dtype == np.float64
        assert np.all(row[1:] >= row[:-1]), (lo, hi)
        assert np.unique(row).tobytes() == want.tobytes(), (lo, hi)
    return want


def corpus_antiderivatives(corpus):
    """(name, f, F, lo, hi) for every piece and tail antiderivative."""
    for name, fn in corpus.items():
        for p in fn.pieces:
            if p.antiderivative is not None:
                yield name, p.evaluator, p.antiderivative, p.lo, p.hi
        if fn.tail is not None and fn.tail.antiderivative is not None:
            p = fn.pieces[-1]
            yield name + ":tail", p.evaluator, fn.tail.antiderivative, p.lo, p.hi


def _ulps_above(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


_LOS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300))


def assert_end_points(lo: float, hi: float) -> bool:
    """_end_points of (lo, hi) are the first and last of its sample
    points where it finds them; whether it does."""
    (x,), (known,) = _end_points(np.array([lo]), np.array([hi]))
    xs, (empty,) = _sample_points(np.array([lo]), np.array([hi]))
    if known:
        assert not empty and x.tolist() == [xs[0, 0], xs[0, -1]], (lo, hi)
    return bool(known)


class TestVectorValidation:
    @settings(max_examples=200, deadline=None)
    @given(_LOS, st.one_of(st.floats(1e-9, 1e9), st.floats(5e-324, 1e300)))
    def test_sample_points_match_reference(self, lo, width):
        hi = lo + width
        if not (lo < hi and math.isfinite(hi)):
            return
        assert_same_points(lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(_LOS, st.one_of(st.floats(1e-9, 1e9), st.floats(5e-324, 1e300),
                           st.integers(1, 3000), st.just(math.inf)))
    @example(1.0, 4)
    @example(-1e300, 2e300)  # the width overflows
    @example(1e300, math.inf)  # the ladder overflows
    @example(0.0, 5e-324)
    @example(1e6, 1e-9)
    def test_end_points_are_the_first_and_last_sample_points(self, lo, width):
        # a width given as an integer is that many ulps
        hi = (_ulps_above(lo, width) if isinstance(width, int) else
              math.inf if math.isinf(width) else lo + width)
        if lo < hi and not math.isnan(hi) and hi != -math.inf:
            assert_end_points(lo, hi)

    def test_end_points_are_found_on_common_pieces(self):
        for lo, hi in [(0.0, 1.0), (1.7, 2.3), (-5.0, 5.0), (1e6, 1e6 + 1.0), (3.0, math.inf),
                       (-1e6, math.inf), (0.0, 1e-300), (1.0, 1.0 + 2000 * math.ulp(1.0))]:
            assert assert_end_points(lo, hi), (lo, hi)
        # a few ulps wide: its points are sampled
        assert not assert_end_points(1.0, _ulps_above(1.0, 4))

    @settings(max_examples=200, deadline=None)
    @given(_LOS, st.integers(1, 3000))
    def test_sample_points_match_reference_on_tiny_widths(self, lo, ulps):
        # widths of a few ulps: lo + w*2^-j rounds back to lo and is dropped
        assert_same_points(lo, _ulps_above(lo, ulps))

    @settings(max_examples=200, deadline=None)
    @given(_LOS)
    def test_sample_points_match_reference_on_half_lines(self, lo):
        assert_same_points(lo, math.inf)

    def test_sample_points_edge_cases(self):
        tiny = assert_same_points(1.0, 1.0 + 4 * math.ulp(1.0))
        assert len(tiny) == 3
        assert len(assert_same_points(1.0, math.nextafter(1.0, 2.0))) == 0
        assert len(assert_same_points(-1e300, 1e300)) > 0  # width overflows
        assert len(assert_same_points(1e300, math.inf)) > 0  # ladder overflows
        for lo, hi in [(-5.0, 5.0), (0.0, math.inf), (-1e6, math.inf)]:
            assert_same_points(lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_LOS, st.one_of(st.floats(1e-6, 1e6), st.integers(1, 40))),
                    min_size=1, max_size=12))
    def test_rows_of_a_batch_are_the_lone_rows(self, intervals):
        # a width given as an integer is that many ulps
        los = np.array([lo for lo, _ in intervals])
        his = np.array([_ulps_above(lo, w) if isinstance(w, int) else lo + w
                        for lo, w in intervals])
        xs, empty = _sample_points(los, his)
        for row, e, lo, hi in zip(xs, empty, los, his):
            want_row, want_empty = batched_points(lo, hi)
            assert e == want_empty
            if not e:
                assert row.tobytes() == want_row.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.lists(st.one_of(
        # (lo, width): a width of a share of max(1, |lo|) down to 1e-18,
        # of a few ulps, or subnormal
        st.tuples(_LOS, st.floats(1e-18, 1e6).map(lambda r: ("share", r))),
        st.tuples(_LOS, st.integers(1, 3000).map(lambda n: ("ulps", n))),
        st.tuples(st.floats(-1e-300, 1e-300), st.integers(1, 1 << 20).map(lambda n: ("sub", n)))),
        min_size=1, max_size=40))
    def test_sample_points_are_the_reference_batch(self, half_line, rows):
        los, his = [], []
        for lo, (kind, k) in rows:
            hi = (lo + k * max(1.0, abs(lo)) if kind == "share" else
                  lo + k * math.ulp(lo) if kind == "ulps" else lo + k * 5e-324)
            if half_line:
                hi = math.inf
            elif not (lo < hi < math.inf):
                hi = math.nextafter(lo, math.inf)
            los.append(lo)
            his.append(hi)
        los, his = np.array(los), np.array(his)
        xs, empty = _sample_points(los, his)
        want_xs, want_empty = ref_batch_sample_points(los, his)
        assert xs.tobytes() == want_xs.tobytes()
        assert empty.tobytes() == want_empty.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300)),
           st.one_of(st.floats(1e-12, 1e6), st.floats(5e-324, 1e-300), st.integers(1, 40)))
    def test_stencil_points_are_linspace_row_by_row(self, lo, width):
        hi = _ulps_above(lo, width) if isinstance(width, int) else lo + width
        if not (lo < hi and math.isfinite(hi)):
            return
        step = np.linspace(lo, hi, FD_POINTS + 2)[1:-1]
        other = (-1.0, 3.0)  # a second row that does not step by zero
        xs, h, empty = _stencils(np.array([lo, other[0]]), np.array([hi, other[1]]))
        kept = np.unique(xs[0])
        with np.errstate(all="ignore"):
            hs = np.minimum(np.maximum(np.abs(step), 1.0) * 1e-5, (hi - lo) * 1e-3)
            keep = ~((step - hs <= lo) | (step + hs >= hi))
        assert empty[0] == (not keep.any())
        if keep.any():
            assert kept.tobytes() == np.unique(step[keep]).tobytes()

    def test_corpus_antiderivative_scores_match_reference(self, corpus):
        # scores may differ by evaluator ulps amplified by the quotient's
        # 1/(2h) and 1/FD_REL_TOL; the verdict (> 1) must not
        for name, fe, F, lo, hi in corpus_antiderivatives(corpus):
            got = check_antiderivative(fe, F, lo, hi)
            want = ref_check_antiderivative(fe, F, lo, hi)
            assert (got > 1.0) == (want > 1.0), name
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), name
            assert got <= 1.0, name
            assert got == piece_check_antiderivative(fe, F, lo, hi), name

    def test_corpus_wrong_antiderivatives_fail_both_checks(self, corpus):
        for name, fe, F, lo, hi in corpus_antiderivatives(corpus):
            wrong = ex.Bin("+", F, ex.Bin("*", ex.Var(), ex.Var()))
            assert check_antiderivative(fe, wrong, lo, hi) > 1.0, name
            assert ref_check_antiderivative(fe, wrong, lo, hi) > 1.0, name

    def test_all_points_skipped_scores_zero(self):
        # on a piece one ulp wide every stencil reaches an end
        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        x = ex.Var()
        assert check_antiderivative(x, ex.parse("x^2/2"), lo, hi) == 0.0
        assert ref_check_antiderivative(x, ex.parse("x^2/2"), lo, hi) == 0.0

    def test_failing_rows_of_one_batch_keep_the_error_priority(self):
        # one batch, one plan: F(x + h), F(x - h) and f(x) of every check
        # run together, and a check's error is that of F(x + h), else of
        # F(x - h), else of f, as each check alone raises it
        lo, hi = 0.0, 10.0
        xs = np.linspace(lo, hi, FD_POINTS + 2)[1:-1]
        h = np.minimum(np.maximum(np.abs(xs), 1.0) * 1e-5, (hi - lo) * 1e-3).tolist()
        xs = xs.tolist()
        up_bad, down_bad = xs[2] + h[2] / 2, xs[0]  # F fails past or below these
        checks = [
            ("x", f"sqrt({up_bad!r}-x)"),  # F(x + h) fails at xs[2] first
            (f"log(x-{xs[5]!r})", f"sqrt(x-{down_bad!r})"),  # F(x - h) and f fail
            (f"log(x-{xs[3]!r})", "x^2/2"),  # f fails
            ("log(x-100)", f"sqrt({xs[4]!r}-x)+sqrt(x-{down_bad!r})"),  # all three
            ("x", "x^2/2"),  # none
        ]
        checks = [(ex.parse(fe), ex.parse(F), lo, hi) for fe, F in checks]
        n = len(checks)
        plan = ex.rows_of([F for _, F, _, _ in checks] + [fe for fe, _, _, _ in checks])
        scores = bv._antiderivative_scores(plan, np.arange(n), np.arange(n, 2 * n),
                                           np.array([lo] * n), np.array([hi] * n))
        for score, (fe, F, _, _) in zip(scores, checks):
            try:
                want = piece_check_antiderivative(fe, F, lo, hi)
            except ex.EvalError as err:
                want = err
            if isinstance(want, ex.EvalError):
                assert isinstance(score, ex.EvalError)
                assert (score.kind, score.x) == (want.kind, want.x)
            else:
                assert score == want
        up, down, f, both, fine = scores
        assert (up.kind, up.x) == ("sqrt_domain", xs[2] + h[2])
        assert (down.kind, down.x) == ("sqrt_domain", xs[0] - h[0])
        assert f.kind == "log_domain" and f.x == xs[0]
        assert (both.kind, both.x) == ("sqrt_domain", xs[4] + h[4])
        assert fine <= 1.0

    def test_failing_antiderivative_evaluation_is_bad_antiderivative(self):
        fe, F = ex.Var(), ex.parse("log(x-5)")
        with pytest.raises(ex.EvalError):
            check_antiderivative(fe, F, 0.0, 10.0)
        with pytest.raises(ex.EvalError):
            ref_check_antiderivative(fe, F, 0.0, 10.0)
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": 10},
                "pieces": [{"interval": [0, 10], "expr": "x", "direction": "inc",
                            "left_limit": 0, "right_limit": 10,
                            "antiderivative": "log(x-5)"}],
                "breakpoints": [],
            })
        [v] = exc.value.violations
        assert (v.kind, v.where) == ("BadAntiderivative", "pieces[0]")
        assert "antiderivative failed" in v.message

    def test_failing_tail_antiderivative_is_bad_antiderivative(self):
        with pytest.raises(ValidationError) as exc:
            validate({
                "domain": {"lo": 0, "hi": "inf"},
                "pieces": [{"interval": [0, "inf"], "expr": "exp(-x)",
                            "direction": "dec", "left_limit": 1, "right_limit": 0}],
                "breakpoints": [],
                "tail": {"limit": 0, "antiderivative": "log(x-5)",
                         "antiderivative_limit": 0},
            })
        [v] = exc.value.violations
        assert (v.kind, v.where) == ("BadAntiderivative", "tail")
        assert "antiderivative failed" in v.message

    def test_wrong_tail_antiderivative_is_bad_antiderivative(self):
        spec = {
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [{"interval": [0, "inf"], "expr": "exp(-x)",
                        "direction": "dec", "left_limit": 1, "right_limit": 0}],
            "breakpoints": [],
            "tail": {"limit": 0, "antiderivative": "-exp(-2*x)",
                     "antiderivative_limit": 0},
        }
        with pytest.raises(ValidationError) as exc:
            validate(spec)
        [v] = exc.value.violations
        assert (v.kind, v.where) == ("BadAntiderivative", "tail")
        assert v.message == "difference quotients of the antiderivative do not match"
        spec["tail"]["antiderivative"] = "-exp(-x)"
        assert validate(spec).tail.antiderivative == ex.parse("-exp(-x)")

    @pytest.mark.parametrize("text", ["1e400", "-1e400"])
    def test_antiderivative_of_infinite_values_is_bad_antiderivative(self, text):
        # its difference quotients are inf - inf, NaN at finite points
        spec = {
            "domain": {"lo": 0, "hi": 4},
            "pieces": [{"interval": [0, 4], "expr": "1/(1+x)", "direction": "dec",
                        "left_limit": 1, "right_limit": 0.2, "antiderivative": text}],
            "breakpoints": [],
        }
        F = ex.parse(text)
        assert check_antiderivative(ex.parse("1/(1+x)"), F, 0.0, 4.0) == math.inf
        assert piece_check_antiderivative(ex.parse("1/(1+x)"), F, 0.0, 4.0) == math.inf
        with pytest.raises(ValidationError) as exc:
            validate(spec)
        [v] = exc.value.violations
        assert (v.kind, v.where) == ("BadAntiderivative", "pieces[0]")
        assert v.message == "difference quotients of the antiderivative do not match"
        assert_as_reference(spec)

    def test_overflowing_stencil_points_are_skipped(self):
        # a ladder's far points overflow to inf, where F is inf - inf: NaN
        # scores there are no mismatch
        lo = 1e300
        with np.errstate(all="ignore"):
            xs = lo + lo * _LADDER_POW2
        assert not np.isfinite(xs).all()
        F, fe = ex.parse("x"), ex.parse("1")
        assert check_antiderivative(fe, F, lo, math.inf) < 1.0
        assert piece_check_antiderivative(fe, F, lo, math.inf) < 1.0

    def test_piece_without_sample_points_is_not_sampled(self):
        # the middle piece is one ulp wide: no point lies inside it
        a = 1.0
        b = math.nextafter(a, 2.0)
        f = validate({
            "domain": {"lo": 0, "hi": 2},
            "pieces": [
                {"interval": [0, a], "expr": "x", "direction": "inc",
                 "left_limit": 0, "right_limit": a},
                {"interval": [a, b], "expr": "x", "direction": "inc",
                 "left_limit": a, "right_limit": b},
                {"interval": [b, 2], "expr": "x", "direction": "inc",
                 "left_limit": b, "right_limit": 2},
            ],
            "breakpoints": [{"x": a, "left": a, "value": a, "right": a},
                            {"x": b, "left": b, "value": b, "right": b}],
        })
        assert len(f.pieces) == 3


# Random specs for the differential test of the batched piece checks:
# expressions of a few shapes, so that pieces share programs and batches,
# with constants that make some pieces fail.
_SHAPES = [
    ("{a}*x+{b}", "{a}*x^2/2+{b}*x"),
    ("{a}*exp({b}*x)", "{a}/{b}*exp({b}*x)"),
    ("{a}+sin({b}*x)", "{a}*x-cos({b}*x)/{b}"),
    ("{a}/(x-{b})", "{a}*log(x-{b})"),
    ("sqrt(x-{b})*{a}", "{a}*2/3*(x-{b})^(3/2)"),
    ("log(x+{b})", "(x+{b})*log(x+{b})-x"),
    ("atan({a}*x)+{b}", "x*atan({a}*x)"),
    ("floor({a}*x)", "{b}*x"),
    ("{a}", "{a}*x"),
    ("x^{a}", "x^({a}+1)/({a}+1)"),
]


def _limit_of(text: str, x: float, fallback: float) -> float:
    try:
        return ex.eval_expr(ex.parse(text), x)
    except ex.EvalError:
        return fallback


@st.composite
def piece_specs(draw):
    """A spec whose pieces tile the domain, with breakpoints that match
    their limits, but whose pieces may be non-monotone, leave their
    limits, fail to evaluate, carry wrong antiderivatives, be a few ulps
    wide or run to infinity."""
    lo = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6, 1e-300]))
    cuts = [lo]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            cuts.append(_ulps_above(cuts[-1], draw(st.integers(1, 30))))
        else:
            cuts.append(cuts[-1] + draw(st.sampled_from([1e-9, 0.5, 1.0, 3.0, 1e3])))
    half_line = draw(st.booleans())
    ends = cuts[1:] + ([math.inf] if half_line else [])
    pieces, bps = [], []
    for i, (p, q) in enumerate(zip(cuts, ends)):
        shape, anti = draw(st.sampled_from(_SHAPES))
        consts = {"a": draw(st.sampled_from([1.0, -2.0, 0.5, 3.0])),
                  "b": draw(st.sampled_from([1.0, -1.0, 0.25, p + 0.1, 2.0]))}
        text = shape.format(**consts)
        # the limits the expression takes, perturbed at times
        left = _limit_of(text, p, 0.0) + draw(st.sampled_from([0.0, 0.0, 1e-3, -5.0]))
        right = (_limit_of(text, q, 1.0) if math.isfinite(q) else
                 draw(st.sampled_from([0.0, 1.0, left])))
        piece = {"interval": [p, "inf" if math.isinf(q) else q], "expr": text,
                 "direction": draw(st.sampled_from(["inc", "dec", "const"])),
                 "left_limit": left, "right_limit": right}
        if draw(st.booleans()):
            piece["antiderivative"] = draw(st.sampled_from([anti, "x^2", "exp(x)"])).format(
                **consts)
        pieces.append(piece)
        if i:
            prev = pieces[i - 1]["right_limit"]
            bps.append({"x": p, "left": prev, "value": prev, "right": left})
    spec = {"domain": {"lo": lo, "hi": "inf" if half_line else cuts[-1]},
            "pieces": pieces, "breakpoints": bps}
    if half_line:
        spec["tail"] = {"limit": pieces[-1]["right_limit"],
                        "antiderivative": draw(st.sampled_from(["-exp(-x)", "log(x-1)",
                                                                "x", "-1/x"])),
                        "antiderivative_limit": 0.0}
    return spec


def _validated(spec, check=validate):
    try:
        return "ok", check(spec)
    except ValidationError as e:
        return "violations", [(v.kind, v.where, v.message) for v in e.violations]


class TestBatchedValidation:
    @settings(max_examples=150, deadline=None)
    @given(piece_specs(), st.sampled_from([1 << 15, 4000, 1]))
    def test_validate_as_per_piece_checks(self, spec, batch):
        # a smaller batch splits the pieces of one shape across batches
        with mock.patch.object(bv, "_BATCH", batch):
            got = _validated(spec)
        assert got == _validated(spec, ref_validate)

    def test_corpus_and_broken_corpus_as_per_piece_checks(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.json")):
            spec = json.loads(path.read_text())
            broken = json.loads(path.read_text())
            for p in broken["pieces"]:
                p["direction"] = {"inc": "dec", "dec": "const", "const": "inc"}[p["direction"]]
                p["left_limit"] = p["left_limit"] + 0.5
                if p.get("antiderivative"):
                    p["antiderivative"] = "x^3"
            for s in (spec, broken):
                assert _validated(s) == _validated(s, ref_validate), path.name


# A malformed spec is a list of violations, never a traceback: a piece,
# breakpoint or tail that is not an object, pieces or breakpoints that are
# not a list, and a number that is a bool or too large for a float are each
# a BadSpec.
def _two_pieces(tail=None):
    """Two valid pieces on [0, 2], or on a half-line with tail if given."""
    spec = {"domain": {"lo": 0, "hi": 2},
            "pieces": [{"interval": [0, 1], "expr": "x", "direction": "inc",
                        "left_limit": 0, "right_limit": 1, "antiderivative": "x^2/2"},
                       {"interval": [1, 2], "expr": "2", "direction": "const",
                        "left_limit": 2, "right_limit": 2}],
            "breakpoints": [{"x": 1, "left": 1, "value": 1.5, "right": 2}]}
    if tail is not None:
        spec["domain"]["hi"] = "inf"
        spec["pieces"][1]["interval"][1] = "inf"
        spec["tail"] = tail
    return spec


def _violations(spec) -> list:
    with pytest.raises(ValidationError) as exc:
        validate(spec)
    return [(v.kind, v.where, v.message) for v in exc.value.violations]


class TestMalformedSpecs:
    @pytest.mark.parametrize("entry", [5, None, "piece", [0, 1]])
    def test_piece_that_is_not_an_object(self, entry):
        spec = _two_pieces()
        spec["pieces"][1] = entry
        assert ("BadSpec", "pieces[1]", "piece must be an object") in _violations(spec)

    @pytest.mark.parametrize("entry", [5, None, "bp", [1, 1, 1, 1]])
    def test_breakpoint_that_is_not_an_object(self, entry):
        spec = _two_pieces()
        spec["breakpoints"].append(entry)
        assert _violations(spec) == [("BadSpec", "breakpoints[1]",
                                      "breakpoint must be an object")]

    def test_breakpoint_named_by_its_entry_in_the_spec(self):
        # an entry left out before it does not shift its index
        spec = _two_pieces()
        spec["breakpoints"][0]["right"] = 3
        spec["breakpoints"].insert(0, {"x": 7, "left": 0, "value": 0, "right": 0})
        want = [("BadPartition", "breakpoints[0]", "breakpoint x=7.0 outside domain"),
                ("InconsistentLimits", "breakpoints[1]", "right value 3.0 != piece limit 2.0")]
        assert _violations(spec) == want == _validated(spec, ref_validate)[1]

    @pytest.mark.parametrize("name", ["pieces", "breakpoints"])
    @pytest.mark.parametrize("value", [None, 5, "x", {"x": 1}])
    def test_entries_that_are_not_a_list(self, name, value):
        spec = _two_pieces()
        spec[name] = value
        assert ("BadSpec", name, f"{name} must be a list") in _violations(spec)

    @pytest.mark.parametrize("tail", [3, "tail", [0.0]])
    def test_tail_that_is_not_an_object(self, tail):
        assert _violations(_two_pieces(tail=tail)) == [("BadSpec", "tail",
                                                        "tail must be an object")]

    @pytest.mark.parametrize("field,where", [
        (("pieces", 0, "left_limit"), "pieces[0].left_limit"),
        (("pieces", 1, "interval", 0), "pieces[1].interval"),
        (("breakpoints", 0, "value"), "breakpoints[0].value"),
        (("domain", "hi"), "domain.hi")])
    @pytest.mark.parametrize("value,message", [
        (True, "expected a number, got True"),
        (False, "expected a number, got False"),
        (10 ** 400, "expected a number, got an integer too large for a float")])
    def test_number_that_is_a_bool_or_too_large(self, field, where, value, message):
        spec = _two_pieces()
        place = spec
        for key in field[:-1]:
            place = place[key]
        place[field[-1]] = value
        assert ("BadSpec", where, message) in _violations(spec)


# A piece whose lo is not finite, or not below its hi, fails the partition
# and is neither sampled nor checked against its antiderivative: no
# floating-point warning, no violation but the partition's.
class TestUnusableIntervals:
    @pytest.mark.parametrize("interval", [["inf", 1], ["-inf", 1], [1, 0], [1, 1],
                                          [1, "-inf"], ["inf", "inf"]])
    def test_reported_by_the_partition_alone(self, interval):
        spec = _two_pieces()
        spec["pieces"][0]["interval"] = interval
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _violations(spec)
        assert [kind for kind, *_ in got] == ["BadPartition"]
        assert got == _validated(spec, ref_validate)[1]

    def test_stencil_ladder_past_overflow_warns_nothing(self):
        # the ladder lo + lo*4^j of a half-line from 1e300 reaches inf, and
        # its steps inf - inf are NaN: the check fails on F's overflow
        const = {"expr": "2", "direction": "const", "left_limit": 2, "right_limit": 2}
        spec = {"domain": {"lo": 0, "hi": "inf"},
                "pieces": [{"interval": [0, 1e300], **const},
                           {"interval": [1e300, "inf"], **const, "antiderivative": "2*x"}],
                "breakpoints": [{"x": 1e300, "left": 2, "value": 2, "right": 2}],
                "tail": {"limit": 2, "antiderivative": "2*x", "antiderivative_limit": "inf"}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _violations(spec)
        assert [(kind, where) for kind, where, _ in got] == [
            ("BadAntiderivative", "pieces[1]"), ("BadAntiderivative", "tail")]
        assert all("overflow" in message for *_, message in got)

    def test_half_line_tail_not_checked_on_an_unusable_piece(self):
        spec = _two_pieces(tail={"limit": 2, "antiderivative": "2*x",
                                 "antiderivative_limit": "inf"})
        spec["pieces"][1]["interval"] = ["inf", "inf"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _violations(spec)
        assert [kind for kind, *_ in got] == ["BadPartition"]


# The column loader against the per-piece one (ref_validate): a valid spec
# with one field corrupted at random gives the same violations, in the
# same order; a valid spec gives a function that compares, hashes and
# pickles as the reference's, whose trees are made only when read.

_SHAPE_PIECES = [  # (expr, antiderivative or None), in a, b, c, p
    ("{a}+{b}*(x-{p})", "{a}*x+{b}*(x-{p})^2/2"),
    ("{a}+{b}*exp({c}*(x-{p}))", "{a}*x+{b}/{c}*exp({c}*(x-{p}))"),
    ("{a}+{b}*sqrt((x-{p})+{c})", None),
    ("{a}+{b}*atan({c}*(x-{p}))", None),
    ("{a}+{b}/(1+{c}*(x-{p}))", "{a}*x+{b}/{c}*log(1+{c}*(x-{p}))"),
]


@st.composite
def pool_like_specs(draw):
    """A valid spec of 2 to 40 monotone pieces of a few shapes, each met
    again with other constants, some with antiderivatives, joined by
    breakpoints at their limits."""
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    cuts = [k / 8 for k in range(n + 1)]
    pieces, bps = [], []
    for p, q in zip(cuts, cuts[1:]):
        text, anti = rng.choice(_SHAPE_PIECES)
        sign = rng.choice((1, -1))
        c = {"a": round(rng.uniform(-1, 1), 3), "b": sign * round(rng.uniform(0.01, 0.1), 4),
             "c": round(rng.uniform(0.5, 3), 3), "p": p}
        e = text.format(**c)
        left, right = (ex.eval_expr(ex.parse(e), v) for v in (p, q))
        piece = {"interval": [p, q], "expr": e, "direction": "inc" if sign > 0 else "dec",
                 "left_limit": left, "right_limit": right}
        if anti and rng.random() < 0.6:
            piece["antiderivative"] = anti.format(**c)
        if pieces:
            prev = pieces[-1]["right_limit"]
            bps.append({"x": p, "left": prev, "value": rng.choice((prev, left)), "right": left})
        pieces.append(piece)
    return {"domain": {"lo": 0, "hi": cuts[-1]}, "pieces": pieces, "breakpoints": bps}


def _corpus_specs():
    return [json.loads(path.read_text()) for path in sorted(CORPUS_DIR.glob("*.json"))]


_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1e300, -7.25,
                            "1.5", "nan", "inf", "-inf", " 2 ", "x", True, False, None,
                            10 ** 400, [1.0], {"v": 1}])
_TEXTS = st.sampled_from(["log(", "x+", "y*x", "1e999*x", "x^2", "exp(x)", "", 5, None,
                          "sqrt(x-1e9)", "(" * 120 + "x" + ")" * 120])


@st.composite
def corrupted(draw, spec):
    """spec with one field replaced: a number, an expression, a
    direction, a limit, an interval, a breakpoint or the tail."""
    spec = copy.deepcopy(spec)
    pieces, bps = spec["pieces"], spec["breakpoints"]
    part = draw(st.sampled_from(["number", "text", "direction", "limit", "interval",
                                 "breakpoint", "tail", "structure"]))
    i = draw(st.integers(0, len(pieces) - 1))
    piece = pieces[i]
    if part == "number":
        fields = [(piece, "left_limit"), (piece, "right_limit"), (piece["interval"], 0),
                  (piece["interval"], 1), *((bp, k) for bp in bps[:3] for k in _BP_KEYS)]
        place, key = draw(st.sampled_from(fields))
        place[key] = draw(_NUMBERS)
    elif part == "text":
        piece[draw(st.sampled_from(["expr", "antiderivative"]))] = draw(_TEXTS)
    elif part == "direction":
        piece["direction"] = draw(st.sampled_from(["inc", "dec", "const", "up", None, 3]))
    elif part == "limit":
        key = draw(st.sampled_from(["left_limit", "right_limit"]))
        value = piece[key] if isinstance(piece[key], float) else 0.0
        piece[key] = value + draw(st.sampled_from([1e-12, 1e-3, -0.5, 2.0]))
    elif part == "interval":
        piece["interval"] = draw(st.sampled_from(
            [piece["interval"][::-1], [piece["interval"][0]], "ab", None, 3,
             [piece["interval"][0], piece["interval"][0]], ["inf", 1], ["-inf", "inf"],
             [piece["interval"][0], "inf"]]))
    elif part == "breakpoint" and bps:
        j = draw(st.integers(0, len(bps) - 1))
        change = draw(st.sampled_from(["move", "drop", "copy", "object"]))
        if change == "move":
            bps[j]["x"] = draw(st.sampled_from([-1.0, 1e9, bps[0]["x"], 0.0625]))
        elif change == "drop":
            del bps[j]
        elif change == "copy":
            bps.insert(j, dict(bps[j]))
        else:
            bps[j] = draw(st.sampled_from([None, 5, "bp"]))
    elif part == "tail":
        spec["domain"]["hi"] = "inf"
        pieces[-1]["interval"][1] = "inf"
        spec["tail"] = draw(st.sampled_from([
            None, 3, {}, {"limit": "x"}, {"limit": pieces[-1]["right_limit"]},
            {"limit": pieces[-1]["right_limit"], "antiderivative": "x"},
            {"limit": pieces[-1]["right_limit"], "antiderivative": "log(",
             "antiderivative_limit": 0.0},
            {"limit": 0.0, "antiderivative": "-exp(-x)", "antiderivative_limit": 0.0}]))
        if spec["tail"] is None:
            del spec["tail"]
    elif part == "structure":
        where = draw(st.sampled_from(["pieces", "breakpoints", "piece"]))
        if where == "piece":
            pieces[i] = draw(st.sampled_from([None, 5, "piece", []]))
        else:
            spec[where] = draw(st.sampled_from([None, 5, "x", {}]))
    return spec


_BP_KEYS = ("x", "left", "value", "right")


def assert_as_reference(spec):
    got = _validated(spec)
    want = _validated(spec, ref_validate)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    # the keys of every text are met now: both make their trees with the
    # texts' templates, so their pickles share the same strings
    f, ref = _validated(spec)[1], _validated(spec, ref_validate)[1]
    assert all("evaluator" not in vars(p) for p in f.pieces)  # no tree yet
    assert f.tail is None or vars(f.tail).get("antiderivative") is None
    assert f == ref and ref == f and hash(f) == hash(ref)
    assert pickle.dumps(f) == pickle.dumps(ref)
    for p, raw in zip(f.pieces, spec["pieces"]):
        assert p.evaluator == ex.parse(raw["expr"])
        if raw.get("antiderivative") is not None:
            assert p.antiderivative == ex.parse(raw["antiderivative"])


# Pieces that the monotonicity rule (expr._monotone) covers, or nearly:
# validate proves those it can from their first and last sample points and
# samples the others, and must give the violations and the function of
# the reference, which samples all.  The pieces go the wrong way, leave
# limits that are off, divide by or raise a base that crosses zero,
# overflow at one end, end at, just past or one branch past an extremum
# of sin or cos, are a few ulps wide or run to infinity.

_RULE_SHAPES = ["{a}*x+{b}", "{a}*exp({b}*(x-{c}))", "{a}/(x-{c})", "{a}*(x-{c})^{k}",
                "{a}*pow(x-{c},{k})+{b}", "{a}*sin(x-{c})+{b}", "{a}*cos(x-{c})",
                "{a}*abs(x-{c})", "sqrt(abs(x-{c}))", "{a}*sin({b}*abs(x-{c}))",
                "exp(cos(x-{c}))", "{a}+0*x", "{a}"]
_OFFSETS = [0.0, 0.0, 5e-9, -5e-9, 2e-8, -2e-8, 1e-3, math.pi, -math.pi]


@st.composite
def rule_specs(draw):
    lo = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6]))
    cuts = [lo]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 5)) == 0:
            cuts.append(_ulps_above(cuts[-1], draw(st.integers(1, 30))))
        else:
            cuts.append(cuts[-1] + draw(st.sampled_from([1e-9, 0.5, 1.5, 3.0, math.pi])))
    half_line = draw(st.booleans())
    ends = cuts[1:] + ([math.inf] if half_line else [])
    pieces, bps = [], []
    for i, (p, q) in enumerate(zip(cuts, ends)):
        top = q if math.isfinite(q) else p + 2.0
        # c: an end, the middle, or where sin(x - c) or cos(x - c) turns
        # at an end, each moved by an offset
        c = draw(st.sampled_from([p, top, 0.5 * (p + top), top - math.pi / 2, p + math.pi / 2]))
        c += draw(st.sampled_from(_OFFSETS))
        consts = {"a": draw(st.sampled_from([1.0, -2.0, 1e-3, 0.0])),
                  "b": draw(st.sampled_from([1.0, -0.5, 700.0, 710.0])), "c": repr(c),
                  "k": draw(st.sampled_from([2, -1, 0.5, -2, 3]))}
        text = draw(st.sampled_from(_RULE_SHAPES)).format(**consts)
        left = _limit_of(text, p, 0.0) + draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3, -5.0]))
        right = (_limit_of(text, q, 1.0) + draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3, -5.0]))
                 if math.isfinite(q) else draw(st.sampled_from([0.0, left])))
        # the direction of the limits, or any
        direction = draw(st.sampled_from(["inc", "dec", "const", None, None, None]))
        if direction is None:
            direction = "inc" if left < right else "dec" if left > right else "const"
        pieces.append({"interval": [p, "inf" if math.isinf(q) else q], "expr": text,
                       "direction": direction, "left_limit": left, "right_limit": right})
        if i:
            prev = pieces[i - 1]["right_limit"]
            bps.append({"x": p, "left": prev, "value": prev, "right": left})
    spec = {"domain": {"lo": lo, "hi": "inf" if half_line else cuts[-1]},
            "pieces": pieces, "breakpoints": bps}
    if half_line:
        spec["tail"] = {"limit": pieces[-1]["right_limit"]}
    return spec


def _sin_arches(n: int, width: float) -> dict:
    """A valid spec of n half-period sin pieces, alternately rising and
    falling, each ending at its extremum, as the pool's do."""
    pieces = []
    for k in range(n):
        p, q = k * width, (k + 1) * width
        s = math.pi / width
        sign = "-" if k % 2 == 0 else "+"
        text = f"0.25+0.5*sin({s!r}*(x-{p!r}){sign}{math.pi / 2!r})"
        left, right = (ex.eval_expr(ex.parse(text), v) for v in (p, q))
        pieces.append({"interval": [p, q], "expr": text,
                       "direction": "inc" if k % 2 == 0 else "dec",
                       "left_limit": left, "right_limit": right})
    bps = [{"x": pc["interval"][0], "left": prev["right_limit"], "value": prev["right_limit"],
            "right": pc["left_limit"]} for prev, pc in zip(pieces, pieces[1:])]
    return {"domain": {"lo": 0.0, "hi": n * width}, "pieces": pieces, "breakpoints": bps}


class TestProvedMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(rule_specs(), st.sampled_from([1 << 15, 4000, 1]))
    def test_proof_gives_the_reference_violations(self, spec, batch):
        # a smaller batch splits the pieces of one shape across batches
        with mock.patch.object(bv, "_BATCH", batch):
            assert_as_reference(spec)

    def test_pieces_proved_are_recorded_and_not_sampled(self):
        sampled = []
        real = bv._sample_points

        def sample_points(lo, hi):
            sampled.append(len(lo))
            return real(lo, hi)

        spec = _sin_arches(12, 0.75)
        with mock.patch.object(bv, "_sample_points", sample_points):
            f = validate(spec)
        assert f.columns.proved.all() and not sampled
        # one piece past its extremum, one leaving its limits: both are
        # sampled, and found by sampling
        spec["pieces"][3]["expr"] = spec["pieces"][3]["expr"].replace("+1.57", "+1.6")
        spec["pieces"][5]["left_limit"] = spec["breakpoints"][4]["right"] = 0.7
        with mock.patch.object(bv, "_sample_points", sample_points):
            got = _validated(spec)
        assert sum(sampled) == 2
        assert [(kind, where) for kind, where, _ in got[1]] == [
            ("NonMonotonePiece", "pieces[3]"), ("InconsistentLimits", "pieces[5]")]
        assert got == _validated(spec, ref_validate)

    def test_pieces_the_rule_cannot_prove_are_sampled(self):
        spec = _sin_arches(4, 0.75)
        spec["pieces"][1]["expr"] = "0.75-0.5*x*x/x+0*sin(x)*cos(x)"
        left, right = (ex.eval_expr(ex.parse(spec["pieces"][1]["expr"]), v) for v in (0.75, 1.5))
        spec["pieces"][1].update(left_limit=left, right_limit=right, direction="dec")
        spec["breakpoints"][0].update(right=left)
        spec["breakpoints"][1].update(left=right, value=right)
        f = validate(spec)
        assert f.columns.proved.tolist() == [True, False, True, True]
        assert_as_reference(spec)

    def test_plan_the_rule_cannot_prove_is_only_sampled(self):
        # the rule covers no program: no array is made for the proof
        f = validate({"domain": {"lo": 0, "hi": 1}, "pieces": [
            {"interval": [0, 1], "expr": "x*x/x", "direction": "inc",
             "left_limit": 0, "right_limit": 1}]})
        assert f.columns.plan.provable(np.arange(1)) is None
        assert not f.columns.proved.any()

    def test_function_made_otherwise_proves_nothing(self):
        f = jordan_decompose(validate(_sin_arches(3, 1.0)))[0]
        assert f.columns.proved.tolist() == [False] * 3


class TestColumnLoader:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupted_corpus_spec_as_reference(self, data):
        spec = data.draw(st.sampled_from(_corpus_specs()))
        assert_as_reference(data.draw(corrupted(spec)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupted_pool_spec_as_reference(self, data):
        spec = data.draw(pool_like_specs())
        assert_as_reference(data.draw(corrupted(spec)))

    @settings(max_examples=20, deadline=None)
    @given(pool_like_specs())
    def test_valid_pool_spec_as_reference(self, spec):
        assert_as_reference(spec)

    def test_corpus_as_reference(self):
        for spec in _corpus_specs():
            assert_as_reference(spec)

    def test_piece_pickles_its_fields_as_the_dataclass(self):
        # a piece made by its constructor pickles its __dict__, as the
        # frozen dataclass without __getstate__ did
        p = bv.MonotonePiece(0.0, 1.0, ex.parse("x"), "inc", 0.0, 1.0)
        assert bv.MonotonePiece.__getstate__(p) == vars(p)
        assert list(bv.MonotonePiece.__getstate__(p)) == list(vars(p))
        copied = pickle.loads(pickle.dumps(p))
        assert copied == p and vars(copied) == vars(p)

    def test_trees_made_on_first_read(self):
        f = make_linear()
        p = f.pieces[0]
        assert "evaluator" not in vars(p) and "antiderivative" not in vars(p)
        assert p.compiled(2.5) == 2.5 and list(p.block(0, 3)) == [0.0, 1.0, 2.0]
        assert "evaluator" not in vars(p)  # the kernels came from its texts
        e = p.evaluator
        assert e == ex.parse("x") and vars(p)["evaluator"] is e and p.evaluator is e
        assert p.antiderivative == ex.parse("x^2/2")

    def test_tail_tree_made_on_first_read(self):
        tail = validate(json.loads((CORPUS_DIR / "harmonic.json").read_text())).tail
        assert "antiderivative" not in vars(tail)
        e = tail.antiderivative
        assert e == ex.parse("log(1+x)") and vars(tail)["antiderivative"] is e
        state = bv.TailSpec.__getstate__(tail)
        assert list(state) == ["limit_at_infinity", "antiderivative", "antiderivative_limit"]
        made = bv.TailSpec(*state.values())
        assert made == tail and pickle.dumps(made) == pickle.dumps(tail)

    def test_variation_request_makes_no_tree(self, capsys, monkeypatch):
        from bvsum import cli

        made = []
        real = ex.Parsed.tree
        monkeypatch.setattr(ex.Parsed, "tree", lambda self, i: made.append(i) or real(self, i))
        for name, lo, hi in (("mixed_jumps.json", 0.3, 7.7), ("sin_arches.json", 0.1, 5.2),
                             ("harmonic.json", 0.5, 12.25)):
            code = cli.main(["variation", str(CORPUS_DIR / name), "--lo", str(lo),
                             "--hi", str(hi), "--json"])
            assert code == 0
        capsys.readouterr()
        assert made == []  # harmonic's tail antiderivative too is made on first read

    def test_golden_matrix_requests_make_no_tree(self, tmp_path, monkeypatch):
        # every command kind of the golden matrix, on every corpus spec and
        # the copies without piece antiderivatives: sum, series, gamma,
        # convergence, and verify with midvalue, parts and pvv
        from test_cli_matrix import REPO, matrix, run

        made = []
        real = ex.Parsed.tree
        monkeypatch.setattr(ex.Parsed, "tree", lambda self, i: made.append(i) or real(self, i))
        monkeypatch.chdir(REPO)
        requests = matrix(tmp_path)
        kinds = {argv[0] if argv[0] != "verify" else argv[3] for argv in requests.values()}
        assert kinds == {"variation", "sum", "series", "gamma", "convergence", "midvalue",
                         "parts", "pvv"}
        for argv in requests.values():
            run(argv, tmp_path)
        assert made == []

    def test_queries_on_validated_functions_make_no_tree(self, monkeypatch):
        from bvsum import euler_maclaurin as em
        from bvsum import measure
        from bvsum.errors import BvError

        made = []
        real = ex.Parsed.tree
        monkeypatch.setattr(ex.Parsed, "tree", lambda self, i: made.append(i) or real(self, i))
        answered = set()
        for spec in _corpus_specs():
            bare = copy.deepcopy(spec)
            for piece in bare["pieces"]:
                piece.pop("antiderivative", None)
            for s in (spec, bare):
                f = validate(s)
                lo, hi = f.domain_lo, f.domain_hi
                a = max(0, math.ceil(lo))
                b = a + 3 if math.isinf(hi) else min(a + 3, math.floor(hi))
                top = min(hi, lo + 5.0)
                calls = {
                    "integrate": lambda: measure.integrate(f, lo, top, 1e-6),
                    "integrate_clipped": lambda: measure.integrate(f, lo + 0.25, top - 0.5,
                                                                   1e-6),
                    "tail_integral": lambda: measure.tail_integral(f, a + 0.5, 1e-6),
                    "stieltjes_beta1": lambda: measure.stieltjes_beta1(f, a, b, 1e-5),
                    "stieltjes_midvalue": lambda: measure.stieltjes_midvalue(f, f, lo, top,
                                                                             1e-4),
                    "em_finite_sum": lambda: em.em_finite_sum(f, a, b, 1e-6),
                    "series_sum": lambda: em.series_sum(f, 10, 1e-6),
                    "euler_constant": lambda: em.euler_constant(f, 10, 1e-6),
                    "asymptotic_sum": lambda: em.asymptotic_sum(f, 10, 1e-6, n_gamma=100),
                    "em_midvalue_check": lambda: em.em_midvalue_check(f, a, b, 1e-5),
                    "parts_check": lambda: em.parts_check(f, f, a, a + 1, 1e-4),
                }
                for name, call in calls.items():
                    try:
                        call()
                    except (BvError, ValueError, ArithmeticError):
                        continue
                    answered.add(name)
        assert answered == set(calls)  # each query answered somewhere
        assert made == []


class TestEvalAndLimits:
    def test_breakpoint_value_is_authoritative(self):
        f = make_step()
        assert evaluate(f, 1.0) == 2.0

    def test_plain_evaluation(self):
        assert evaluate(make_linear(), 2.5) == 2.5

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            evaluate(make_linear(), -1.0)

    def test_limits_interior_continuous(self):
        f = make_linear()
        assert limits(f, 3.0) == (3.0, 3.0, 3.0)

    def test_limits_at_breakpoint(self):
        f = make_step(value_at_jump=0.5)
        assert limits(f, 1.0) == (0.0, 0.5, 1.0)

    def test_left_endpoint_convention(self):
        harm = validate({
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 11.0}],
            "breakpoints": [],
        })
        assert limits(harm, 0.0) == (1.0, 1.0, 1.0)

    def test_mid_value(self):
        assert mid_value(make_step(0.5), 1.0) == 0.5
        assert mid_value(make_step(7.0), 1.0) == 0.5  # stored value ignored
        assert mid_value(make_linear(), 4.0) == 4.0

    def test_rho(self):
        assert rho(make_step(0.5), 1.0) == 0.0   # value inside the limits
        assert rho(make_step(2.0), 1.0) == 2.0   # twice dist(2, [0,1])
        assert rho(make_linear(), 5.0) == 0.0


class TestPointwiseVariation:
    def test_monotone_is_endpoint_difference(self):
        f = make_linear()
        assert pointwise_variation(f, 0, 10) == 10.0

    def test_step_with_misplaced_value(self):
        f = make_step()
        assert pointwise_variation(f, 0, 2) == 3.0
        assert pointwise_variation(f, 0, 2, False, False) == 3.0

    def test_closed_vs_open_at_breakpoint_endpoints(self):
        f = make_step()
        # starting exactly at the jump: closed adds |f(1)-f(1+)| = 1
        closed = pointwise_variation(f, 1, 2, True, True)
        open_ = pointwise_variation(f, 1, 2, False, True)
        assert closed - open_ == pytest.approx(1.0, abs=1e-15)

    def test_tail_variation(self, corpus):
        f = corpus["harmonic.json"]
        assert pointwise_variation(f, 10, math.inf) == pytest.approx(1.0 / 11.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(DomainError):
            pointwise_variation(make_linear(), 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 9.99), st.floats(0.01, 9.99), st.floats(0.01, 9.99))
    def test_additivity(self, a, b, c):
        f = make_linear()
        xs = sorted({round(a, 6), round(b, 6), round(c, 6)})
        if len(xs) < 3:
            return
        lo, mid, hi = xs
        total = pointwise_variation(f, lo, hi)
        split = pointwise_variation(f, lo, mid) + pointwise_variation(f, mid, hi)
        assert total == pytest.approx(split, abs=1e-12)

    def test_additivity_across_jumps(self, corpus):
        f = corpus["mixed_jumps.json"]
        total = pointwise_variation(f, 0, 20)
        split = pointwise_variation(f, 0, 4) + pointwise_variation(f, 4, 20)
        assert total == pytest.approx(split, abs=1e-12)

    def test_grid_oracle_lower_bound_and_agreement(self, corpus):
        rng = random.Random(7)
        for name, f in corpus.items():
            hi_dom = f.domain_hi if not f.is_half_line else f.domain_lo + 40.0
            lo = f.domain_lo
            hi = min(hi_dom, lo + 30.0)
            if hi <= lo:
                continue
            a = lo + (hi - lo) * rng.uniform(0.0, 0.3)
            b = lo + (hi - lo) * rng.uniform(0.7, 1.0)
            pv = pointwise_variation(f, a, b)
            oracle = grid_variation(f, a, b)
            assert pv >= oracle - 1e-6, name
            assert pv == pytest.approx(oracle, abs=1e-6), name


class TestJordan:
    def test_nondecreasing_function_unchanged(self):
        f = make_linear()
        f1, f2 = jordan_decompose(f)
        for x in [0.0, 1.3, 5.0, 10.0]:
            assert evaluate(f1, x) == pytest.approx(evaluate(f, x), abs=1e-12)
            assert evaluate(f2, x) == 0.0

    def test_decreasing_function(self):
        f = validate({
            "domain": {"lo": 0, "hi": 1},
            "pieces": [{"interval": [0, 1], "expr": "-x", "direction": "dec",
                        "left_limit": 0, "right_limit": -1}],
            "breakpoints": [],
        })
        f1, f2 = jordan_decompose(f)
        for x in [0.0, 0.25, 1.0]:
            assert evaluate(f1, x) == 0.0
            assert evaluate(f2, x) == pytest.approx(x, abs=1e-12)

    def test_vshape_splits_variation(self, corpus):
        f = corpus["vshape.json"]
        f1, f2 = jordan_decompose(f)
        pv1 = pointwise_variation(f1, 0, 2)
        pv2 = pointwise_variation(f2, 0, 2)
        assert pv1 == pytest.approx(1.0, abs=1e-12)
        assert pv2 == pytest.approx(1.0, abs=1e-12)
        # derived via the sup-over-samples oracle
        assert pv1 + pv2 == pytest.approx(grid_variation(f, 0, 2), abs=1e-6)

    def test_corpus_properties(self, corpus):
        for name, f in corpus.items():
            f1, f2 = jordan_decompose(f)
            lo = f.domain_lo
            hi = f.domain_hi if not f.is_half_line else lo + 20.0
            n = 401
            xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
            prev1 = prev2 = -math.inf
            for x in xs:
                v1, v2 = evaluate(f1, x), evaluate(f2, x)
                assert v1 >= prev1 - 1e-10, name
                assert v2 >= prev2 - 1e-10, name
                prev1, prev2 = v1, v2
                assert v1 - v2 == pytest.approx(evaluate(f, x), abs=1e-12), name
            pv = pointwise_variation(f, lo, hi)
            pv12 = pointwise_variation(f1, lo, hi) + pointwise_variation(f2, lo, hi)
            assert pv == pytest.approx(pv12, abs=1e-10), name


def test_breakpoint_jump_matches_measure_atom():
    bp = Breakpoint(1.0, 0.0, 2.0, 1.0)
    assert bp.jump == 1.0
    assert bp.excursion == 3.0


# The result records have slots and no __dict__; they must pickle, copy,
# hash and compare as the frozen dataclasses they were, and refuse
# assignment.
def _records():
    c, d = Certified(1.5, 0.25), Certified(-2.0, 1e-12)
    return [c, EmReport(3.0, c, -0.5, 0.125, d), EmReport(None, c, 0.0, 0.0, c),
            GammaReport(10, c, d), CheckReport(1.0, 1.0 + 1e-12, 1e-12, 1e-9),
            StieltjesResult(c, 0.25, d)]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_result_records_keep_their_value_semantics(record):
    assert not hasattr(record, "__dict__")
    values = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    assert hash(record) == hash(values)  # the frozen dataclass's hash
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record), type(record)(*values)):
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record) and type(twin) is type(record)
    other = dataclasses.replace(record, **{dataclasses.fields(record)[-1].name: values[0]})
    assert other != record and record != values
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, 0.0)
    # a name that is no field: FrozenInstanceError, or before Python 3.12
    # the TypeError of the frozen __setattr__ on a class remade with slots
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 0.0


# A function's layout, which its refinements make on first use, is kept
# outside its fields: it must change neither its equality, its hash nor
# its pickle, and loading a function must not make it.
def test_layout_leaves_eq_hash_and_pickle_alone(corpus_dir):
    from bvsum import em_midvalue_check, load_function, parts_check

    f = load_function(corpus_dir / "mixed_jumps.json")
    twin = load_function(corpus_dir / "mixed_jumps.json")
    assert "layout" not in vars(f)
    before = hash(f), pickle.dumps(f)
    report = em_midvalue_check(f, 1, 7, 1e-6)
    parts = parts_check(f, f, 1.0, 7.0, 1e-6)
    assert "layout" in vars(f) and "layout" not in vars(twin)
    assert f == twin and twin == f and hash(f) == hash(twin) == before[0]
    assert pickle.dumps(f) == before[1]
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert copied == f and hash(copied) == hash(f) and "layout" not in vars(copied)
        assert em_midvalue_check(copied, 1, 7, 1e-6) == report
        assert parts_check(copied, copied, 1.0, 7.0, 1e-6) == parts
