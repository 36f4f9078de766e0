import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsum import (
    Breakpoint,
    DomainError,
    ValidationError,
    evaluate,
    jordan_decompose,
    limits,
    linear_combination,
    mid_value,
    pointwise_variation,
    rho,
    validate,
)
from bvsum import expr as ex
from bvsum.bv import (
    EDGE_SAMPLES,
    FD_POINTS,
    FD_REL_TOL,
    MONO_SAMPLES,
    _mono_sample_points,
    check_antiderivative,
)
from oracles import grid_variation


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


def assert_same_points(lo: float, hi: float) -> np.ndarray:
    got = _mono_sample_points(lo, hi)
    want = ref_mono_sample_points(lo, hi)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes(), (lo, hi)
    return got


def corpus_antiderivatives(corpus):
    """(name, f, F, lo, hi) for every piece and tail antiderivative."""
    for name, fn in corpus.items():
        for p in fn.pieces:
            if p.antiderivative is not None:
                yield name, p.evaluator, p.antiderivative, p.lo, p.hi
        if fn.tail is not None and fn.tail.antiderivative is not None:
            p = fn.pieces[-1]
            yield name + ":tail", p.evaluator, fn.tail.antiderivative, p.lo, p.hi


class TestVectorValidation:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)),
           st.one_of(st.floats(1e-9, 1e9), st.floats(5e-324, 1e300)))
    def test_sample_points_match_reference(self, lo, width):
        hi = lo + width
        if not (lo < hi and math.isfinite(hi)):
            return
        assert_same_points(lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)),
           st.integers(1, 3000))
    def test_sample_points_match_reference_on_tiny_widths(self, lo, ulps):
        # widths of a few ulps: lo + w*2^-j rounds back to lo and is dropped
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        assert_same_points(lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)))
    def test_sample_points_match_reference_on_half_lines(self, lo):
        assert_same_points(lo, math.inf)

    def test_sample_points_edge_cases(self):
        tiny = assert_same_points(1.0, 1.0 + 4 * math.ulp(1.0))
        assert len(tiny) == 3
        assert len(assert_same_points(-1e300, 1e300)) > 0  # width overflows
        assert len(assert_same_points(1e300, math.inf)) > 0  # ladder overflows
        for lo, hi in [(-5.0, 5.0), (0.0, math.inf), (-1e6, math.inf)]:
            assert_same_points(lo, hi)

    def test_corpus_antiderivative_scores_match_reference(self, corpus):
        # scores may differ by evaluator ulps amplified by the quotient's
        # 1/(2h) and 1/FD_REL_TOL; the verdict (> 1) must not
        for name, fe, F, lo, hi in corpus_antiderivatives(corpus):
            got = check_antiderivative(fe, F, lo, hi)
            want = ref_check_antiderivative(fe, F, lo, hi)
            assert (got > 1.0) == (want > 1.0), name
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), name
            assert got <= 1.0, name

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


class TestLinearCombination:
    def test_combination_matches_pointwise(self, corpus):
        f = corpus["step_half.json"]
        g = corpus["step_quarter.json"]
        h = linear_combination(2.0, f, 3.0, g)
        for x in [-0.5, 0.1, 0.25, 0.4, 0.5, 0.9, 30.0]:
            assert evaluate(h, x) == pytest.approx(
                2.0 * evaluate(f, x) + 3.0 * evaluate(g, x), abs=1e-12)
        assert {bp.x for bp in h.breakpoints} == {0.25, 0.5}

    def test_non_monotone_combination_rejected(self):
        # x^2 - 3x turns around inside the single piece (0, 3)
        curved = validate({
            "domain": {"lo": 0, "hi": 3},
            "pieces": [{"interval": [0, 3], "expr": "x^2", "direction": "inc",
                        "left_limit": 0, "right_limit": 9}],
            "breakpoints": [],
        })
        lin = validate({
            "domain": {"lo": 0, "hi": 3},
            "pieces": [{"interval": [0, 3], "expr": "x", "direction": "inc",
                        "left_limit": 0, "right_limit": 3}],
            "breakpoints": [],
        })
        with pytest.raises(ValidationError) as exc:
            linear_combination(1.0, curved, -3.0, lin)
        assert "NonMonotonePiece" in exc.value.kinds


def test_breakpoint_jump_matches_measure_atom():
    bp = Breakpoint(1.0, 0.0, 2.0, 1.0)
    assert bp.jump == 1.0
    assert bp.excursion == 3.0
