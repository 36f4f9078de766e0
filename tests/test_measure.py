import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsum import (
    DIVERGENT,
    Certified,
    DomainError,
    ExteriorLimitRequired,
    IntervalSpec,
    MissingAntiderivative,
    ToleranceUnreachable,
    beta1,
    integrate,
    linear_combination,
    load_function,
    measure_interval,
    pointwise_variation,
    rho,
    stieltjes_beta1,
    stieltjes_midvalue,
    tail_integral,
    total_variation_measure,
    validate,
)
from bvsum import expr as ex
from bvsum import measure
from bvsum.bv import (
    Breakpoint,
    BvFunction,
    MonotonePiece,
    _segment_endpoint_values,
    left_limit,
    right_limit,
)
from bvsum.errors import BvError
from conftest import corpus_path
from oracles import grid_variation


@pytest.fixture(scope="module")
def step():
    return validate({
        "domain": {"lo": 0, "hi": 2},
        "pieces": [
            {"interval": [0, 1], "expr": "0", "direction": "const",
             "left_limit": 0, "right_limit": 0},
            {"interval": [1, 2], "expr": "1", "direction": "const",
             "left_limit": 1, "right_limit": 1},
        ],
        "breakpoints": [{"x": 1, "left": 0, "value": 2, "right": 1}],
    })


class TestMeasureInterval:
    def test_half_open_over_floor(self, corpus):
        f = corpus["floor_steps.json"]
        # ]0,2] -> f(2+) - f(0+) = 2 - 0
        assert measure_interval(f, IntervalSpec(0, 2, False, True)) == 2.0

    def test_closed_continuous(self):
        sq = validate({
            "domain": {"lo": 0, "hi": 4},
            "pieces": [{"interval": [0, 4], "expr": "x^2", "direction": "inc",
                        "left_limit": 0, "right_limit": 16}],
            "breakpoints": [],
        })
        assert measure_interval(sq, IntervalSpec.closed(1, 3)) == 8.0

    def test_singleton_atom(self, step):
        assert measure_interval(step, IntervalSpec.singleton(1)) == 1.0

    def test_empty_interval(self, step):
        assert measure_interval(step, IntervalSpec(1, 1, True, False)) == 0.0

    def test_finite_additivity(self, corpus):
        f = corpus["mixed_jumps.json"]
        c, d, e = 1.0, 4.0, 7.0
        whole = measure_interval(f, IntervalSpec.open(c, e))
        split = (measure_interval(f, IntervalSpec.open(c, d))
                 + measure_interval(f, IntervalSpec.singleton(d))
                 + measure_interval(f, IntervalSpec.open(d, e)))
        assert whole == pytest.approx(split, abs=1e-14)

    def test_exterior_limit_required(self):
        lin = validate({
            "domain": {"lo": 0, "hi": 2},
            "pieces": [{"interval": [0, 2], "expr": "x", "direction": "inc",
                        "left_limit": 0, "right_limit": 2}],
            "breakpoints": [],
        })
        with pytest.raises(ExteriorLimitRequired):
            measure_interval(lin, IntervalSpec.closed(0, 1))

    def test_bounded_by_variation_measure_plus_atoms(self, corpus):
        for name, f in corpus.items():
            lo = f.domain_lo + 0.25
            hi = lo + 3.0
            m = measure_interval(f, IntervalSpec.open(lo, hi))
            tv = total_variation_measure(f, IntervalSpec.open(lo, hi))
            assert abs(m) <= tv + 1e-12, name


class TestTotalVariationMeasure:
    def test_jump_only(self, step):
        # mu_f does not see the misplaced value f(1)=2
        assert total_variation_measure(step, IntervalSpec.open(0, 2)) == 1.0

    def test_monotone_continuous(self, corpus):
        f = corpus["harmonic.json"]
        got = total_variation_measure(f, IntervalSpec.open(0, 10))
        assert got == pytest.approx(1.0 - 1.0 / 11.0, abs=1e-15)

    def test_vshape_matches_grid_supremum(self, corpus):
        f = corpus["vshape.json"]
        got = total_variation_measure(f, IntervalSpec.open(0, 2))
        # continuous function: |mu_f| agrees with the sampled variation
        assert got == pytest.approx(grid_variation(f, 0, 2), abs=1e-6)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_requires_open_interval(self, step):
        with pytest.raises(ValueError):
            total_variation_measure(step, IntervalSpec.closed(0, 2))

    def test_pv_dominates_with_rho_gap(self, corpus, step):
        for name, f in list(corpus.items()) + [("step", step)]:
            lo = f.domain_lo
            hi = min(f.domain_hi, lo + 20.0) if not f.is_half_line else lo + 20.0
            pv = pointwise_variation(f, lo, hi, False, False)
            tv = total_variation_measure(f, IntervalSpec.open(lo, hi))
            rho_sum = math.fsum(rho(f, bp.x) for bp in f.breakpoints
                                if lo < bp.x < hi)
            assert tv <= pv + 1e-12, name
            assert pv == pytest.approx(tv + rho_sum, abs=1e-10), name
            if rho_sum == 0.0:
                assert pv == pytest.approx(tv, abs=1e-12), name


class TestIntegrate:
    def test_linear_exact(self, corpus):
        enc = integrate(corpus["linear.json"], 0, 10, 1e-8)
        assert enc.contains(50.0)
        assert enc.radius <= 1e-8

    def test_harmonic_log_oracle(self, corpus):
        enc = integrate(corpus["harmonic.json"], 0, 10, 1e-10)
        assert enc.contains(math.log(11.0))
        assert enc.radius <= 1e-10

    def test_constant_piece_exact(self, corpus):
        enc = integrate(corpus["floor_steps.json"], 0, 7)
        assert enc.value == 21.0
        assert enc.radius == 0.0

    def test_empty_range(self, corpus):
        enc = integrate(corpus["linear.json"], 3, 3)
        assert (enc.value, enc.radius) == (0.0, 0.0)

    def test_darboux_fallback_encloses(self):
        f = validate({
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 11.0}],
            "breakpoints": [],
        })
        enc = integrate(f, 0, 10, 1e-5)
        assert enc.contains(math.log(11.0))
        assert enc.radius <= 1e-5

    def test_darboux_agrees_with_antiderivative_route(self, corpus):
        smooth = corpus["harmonic.json"]
        no_f = validate({
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 11.0}],
            "breakpoints": [],
        })
        a = integrate(smooth, 0, 10, 1e-12)
        b = integrate(no_f, 0, 10, 1e-6)
        assert abs(a.value - b.value) <= a.radius + b.radius

    def test_tolerance_unreachable(self):
        f = validate({
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 11.0}],
            "breakpoints": [],
        })
        with pytest.raises(ToleranceUnreachable):
            integrate(f, 0, 10, 1e-12)

    def test_outside_domain(self, corpus):
        with pytest.raises(DomainError):
            integrate(corpus["vshape.json"], 0, 10)


class TestTailIntegral:
    def test_basel_tail(self, corpus):
        enc = tail_integral(corpus["basel.json"], 10)
        assert enc.contains(1.0 / 11.0, slack=1e-12)

    def test_divergent(self, corpus):
        assert tail_integral(corpus["harmonic.json"], 5) is DIVERGENT

    def test_zero_tail(self):
        f = validate({
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [{"interval": [0, "inf"], "expr": "0",
                        "direction": "const", "left_limit": 0,
                        "right_limit": 0, "antiderivative": "0"}],
            "breakpoints": [],
            "tail": {"limit": 0, "antiderivative": "0",
                     "antiderivative_limit": 0},
        })
        enc = tail_integral(f, 3)
        assert (enc.value, enc.radius) == (0.0, 0.0)

    def test_missing_antiderivative(self):
        f = validate({
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [{"interval": [0, "inf"], "expr": "1/(1+x)^2",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 0}],
            "breakpoints": [],
            "tail": {"limit": 0},
        })
        with pytest.raises(MissingAntiderivative):
            tail_integral(f, 0)

    def test_split_below_last_breakpoint(self):
        # two-piece half-line: 2-x on (0,1), exp(1-x) beyond
        g = validate({
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [
                {"interval": [0, 1], "expr": "2-x", "direction": "dec",
                 "left_limit": 2, "right_limit": 1,
                 "antiderivative": "2*x-x^2/2"},
                {"interval": [1, "inf"], "expr": "exp(1-x)", "direction": "dec",
                 "left_limit": 1, "right_limit": 0},
            ],
            "breakpoints": [{"x": 1, "left": 1, "value": 1, "right": 1}],
            "tail": {"limit": 0, "antiderivative": "-exp(1-x)",
                     "antiderivative_limit": 0},
        })
        enc = tail_integral(g, 0.5)
        oracle = (2 * 1 - 0.5) - (2 * 0.5 - 0.125) + 1.0  # head + exp tail
        assert enc.contains(oracle, slack=1e-9)


class TestBeta1:
    def test_golden_values(self):
        assert beta1(0.25) == -0.25
        assert beta1(7.0) == 0.0
        assert beta1(-0.25) == 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_periodicity_range_and_zeros(self, x):
        v = beta1(x)
        assert abs(v) <= 0.5
        if (x + 1.0) - 1.0 == x:  # the unit shift itself must be exact
            assert beta1(x + 1.0) == v
        if x == math.floor(x):
            assert v == 0.0


class TestStieltjesBeta1:
    def test_linear_symmetry(self, corpus):
        res = stieltjes_beta1(corpus["linear.json"], 0, 1, 1e-10)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.atom_contribution == 0.0

    def test_pure_atom(self, corpus):
        res = stieltjes_beta1(corpus["step_quarter.json"], 0, 1)
        assert res.value == -0.25
        assert res.radius == 0.0
        assert res.atom_contribution == -0.25

    def test_floor_vanishes(self, corpus):
        res = stieltjes_beta1(corpus["floor_steps.json"], 0, 3)
        assert res.value == 0.0
        assert res.radius == 0.0

    def test_result_split_invariant(self, corpus):
        res = stieltjes_beta1(corpus["mixed_jumps.json"], 0, 6, 1e-8)
        assert res.value == res.atom_contribution + res.continuous_contribution.value
        assert res.radius == res.continuous_contribution.radius

    def test_parts_route_matches_riemann_stieltjes_fallback(self, corpus):
        smooth = corpus["harmonic.json"]
        bare = validate({
            "domain": {"lo": 0, "hi": 20},
            "breakpoints": [{"x": 0, "left": 1, "value": 1, "right": 1}],
            "pieces": [{"interval": [0, 20], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 21.0}],
        })
        a = stieltjes_beta1(smooth, 0, 3, 1e-12)
        b = stieltjes_beta1(bare, 0, 3, 1e-7)
        assert abs(a.value - b.value) <= a.radius + b.radius


class TestStieltjesMidvalue:
    def test_unit_integrand_gives_measure(self, corpus):
        f = corpus["mixed_jumps.json"]
        one = validate({
            "domain": {"lo": 0, "hi": 60},
            "pieces": [{"interval": [0, 60], "expr": "1", "direction": "const",
                        "left_limit": 1, "right_limit": 1}],
            "breakpoints": [],
        })
        got = stieltjes_midvalue(one, f, 1, 7, 1e-9)
        want = measure_interval(f, IntervalSpec(1, 7, True, False))
        assert got.contains(want, slack=1e-12)

    def test_constant_integrator_is_zero(self, corpus):
        g = corpus["linear.json"]
        c = validate({
            "domain": {"lo": -1, "hi": 60},
            "pieces": [{"interval": [-1, 60], "expr": "5", "direction": "const",
                        "left_limit": 5, "right_limit": 5}],
            "breakpoints": [],
        })
        got = stieltjes_midvalue(g, c, 0, 10, 1e-10)
        assert (got.value, got.radius) == (0.0, 0.0)

    def test_x_dx(self, corpus):
        lin = corpus["linear.json"]
        got = stieltjes_midvalue(lin, lin, 0, 1, 1e-5)
        assert got.contains(0.5)
        assert got.radius <= 1e-5

    def test_linearity(self, corpus):
        g = corpus["linear.json"]
        f1 = corpus["step_half.json"]
        f2 = corpus["step_quarter.json"]
        alpha, beta = 2.0, -3.0
        combo = linear_combination(alpha, f1, beta, f2)
        i1 = stieltjes_midvalue(g, f1, 0, 1, 1e-6)
        i2 = stieltjes_midvalue(g, f2, 0, 1, 1e-6)
        ic = stieltjes_midvalue(g, combo, 0, 1, 1e-6)
        want = alpha * i1.value + beta * i2.value
        slack = ic.radius + abs(alpha) * i1.radius + abs(beta) * i2.radius + 1e-9
        assert abs(ic.value - want) <= slack

    def test_atom_at_left_end_included(self, corpus):
        f = corpus["floor_steps.json"]   # unit jump at every integer
        g = corpus["linear.json"]
        # [1, 2[ contains the atom at 1 with g_m(1) = 1
        got = stieltjes_midvalue(g, f, 1, 2, 1e-8)
        assert got.contains(1.0, slack=1e-12)


def bare(expr, lo, hi, direction, left, right):
    """One monotone piece on [lo, hi] without an antiderivative."""
    return validate({
        "domain": {"lo": lo, "hi": hi},
        "pieces": [{"interval": [lo, hi], "expr": expr, "direction": direction,
                    "left_limit": left, "right_limit": right}],
        "breakpoints": [],
    })


class TestTolerance:
    ROUTINES = {
        "integrate": lambda tol: integrate(
            bare("1/(1+x)", 0, 10, "dec", 1, 1 / 11), 0, 10, tol),
        "stieltjes_beta1": lambda tol: stieltjes_beta1(
            bare("1/(1+x)", 0, 20, "dec", 1, 1 / 21), 0, 3, tol),
        "stieltjes_midvalue": lambda tol: stieltjes_midvalue(
            bare("x", 0, 2, "inc", 0, 2), bare("x^2", 0, 2, "inc", 0, 4), 0, 1, tol),
        "tail_integral": lambda tol: tail_integral(
            load_function(corpus_path("basel.json")), 10, tol),
    }

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    @pytest.mark.parametrize("routine", sorted(ROUTINES))
    def test_non_positive_or_nan_tol_refused_before_refinement(self, routine, tol):
        with pytest.raises(ToleranceUnreachable, match="below rounding floor"):
            self.ROUTINES[routine](tol)

    def test_nan_tol_refused_on_closed_form_route(self, corpus):
        with pytest.raises(ToleranceUnreachable, match="exceeds tol nan"):
            integrate(corpus["linear.json"], 0, 10, math.nan)

    def test_exact_result_meets_zero_tol(self, corpus):
        enc = integrate(corpus["floor_steps.json"], 0, 7, 0.0)
        assert (enc.value, enc.radius) == (21.0, 0.0)


def ref_grid_sum(e, s, t, n, v0, vn):
    """The chunked Darboux grid sum the shared grid walker replaced: a
    reference that the walker's sums must equal bit for bit."""
    parts = [v0, vn]
    for start in range(1, n, measure._CHUNK):
        stop = min(n, start + measure._CHUNK)
        idx = np.arange(start, stop, dtype=np.float64)
        xs = s + (t - s) * (idx / n)
        parts.append(float(np.sum(ex.eval_expr(e, xs))))
    return math.fsum(parts)


class TestGridWalker:
    PIECES = [
        ("1/(1+x)", 0.0, 10.0, "dec", 1.0, 1 / 11),
        ("exp(x)", 0.0, 1.0, "inc", 1.0, math.e),
        ("sqrt(x)", 0.0, 3.0, "inc", 0.0, math.sqrt(3.0)),
        ("sin(x)", 0.0, 1.5, "inc", 0.0, math.sin(1.5)),
        ("atan(x)+x^3", -1.0, 2.0, "inc", -math.pi / 4 - 1, math.atan(2) + 8),
    ]

    @pytest.mark.parametrize("n", [64, 1 << 20, (1 << 21) + (1 << 20)])
    @pytest.mark.parametrize("piece", PIECES, ids=[p[0] for p in PIECES])
    def test_darboux_sums_bit_equal_to_reference(self, piece, n, monkeypatch):
        f = bare(*piece)
        p = f.pieces[0]
        s, t = p.lo + 0.125, p.hi  # one end evaluated, one from the limit
        v0, vn = ex.eval_expr(p.evaluator, s), p.right_boundary_limit
        monkeypatch.setattr(measure, "_cells", lambda *args: n)
        [(value, radius)] = measure._darboux([(p, s, t)], [(v0, vn)], [1.0])
        h = (t - s) / n
        want = h * (ref_grid_sum(p.evaluator, s, t, n, v0, vn) - 0.5 * (v0 + vn))
        assert value == want
        assert radius == 0.5 * h * abs(vn - v0) + measure._slack(want)

    def test_expression_never_evaluated_at_segment_ends(self):
        # sin(x)/x is 0/0 at 0; the piece's left limit stands in for it
        f = bare("sin(x)/x", 0, 3, "dec", 1.0, math.sin(3.0) / 3.0)
        integral = integrate(f, 0, 1, 1e-6)
        assert integral.contains(0.946083070367183, slack=1e-12)  # Si(1)
        beta = stieltjes_beta1(f, 0, 1, 1e-6)
        # slope-1 parts: (1/2) f(1) + (1/2) f(0) - Si(1)
        assert beta.certified.contains(0.5 * math.sin(1.0) + 0.5 - 0.946083070367183, slack=1e-12)
        mid = stieltjes_midvalue(f, f, 0, 1, 1e-4)
        # f continuous: int f d(mu_f) over [0, 1[ is (f(1)^2 - f(0)^2)/2
        assert mid.contains(0.5 * (math.sin(1.0) ** 2 - 1.0), slack=1e-12)


# ---------------------------------------------------------------------------
# The engine refines all segments of a call together.  The per-segment
# routines it replaced are kept here as references: every value, radius,
# error kind and refusal must be theirs, bit for bit.


def ref_chunks(s, t, n, *curves):
    width = t - s
    for start in range(0, n, measure._CHUNK):
        stop = min(n, start + measure._CHUNK)
        first, last = start == 0, stop == n
        xs = s + width * (np.arange(start, stop + 1, dtype=np.float64) / n)
        i, j = int(first), len(xs) - int(last)
        rows = []
        for e, v0, vn in curves:
            vals = np.empty(len(xs))
            vals[i:j] = ex.eval_expr(e, xs[i:j])
            if first:
                vals[0] = v0
            if last:
                vals[-1] = vn
            rows.append(vals)
        yield last, xs, *rows


def ref_darboux_segment(p, s, t, budget):
    v0, vn = _segment_endpoint_values(p, s, t)
    spread = abs(vn - v0)
    n = measure._cells(s, t, spread, budget, 64, "Darboux bracketing")
    parts = [v0, vn]
    for last, _, vals in ref_chunks(s, t, n, (p.evaluator, v0, vn)):
        parts.append(float(np.sum(vals[1:-1] if last else vals[1:])))
    h = (t - s) / n
    value = h * (math.fsum(parts) - 0.5 * (v0 + vn))
    return value, 0.5 * h * spread + measure._slack(value)


def ref_beta1_rs(p, s, t, budget):
    k = math.floor(s)
    v0, vn = _segment_endpoint_values(p, s, t)
    spread = abs(vn - v0)
    n = measure._cells(s, t, spread, budget, 16, "Stieltjes refinement")
    parts = []
    for _, xs, vals in ref_chunks(s, t, n, (p.evaluator, v0, vn)):
        mids = 0.5 * (xs[:-1] + xs[1:])
        parts.append(float(np.sum((mids - (k + 0.5)) * np.diff(vals))))
    value = math.fsum(parts)
    return value, 0.5 * ((t - s) / n) * spread + measure._slack(value)


def ref_stieltjes_mid_segment(g, f, fp, s, t, budget):
    gp = g.piece_containing(0.5 * (s + t))
    if gp is None:
        raise DomainError(f"no piece of the integrand covers ({s}, {t})")
    f_ends = (fp.evaluator, right_limit(f, s), left_limit(f, t))
    g_ends = (gp.evaluator, right_limit(g, s), left_limit(g, t))
    n = 16
    while True:
        value_parts, err_parts = [], []
        for _, xs, fv, gv in ref_chunks(s, t, n, f_ends, g_ends):
            gmid = ex.eval_expr(gp.evaluator, 0.5 * (xs[:-1] + xs[1:]))
            dmu = np.diff(fv)
            value_parts.append(float(np.sum(gmid * dmu)))
            err_parts.append(float(np.sum(np.abs(np.diff(gv)) * np.abs(dmu))))
        value, err = math.fsum(value_parts), math.fsum(err_parts)
        if err <= budget or n >= measure.MAX_CELLS:
            break
        growth = max(2.0, 1.2 * err / max(budget, 1e-300))
        n = min(measure.MAX_CELLS, int(n * growth) + 1)
    if err > budget:
        raise ToleranceUnreachable(
            f"Stieltjes refinement hit the {measure.MAX_CELLS}-cell cap on [{s}, {t}]")
    return value, err + measure._slack(value)


def ref_certify(tol, values, radii, fallback, weigh, refine):
    """_certify as it was: each fallback segment refined on its own, in
    order, by the reference of the route."""
    if isinstance(refine, functools.partial):
        one = functools.partial(ref_stieltjes_mid_segment, *refine.args)
    else:
        one = {measure._darboux: ref_darboux_segment,
               measure._beta1_stieltjes: ref_beta1_rs}[refine]
    if fallback:
        budget = tol - math.fsum(radii)
        if not budget > 0.0:
            raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
        weights = [weigh(*seg)[0] for seg in fallback]
        wsum = math.fsum(weights)
        for seg, w in zip(fallback, weights):
            v, r = one(*seg, budget * w / wsum)
            values.append(v)
            radii.append(r)
    result = Certified(math.fsum(values), math.fsum(radii))
    if not result.radius <= tol:
        raise ToleranceUnreachable(
            f"achieved radius {result.radius:.3g} exceeds tol {tol:.3g}")
    return result


def _outcome(call):
    try:
        return "value", repr(call())
    except (BvError, ex.EvalError) as e:
        return "error", type(e).__name__, str(e)


def assert_as_reference(call):
    got = _outcome(call)
    with mock.patch.object(measure, "_certify", ref_certify):
        want = _outcome(call)
    assert got == want


def _piece(kind, p, q, spread, base, k):
    """(expression, direction) of a monotone piece on [p, q] that moves by
    about spread; k in [0.5, 2] shapes its curvature."""
    w, X = q - p, f"(x-{p!r})"
    if kind == "lin":
        return f"{base!r}+{spread / w!r}*{X}", "inc"
    if kind == "exp":
        return f"{base!r}+{spread / math.expm1(k)!r}*exp({k / w!r}*{X})", "inc"
    if kind == "recip":
        return f"{base!r}+{spread * (1 + k) / k!r}/(1+{k / w!r}*{X})", "dec"
    if kind == "sqrt":
        return f"{base!r}-{spread!r}*sqrt({X}+{k * w!r})", "dec"
    if kind == "atan":
        return f"{base!r}+{spread!r}*atan({4 * k / w!r}*(x-{p + w / 2!r}))", "inc"
    return f"{base!r}+{spread!r}*sin({math.pi / w!r}*{X}-{math.pi / 2!r})", "inc"


@st.composite
def monotone_specs(draw, length):
    """A validated spec on [0, length] of up to 5 monotone pieces without
    antiderivatives (some constant), with jumps and misplaced values."""
    cuts = draw(st.lists(st.integers(1, 8 * length - 1), unique=True, max_size=4))
    cuts = [0.0, *sorted(c / 8 for c in cuts), float(length)]
    pieces, bps = [], []
    for p, q in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from(["lin", "exp", "recip", "sqrt", "atan", "sin",
                                     "const"]))
        base = draw(st.floats(-1.0, 1.0))
        if kind == "const":
            text, direction = repr(base), "const"
        else:
            text, direction = _piece(kind, p, q, draw(st.floats(1e-4, 3e-3)), base,
                                     draw(st.floats(0.5, 2.0)))
        e = ex.parse(text)
        pieces.append({"interval": [p, q], "expr": text, "direction": direction,
                       "left_limit": ex.eval_expr(e, p),
                       "right_limit": ex.eval_expr(e, q)})
    for i, x in enumerate(cuts[:-1]):
        right = pieces[i]["left_limit"]
        left = pieces[i - 1]["right_limit"] if i else right + draw(st.floats(-0.1, 0.1))
        value = draw(st.sampled_from([left, right, 0.5 * (left + right), right + 0.25]))
        bps.append({"x": x, "left": left, "value": value, "right": right})
    return validate({"domain": {"lo": 0, "hi": length}, "pieces": pieces,
                     "breakpoints": bps})


_tols = st.floats(-8.0, -3.0).map(lambda lg: 10.0 ** lg)


class TestBatchedEngine:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_integrate_bit_equal_to_per_segment_refinement(self, data, tol):
        f = data.draw(monotone_specs(2))
        a = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
        b = data.draw(st.sampled_from([1.0, 1.75, 2.0]))
        assert_as_reference(lambda: integrate(f, a, b, tol))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_stieltjes_beta1_bit_equal_to_per_segment_refinement(self, data, tol):
        f = data.draw(monotone_specs(3))
        lo = data.draw(st.integers(0, 1))
        assert_as_reference(lambda: stieltjes_beta1(f, lo, 3, tol))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_stieltjes_midvalue_bit_equal_to_per_segment_refinement(self, data, tol):
        f, g = data.draw(monotone_specs(2)), data.draw(monotone_specs(2))
        hi = data.draw(st.sampled_from([1.5, 2.0]))
        assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, hi, tol))


def direct(*pieces):
    """A BvFunction built without validation from increasing pieces (lo,
    hi, expr, left limit, right limit), with breakpoints at the inner
    cuts that join the limits."""
    ps = tuple(MonotonePiece(float(lo), float(hi), ex.parse(e), "inc", vl, vr)
               for lo, hi, e, vl, vr in pieces)
    bps = tuple(Breakpoint(a.hi, a.right_boundary_limit, a.right_boundary_limit,
                           b.left_boundary_limit) for a, b in zip(ps, ps[1:]))
    return BvFunction(ps[0].lo, ps[-1].hi, bps, ps)


def sawtooth(n, length, spread, base):
    """A validated spec of n increasing linear pieces on [0, length]."""
    cuts = [length * i / n for i in range(n + 1)]
    pieces, bps = [], []
    for i, (p, q) in enumerate(zip(cuts, cuts[1:])):
        pieces.append({"interval": [p, q],
                       "expr": f"{base!r}+{spread / (q - p)!r}*(x-{p!r})",
                       "direction": "inc", "left_limit": base,
                       "right_limit": base + spread})
        bps.append({"x": p, "left": base + spread if i else base, "value": base,
                    "right": base})
    return validate({"domain": {"lo": 0, "hi": length}, "pieces": pieces,
                     "breakpoints": bps})


class TestEngineErrorOrder:
    """When several segments fail, the error is that of the first one, in
    segment order, as a walk of one segment after the other meets it."""

    @staticmethod
    def refuse_from(monkeypatch, x):
        real = measure._cells

        def cells(s, t, spread, budget, n, route):
            if s >= x:
                raise ToleranceUnreachable(f"{route} refused on [{s}, {t}]")
            return real(s, t, spread, budget, n, route)

        monkeypatch.setattr(measure, "_cells", cells)

    def test_eval_error_before_a_later_refusal(self, monkeypatch):
        f = direct((0, 1, "log(x-0.5)", -5, -0.7), (1, 2, "x", 1, 2))
        self.refuse_from(monkeypatch, 1.0)
        with pytest.raises(ex.EvalError) as err:
            integrate(f, 0, 2, 1e-3)
        assert err.value.kind == "log_domain" and err.value.x < 0.5
        assert_as_reference(lambda: integrate(f, 0, 2, 1e-3))

    def test_refusal_raised_after_the_segments_before_it_evaluate(self, monkeypatch):
        f = direct((0, 1, "x", 0, 1), (1, 2, "x", 1, 2),
                   (2, 3, "log(x-2.5)", -5, -0.7))
        self.refuse_from(monkeypatch, 1.0)
        with pytest.raises(ToleranceUnreachable, match=r"refused on \[1.0, 2.0\]"):
            integrate(f, 0, 3, 1e-3)
        assert_as_reference(lambda: integrate(f, 0, 3, 1e-3))

    def test_first_of_two_failing_segments_of_one_shape(self):
        f = direct((0, 1, "log(x-0.5)", -5, -0.7), (1, 2, "log(x-1.75)", -5, -1.4))
        with pytest.raises(ex.EvalError) as err:
            integrate(f, 0, 2, 1e-3)
        assert err.value.kind == "log_domain" and err.value.x < 0.5
        assert_as_reference(lambda: integrate(f, 0, 2, 1e-3))

    def test_first_of_two_failing_cells_of_one_piece(self):
        # undefined on (1/3, 2/3) of each unit cell, defined at the integers
        f = direct((0, 2, "log(cos(6.283185307179586*x)+0.5)", 0.4, 0.4))
        with pytest.raises(ex.EvalError) as err:
            stieltjes_beta1(f, 0, 2, 1e-4)
        assert 1 / 3 < err.value.x < 2 / 3
        assert_as_reference(lambda: stieltjes_beta1(f, 0, 2, 1e-4))

    @pytest.mark.parametrize("g,want", [
        # the cap in the first cell, an error in the second
        (direct((0, 1, "x", 0, 1), (1, 2, "log(x-1.5)", -5, -0.7)),
         r"cap on \[0.0, 1.0\]"),
        # an error in the first cell, the cap in the second
        (direct((0, 1, "log(x-0.5)", -5, -0.7), (1, 2, "x", 1, 2)), "log_domain"),
        # the first cell converges at once, the second reaches the cap
        (direct((0, 1, "2", 2, 2), (1, 2, "x", 1, 2)), r"cap on \[1.0, 2.0\]"),
    ])
    def test_midvalue_cell_cap(self, monkeypatch, g, want):
        monkeypatch.setattr(measure, "MAX_CELLS", 256)
        f = direct((0, 1, "x", 0, 1), (1, 2, "x", 1, 2))
        with pytest.raises((ToleranceUnreachable, ex.EvalError), match=want):
            stieltjes_midvalue(g, f, 0.0, 2.0, 1e-12)
        assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, 2.0, 1e-12))

    def test_memory_of_a_48_piece_call_is_bounded_by_a_batch(self):
        f, g = sawtooth(48, 12, 0.01, 0.0), sawtooth(48, 12, 0.02, 1.0)
        tracemalloc.start()
        try:
            stieltjes_midvalue(g, f, 0.0, 12.0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the call walks about 1.7 million points; a batch of at most
        # _BATCH points lives in about a dozen arrays at a time
        assert peak < 16 * 8 * measure._BATCH
