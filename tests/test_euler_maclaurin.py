import math
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsum import (
    Breakpoint,
    BvFunction,
    Convergence,
    DomainError,
    EvalError,
    MonotonePiece,
    SeriesDivergent,
    approx_from_partial,
    asymptotic_sum,
    classify_convergence,
    em_finite_sum,
    em_midvalue_check,
    euler_constant,
    gamma_partial,
    parts_check,
    evaluate,
    jordan_decompose,
    parse,
    series_sum,
    validate,
)
from bvsum import expr as ex
from bvsum.bv import _BLOCK
from bvsum.euler_maclaurin import _direct_sum
from conftest import CORPUS_NAMES
from oracles import BASEL_SUM, EULER_GAMMA, direct_sum, harmonic_number


class TestFiniteSum:
    def test_linear_remainder_vanishes(self, corpus):
        rep = em_finite_sum(corpus["linear.json"], 0, 10)
        assert rep.exact_sum == 45.0
        assert rep.integral_term.value == pytest.approx(50.0, abs=1e-9)
        assert rep.boundary_term == -5.0
        assert rep.approx.value == pytest.approx(45.0, abs=1e-9)
        assert abs(rep.exact_sum - rep.approx.value) <= rep.approx.radius
        assert rep.remainder_bound == 5.0

    def test_constant(self, corpus):
        rep = em_finite_sum(corpus["constant.json"], 2, 9)
        assert rep.exact_sum == 21.0
        assert rep.approx.value == pytest.approx(21.0, abs=1e-12)
        assert rep.remainder_bound == 0.0

    def test_harmonic_matches_closed_forms(self, corpus):
        rep = em_finite_sum(corpus["harmonic.json"], 0, 10)
        assert rep.exact_sum == pytest.approx(harmonic_number(10), abs=1e-14)
        assert rep.approx.value == pytest.approx(
            math.log(11.0) + 5.0 / 11.0, abs=1e-12)
        r = abs(rep.exact_sum - rep.approx.value)
        assert r == pytest.approx(0.0765275266, abs=1e-9)
        assert r <= rep.remainder_bound
        assert rep.remainder_bound == pytest.approx(5.0 / 11.0, abs=1e-15)

    def test_floor_hits_the_bound_exactly(self, corpus):
        # sum k = b(b-1)/2, integral = the same, boundary = -b/2: the
        # remainder equals the bound, so the enclosure is tight
        rep = em_finite_sum(corpus["floor_steps.json"], 0, 12)
        assert abs(rep.exact_sum - rep.approx.value) == pytest.approx(
            rep.remainder_bound, abs=1e-12)
        assert abs(rep.exact_sum - rep.approx.value) <= rep.approx.radius

    def test_monotone_bound_is_half_endpoint_gap(self, corpus):
        for name in ("linear.json", "harmonic.json", "sqrt.json",
                     "exp_decay.json", "atan_bounded.json", "floor_steps.json"):
            f = corpus[name]
            a, b = 0, 10
            rep = em_finite_sum(f, a, b)
            want = 0.5 * abs(f(float(b)) - f(float(a)))
            assert rep.remainder_bound == pytest.approx(want, abs=1e-12), name


class TestApproxFromPartial:
    def test_n_equals_N(self, corpus):
        f = corpus["basel.json"]
        enc = approx_from_partial(f, 7, 7)
        assert enc.value == direct_sum(f, 0, 7)
        assert enc.radius == 0.0

    def test_basel_encloses_direct(self, corpus):
        f = corpus["basel.json"]
        enc = approx_from_partial(f, 10, 1000)
        assert enc.contains(direct_sum(f, 0, 1000))

    def test_monotone_radius(self, corpus):
        f = corpus["harmonic.json"]
        tol = 1e-9
        enc = approx_from_partial(f, 0, 10, tol)
        assert enc.radius <= 0.5 * abs(f(10.0) - f(0.0)) + tol

    def test_telescoping_consistency(self, corpus):
        f = corpus["exp_decay.json"]
        n, N = 4, 30
        lhs = direct_sum(f, 0, N) - direct_sum(f, 0, n)
        assert lhs == pytest.approx(direct_sum(f, n, N), abs=1e-12)
        rep = em_finite_sum(f, n, N)
        enc = approx_from_partial(f, n, N)
        assert enc.value == pytest.approx(
            direct_sum(f, 0, n) + rep.approx.value - rep.exact_sum + lhs, abs=1e-9)


class TestGamma:
    def test_zero_is_empty(self, corpus):
        enc = gamma_partial(corpus["harmonic.json"], 0)
        assert (enc.value, enc.radius) == (0.0, 0.0)

    def test_linear(self, corpus):
        enc = gamma_partial(corpus["linear.json"], 10, 1e-9)
        assert enc.contains(-5.0)

    def test_harmonic_gamma_100(self, corpus):
        # oracle: H_100 - ln(101) by high-precision summation
        want = harmonic_number(100) - math.log(101.0)
        enc = gamma_partial(corpus["harmonic.json"], 100)
        assert want == pytest.approx(0.572257000798361, abs=1e-12)
        assert enc.contains(want, slack=1e-12)

    def test_euler_constant_n0(self, corpus):
        rep = euler_constant(corpus["harmonic.json"], 0)
        assert rep.gamma_estimate.value == 0.5
        assert rep.gamma_estimate.radius == 0.5
        assert rep.gamma_estimate.contains(EULER_GAMMA)

    def test_euler_constant_n100(self, corpus):
        rep = euler_constant(corpus["harmonic.json"], 100)
        est = rep.gamma_estimate
        assert est.value == pytest.approx(0.5772074958478659, abs=1e-12)
        assert est.radius <= 0.5 / 101.0 + 1e-8
        assert est.contains(EULER_GAMMA)

    def test_nonincreasing_radius_is_half_f_n(self, corpus):
        f = corpus["basel.json"]
        tol = 1e-9
        for n in (1, 5, 20):
            rep = euler_constant(f, n, tol)
            assert rep.gamma_estimate.radius <= 0.5 * f(float(n)) + tol

    def test_estimates_shrink_and_intersect(self, corpus):
        f = corpus["harmonic.json"]
        reps = [euler_constant(f, n).gamma_estimate for n in (1, 10, 100, 1000)]
        radii = [r.radius for r in reps]
        assert radii == sorted(radii, reverse=True)
        for a in reps:
            for b in reps:
                assert abs(a.value - b.value) <= a.radius + b.radius


class TestSeries:
    def test_classification(self, corpus):
        assert classify_convergence(corpus["basel.json"]) is Convergence.BOTH_CONVERGE
        assert classify_convergence(corpus["exp_decay.json"]) is Convergence.BOTH_CONVERGE
        assert classify_convergence(corpus["harmonic.json"]) is Convergence.BOTH_DIVERGE
        assert classify_convergence(corpus["constant.json"]) is Convergence.BOTH_DIVERGE
        assert classify_convergence(corpus["atan_bounded.json"]) is Convergence.BOTH_DIVERGE

    def test_basel_n10_example(self, corpus):
        enc = series_sum(corpus["basel.json"], 10)
        assert enc.value == pytest.approx(1.6448090534805904, abs=1e-12)
        assert enc.radius <= 0.5 / 121.0 + 1e-8
        assert enc.contains(BASEL_SUM)

    def test_divergent_raises(self, corpus):
        with pytest.raises(SeriesDivergent):
            series_sum(corpus["harmonic.json"], 10)

    def test_zero_series(self):
        f = validate({
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [{"interval": [0, "inf"], "expr": "0",
                        "direction": "const", "left_limit": 0,
                        "right_limit": 0, "antiderivative": "0"}],
            "breakpoints": [],
            "tail": {"limit": 0, "antiderivative": "0", "antiderivative_limit": 0},
        })
        enc = series_sum(f, 5)
        assert (enc.value, enc.radius) == (0.0, 0.0)

    def test_geometric_series(self, corpus):
        f = corpus["exp_decay.json"]
        want = 1.0 / (1.0 - math.exp(-1.0))
        for n in (0, 5, 25):
            enc = series_sum(f, n)
            assert enc.contains(want), n

    def test_no_antiderivative_check_in_series_sum(self, corpus, monkeypatch):
        # validate checked the tail antiderivative once; the data is immutable
        import bvsum.bv as bv
        calls = []
        real = bv._antiderivative_scores

        def counting(checks):
            calls.append(checks)
            return real(checks)

        monkeypatch.setattr(bv, "_antiderivative_scores", counting)
        assert series_sum(corpus["basel.json"], 10).contains(BASEL_SUM)
        with pytest.raises(SeriesDivergent):
            series_sum(corpus["harmonic.json"], 10)
        assert calls == []

    def test_enclosures_intersect_and_shrink(self, corpus):
        f = corpus["basel.json"]
        e1 = series_sum(f, 10)
        e2 = series_sum(f, 40)
        assert abs(e1.value - e2.value) <= e1.radius + e2.radius
        assert e2.radius < e1.radius
        assert e1.contains(BASEL_SUM) and e2.contains(BASEL_SUM)


class TestAsymptotics:
    def test_constant_exact(self, corpus):
        f = corpus["constant.json"]
        enc = asymptotic_sum(f, 50, 1e-9)
        assert enc.contains(150.0)
        assert enc.radius <= 1e-8

    def test_direct_sums_inside_enclosure(self, corpus):
        for name in ("harmonic.json", "basel.json", "exp_decay.json",
                     "atan_bounded.json", "constant.json"):
            f = corpus[name]
            for n in (1, 10, 100):
                enc = asymptotic_sum(f, n)
                assert enc.contains(direct_sum(f, 0, n)), (name, n)

    def test_harmonic_radius(self, corpus):
        f = corpus["harmonic.json"]
        enc = asymptotic_sum(f, 100, 1e-9)
        gamma_rad = euler_constant(f, 10_000, 1e-9).gamma_estimate.radius
        assert enc.contains(harmonic_number(100))
        assert enc.radius <= 1.0 / 101.0 + gamma_rad + 1e-9


class TestMidvalueIdentity:
    def test_floor_closed_form(self, corpus):
        rep = em_midvalue_check(corpus["floor_steps.json"], 0, 3)
        assert rep.lhs == 1.5
        assert rep.rhs == pytest.approx(1.5, abs=1e-12)
        assert rep.passed

    def test_linear(self, corpus):
        rep = em_midvalue_check(corpus["linear.json"], 0, 2)
        assert rep.lhs == 1.0
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_jump_at_quarter(self, corpus):
        rep = em_midvalue_check(corpus["step_quarter.json"], 0, 1)
        assert rep.passed
        # both sides equal 1/2 here: lhs = f_m(0) = 0; rhs picks up the
        # atom beta1(1/4) * 1 = -1/4 against integral 3/4 and boundary -1/2
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_corpus_within_radii(self, corpus):
        for name, f in corpus.items():
            b = int(min(10.0, math.floor(f.domain_hi - 0.25)) if not f.is_half_line
                    else 10)
            if b < 1:
                continue
            rep = em_midvalue_check(f, 0, b, 1e-6)
            assert rep.passed, (name, rep.residual, rep.budget)


class TestPartsIdentity:
    def test_x_with_itself(self, corpus):
        lin = corpus["linear.json"]
        rep = parts_check(lin, lin, 0, 1, 1e-5)
        assert rep.rhs == 1.0
        assert rep.passed

    def test_constant_reduces_to_measure(self, corpus):
        f = corpus["mixed_jumps.json"]
        one = validate({
            "domain": {"lo": 0, "hi": 60},
            "pieces": [{"interval": [0, 60], "expr": "1", "direction": "const",
                        "left_limit": 1, "right_limit": 1}],
            "breakpoints": [],
        })
        rep = parts_check(one, f, 1, 7, 1e-6)
        assert rep.passed

    def test_pairs_with_shared_and_disjoint_jumps(self, corpus):
        pairs = [
            ("step_half.json", "rho_nonint.json"),   # shared jump at 0.5
            ("step_quarter.json", "step_half.json"),  # disjoint jumps
            ("harmonic.json", "step_half.json"),      # smooth vs jump
            ("vshape.json", "linear.json"),           # continuous pair
            ("mixed_jumps.json", "floor_steps.json"),  # shared jump at 4
        ]
        for fa, fb in pairs:
            f, g = corpus[fa], corpus[fb]
            lo = max(f.domain_lo, g.domain_lo)
            a = 0 if lo <= 0 else int(math.ceil(lo))
            b = a + 2
            rep = parts_check(f, g, a, b, 1e-5)
            assert rep.passed, (fa, fb, rep.residual, rep.budget)


# ---------------------------------------------------------------------------
# The direct sum streams each piece's compiled evaluator over the integers
# inside it; it must equal the term-by-term sum of evaluate() bit for bit.

def ref_direct_sum(f, a, b):
    return math.fsum(evaluate(f, float(k)) for k in range(a, b))


def _sum_outcome(fn, *args):
    try:
        return ("value", struct.pack("<d", fn(*args)))
    except EvalError as e:
        return ("error", e.kind, e.x)
    except DomainError as e:
        return ("domain", str(e))
    except (OverflowError, ValueError) as e:  # math.fsum's own
        return ("fsum", type(e).__name__, str(e))


def _ranges(f):
    lo = math.ceil(f.domain_lo)
    hi = math.floor(f.domain_hi) if math.isfinite(f.domain_hi) else lo + 120
    out = [(lo, hi + 1), (lo, hi), (lo, lo + 1), (lo, lo + 2), (lo + 1, lo + 6),
           (lo + 2, lo + 3), (hi - 3, hi + 1), (hi, hi + 1), (lo + 3, lo + 3),
           (lo + 5, lo + 2)]
    out += [(math.floor(bp.x) - 1, math.floor(bp.x) + 2) for bp in f.breakpoints
            if lo < bp.x < hi]
    if f.is_half_line:
        out += [(1000, 1300), (10**6, 10**6 + 50), (lo, 2000)]
    return out


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_direct_sum_matches_evaluate_term_by_term(corpus, name):
    f = corpus[name]
    for g in (f, *jordan_decompose(f)):
        for a, b in _ranges(g):
            assert _sum_outcome(_direct_sum, g, a, b) == \
                _sum_outcome(ref_direct_sum, g, a, b), (name, a, b)


def test_direct_sum_ranges_reach_the_conventions(corpus):
    # integer breakpoints whose value is not the mid-value, a breakpoint
    # between integers, and domain_lo with and without one
    for name in ("mixed_jumps.json", "floor_steps.json", "frac_sawtooth.json",
                 "rho_int.json"):
        f = corpus[name]
        assert any(bp.x.is_integer() and bp.value != 0.5 * (bp.left_value + bp.right_value)
                   for bp in f.breakpoints), name
    assert [bp.x for bp in corpus["step_half.json"].breakpoints] == [0.5]
    assert corpus["harmonic.json"].breakpoint_at(0.0) is not None
    assert corpus["exp_decay.json"].breakpoint_at(-1.0) is None
    assert _direct_sum(corpus["exp_decay.json"], -1, 0) == math.e
    assert not float(corpus["floor_steps.json"].domain_hi).is_integer()


def _overflowing():
    # x up to 10, then exp(x), which overflows at 710: a spec validate
    # would refuse, built directly
    return BvFunction(0.0, 1000.0, (Breakpoint(10.0, 10.0, 10.0, math.exp(10.0)),),
                      (MonotonePiece(0.0, 10.0, parse("x"), "inc", 0.0, 10.0),
                       MonotonePiece(10.0, 1000.0, parse("exp(x)"), "inc",
                                     math.exp(10.0), 1e308)))


def test_direct_sum_fails_at_the_first_failing_integer():
    f = _overflowing()
    for a, b in ((0, 1000), (5, 711), (700, 800), (0, 710)):
        want = _sum_outcome(ref_direct_sum, f, a, b)
        assert _sum_outcome(_direct_sum, f, a, b) == want
    assert _sum_outcome(_direct_sum, f, 0, 1000) == ("error", "overflow", 710.0)


def test_direct_sum_memory_does_not_grow_with_the_range(corpus):
    f = corpus["harmonic.json"]
    _direct_sum(f, 0, 10)  # compile outside the traced window
    tracemalloc.start()
    try:
        _direct_sum(f, 0, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a list of the terms would take ~6 MB


def test_direct_sum_compiles_only_the_pieces_it_overlaps():
    # 512 pieces (i + 0.5, i + 1.5), each around the integer i + 1
    bps = tuple(Breakpoint(i + 0.5, float(i), float(i), float(i)) for i in range(1, 512))
    pieces = tuple(MonotonePiece(i + 0.5, i + 1.5, parse(f"{i}+0*x"), "const",
                                 float(i), float(i)) for i in range(512))
    f = BvFunction(0.5, 512.5, bps, pieces)
    assert _direct_sum(f, 100, 102) == ref_direct_sum(f, 100, 102) == 99.0 + 100.0
    compiled = [i for i, p in enumerate(f.pieces) if "compiled" in vars(p.evaluator)]
    assert compiled == [99, 100]
    assert [i for i, p in enumerate(f.pieces) if "block" in vars(p.evaluator)] == compiled


def test_direct_sum_of_lone_integers_skips_the_block_kernel():
    # pieces (i + 0.5, i + 1.5) each hold the one integer i + 1, and the
    # piece around 7 fails there; pieces (2i + 0.5, 2i + 2.5) hold two
    lone = BvFunction(0.5, 12.5, tuple(Breakpoint(i + 0.5, 0.0, 0.0, 0.0) for i in range(1, 12)),
                      tuple(MonotonePiece(i + 0.5, i + 1.5,
                                          parse(f"1/(x-{7 if i == 6 else 0.25 * i})"), "inc",
                                          0.0, 0.0) for i in range(12)))
    pairs = BvFunction(0.5, 12.5, tuple(Breakpoint(2 * i + 0.5, 0.0, 0.0, 0.0) for i in range(1, 6)),
                       tuple(MonotonePiece(2 * i + 0.5, 2 * i + 2.5, parse(f"{i}+exp(-x)"), "dec",
                                           0.0, 0.0) for i in range(6)))
    kernels = []
    for f in (lone, pairs):
        for p in f.pieces:
            p.evaluator.compiled  # which would set block again
            vars(p.evaluator)["block"] = lambda s, t, p=p: kernels.append((s, t)) or \
                [p.evaluator.compiled(float(k)) for k in range(s, t)]
    for a, b in ((1, 7), (1, 8), (3, 13), (1, 13)):
        assert _sum_outcome(_direct_sum, lone, a, b) == _sum_outcome(ref_direct_sum, lone, a, b)
        assert _sum_outcome(_direct_sum, pairs, a, b) == \
            _sum_outcome(ref_direct_sum, pairs, a, b)
    assert _sum_outcome(_direct_sum, lone, 1, 8)[0] == "error"
    # runs of two or more integers only, each within a piece of pairs
    assert kernels and all(t - s > 1 and (s - 1) // 2 == (t - 2) // 2 for s, t in kernels)


def _one_piece(text, lo=0.0, hi=20_000.0):
    # a spec validate might refuse, built directly
    return BvFunction(lo, hi, (), (MonotonePiece(lo, hi, parse(text), "inc", 0.0, 0.0),))


@pytest.mark.parametrize("text", [
    # masking ops hide an overflow from the block's total
    "atan(x*1e308)", "1/(x*1e308)", "exp(-x*1e308)", "pow(1, x*1e308)",
    # math.fsum overflows, before or after a failing integer
    "1e308+0*x", "1e308+1/(x-5)", "1e308+1/(x-1)",
    # the first failing integer first, second or last in a block, in the
    # first or a later block, or in every block
    "1/(x-1)", "1/(x-2)", "1/(x-4096)", "1/(x-4097)", "1/(x-8192)",
    "1/(x-8193)", "log(x-4096)", "sqrt(4097-x)", "log(-x)",
    # no failure: ranges straddle the blocks
    "x", "x*x-3", "exp(-x/1000)*sin(x)"])
def test_direct_sum_blocks_match_evaluate_term_by_term(text):
    # the blocks of (0, 20000) start at 1, 4097, 8193, ...
    assert _BLOCK == 4096
    f = _one_piece(text)
    for a, b in ((1, 20), (0, 4097), (0, 4098), (1, 4097), (1, 4098), (4090, 4100),
                 (4096, 8193), (4097, 8194), (0, 12_300), (8192, 8194)):
        assert _sum_outcome(_direct_sum, f, a, b) == \
            _sum_outcome(ref_direct_sum, f, a, b), (text, a, b)


def test_direct_sum_past_2_53_matches_evaluate_term_by_term():
    # above 2^53 the float of an integer inside a piece can round onto the
    # breakpoint at the piece's end, whose stored value evaluate() gives
    big = 2.0 ** 53
    f = BvFunction(0.0, 2.0 ** 60, (Breakpoint(big, 1.0, 5.0, 2.0),),
                   (MonotonePiece(0.0, big, parse("1+0*x"), "const", 1.0, 1.0),
                    MonotonePiece(big, 2.0 ** 60, parse("2+0*x"), "const", 2.0, 2.0)))
    n = 2 ** 53
    assert _direct_sum(f, n - 1, n + 2) == ref_direct_sum(f, n - 1, n + 2) == 11.0
    # the exact floats up to 2^53, on both sides, across blocks
    up = _one_piece("x-9007199254740000", 0.0, 2.0 ** 60)
    down = _one_piece("x+9007199254740000", -(2.0 ** 60), 0.0)
    for g, a, b in ((up, n - 5000, n + 3), (up, n - 2, n + 9),
                    (down, -n - 9, -n + 5000), (down, -n - 3, -n + 2)):
        assert _sum_outcome(_direct_sum, g, a, b) == \
            _sum_outcome(ref_direct_sum, g, a, b), (a, b)


# A block on which a monotone evaluator is one zero at both ends is that
# zero throughout, and adds it to the sum once.  The expressions below
# underflow to 0.0 or -0.0 past some x, are 0 times x, or have a base or
# divisor that changes sign (and may fail at its zero); the ranges start
# on either side of the underflow and run over several blocks.  A sin or
# cos is monotone on a run within one branch, where a tiny coefficient
# rounds it to zero near its own zero: a run whose ends are zero in two
# branches is not zero throughout; so is abs of a shifted x.

_coefficients = st.sampled_from([1.0, 2.5, -1.5, 1e-300, -1e-300, 5e-324, 0.0])
_rates = st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0])
_shifts = st.integers(-40, 40).map("{:+d}".format)
_monotone_texts = st.one_of(
    st.builds("{}*exp(-{}*x)".format, _coefficients, _rates),
    st.sampled_from(["-exp(-x)", "exp(-x)", "0*x", "-0*x", "x*0-0"]),
    st.builds("{}/(x{})^{}".format, _coefficients, _shifts, st.integers(1, 60)),
    st.builds("{}*pow(x{}, {})".format, _coefficients, _shifts, st.integers(-60, -1)),
    st.builds("{}/(x{})".format, _coefficients, _shifts),
    st.builds("{}*{}({}*x{})".format, _coefficients, st.sampled_from(["sin", "cos"]),
              st.sampled_from([1e-3, 2e-3, 0.5, 1.0]), _shifts),
    st.builds("{}*sin({}*abs(x{}))".format, _coefficients, st.sampled_from([1e-3, 0.25]),
              _shifts),
    st.builds("{}*abs(x{})".format, _coefficients, _shifts))


_lengths = st.one_of(st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3,
                                      3 * _BLOCK + 5]),
                    st.integers(0, 3 * _BLOCK + 10))


@settings(max_examples=100, deadline=None)
@given(_monotone_texts, st.integers(-99, 2500), _lengths)
# zero at both ends of a block, but the base or divisor is 0 inside
@example("1e-300*pow(x+3, -60)", -99, 200)
@example("5e-324/(x-7)^2", -99, 3000)
# zero at both ends, in two branches, and not zero between them
@example("5e-324*sin(0.001*x+0)", -10, 3200)
@example("5e-324*cos(0.001*x+0)", 1560, 3200)
def test_direct_sum_of_zero_blocks_matches_evaluate_term_by_term(text, a, n):
    f = _one_piece(text, -100.0, 40_000.0)
    assert _sum_outcome(_direct_sum, f, a, a + n) == _sum_outcome(ref_direct_sum, f, a, a + n)


def test_zero_blocks_skip_their_comprehension():
    # the blocks of (3000, 3000 + 3 * _BLOCK) are all 0.0: each evaluates
    # exp at its two ends only, not at its 4096 integers
    f = _one_piece("7*exp(-(x+0.25)/3)", 0.0, 40_000.0)
    calls = []

    def exp(v):
        calls.append(v)
        return math.exp(v)

    with mock.patch.dict(ex._NAMES, {"exp": exp}):
        assert _direct_sum(f, 3000, 3000 + 3 * _BLOCK) == 0.0
        assert len(calls) == 2 * 3
        calls.clear()
        # a block that is not zero throughout runs whole
        assert _direct_sum(f, 1000, 1000 + _BLOCK) == ref_direct_sum(f, 1000, 1000 + _BLOCK)
        assert len(calls) > _BLOCK
