import functools
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsum import (
    DIVERGENT,
    Certified,
    CheckReport,
    DomainError,
    ExteriorLimitRequired,
    IntervalSpec,
    MissingAntiderivative,
    ToleranceUnreachable,
    beta1,
    em_midvalue_check,
    integrate,
    load_function,
    measure_interval,
    parts_check,
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
    mid_value_strict,
    right_limit,
)
from bvsum.errors import BvError
from bvsum.euler_maclaurin import IDENTITY_SLACK
from conftest import corpus_path
from oracles import grid_variation

EPS = sys.float_info.epsilon


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

    @staticmethod
    def _constant(c, lo, hi):
        return validate({
            "domain": {"lo": lo, "hi": hi},
            "pieces": [{"interval": [lo, hi], "expr": repr(c),
                        "direction": "const", "left_limit": c,
                        "right_limit": c}],
            "breakpoints": [],
        })

    def test_constant_piece_rounded_product_has_a_radius(self):
        # 0.1 * 0.3 is rounded: the exact product lies 1.7e-18 away
        enc = integrate(self._constant(0.1, 0, 0.3), 0, 0.3)
        exact = Fraction(0.1) * Fraction(0.3)
        assert 0.0 < enc.radius <= 1e-16
        assert abs(Fraction(enc.value) - exact) <= Fraction(enc.radius)

    @pytest.mark.parametrize("c,hi", [(5e-324, 1.75), (5e-324, 0.75), (3e-320, 1.1),
                                      (-2.5e-310, 0.3)])
    def test_constant_piece_subnormal_product_has_a_radius(self, c, hi):
        # the product rounds below the normal range, where a relative
        # slack underflows to 0
        enc = integrate(self._constant(c, 0, 2), 0, hi)
        exact = Fraction(c) * Fraction(hi)
        assert Fraction(enc.value) != exact
        assert abs(Fraction(enc.value) - exact) <= Fraction(enc.radius)

    def test_constant_piece_overflowing_product_is_refused(self):
        # 1e308 * 2 overflows; Certified refuses the infinite value
        with pytest.raises(ValueError, match="non-finite"):
            integrate(self._constant(1e308, 0, 2), 0, 2)

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
        # far under the rounding floor of the bracket, about 7.4e-13 here
        with pytest.raises(ToleranceUnreachable):
            integrate(f, 0, 10, 1e-15)

    def test_outside_domain(self, corpus):
        with pytest.raises(DomainError):
            integrate(corpus["vshape.json"], 0, 10)

    @pytest.mark.parametrize("piece,want", [
        (("exp(x)", 0, 1, "inc", 1, math.e), math.e - 1),
        (("sqrt(x)", 0, 4, "inc", 0, 2), 16 / 3),
        (("1/(1+x)", 0, 10, "dec", 1, 1 / 11), math.log(11)),
        (("atan(x-1)", 0, 2, "inc", -math.pi / 4, math.pi / 4), 0.0),
        (("2*x+1", 0, 3, "inc", 1, 7), 12.0),
    ], ids=["exp", "sqrt", "recip", "atan", "linear"])
    def test_default_tol_without_antiderivative(self, piece, want):
        # shapes the a-priori Darboux cell count could not reach at 1e-10
        enc = integrate(bare(*piece), piece[1], piece[2])
        assert enc.radius <= 1e-10
        assert enc.contains(want, slack=1e-15)


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
        # the atom's product keeps the ulp-scale radius of _slack
        assert 0.0 < res.radius <= 1e-15
        assert res.atom_contribution == -0.25

    def test_floor_vanishes(self, corpus):
        res = stieltjes_beta1(corpus["floor_steps.json"], 0, 3)
        assert res.value == 0.0
        assert res.radius == 0.0

    def test_result_split_invariant(self, corpus):
        res = stieltjes_beta1(corpus["mixed_jumps.json"], 0, 6, 1e-8)
        assert res.value == res.atom_contribution + res.continuous_contribution.value
        assert res.radius == res.continuous_contribution.radius

    @staticmethod
    def steps(xs, levels):
        """Constant pieces on [-2, 2] with a breakpoint at each x of xs,
        levels[i] the value after the i-th."""
        cuts = [-2.0, *xs, 2.0]
        return validate({
            "domain": {"lo": -2, "hi": 2},
            "pieces": [{"interval": [s, t], "expr": repr(v), "direction": "const",
                        "left_limit": v, "right_limit": v}
                       for s, t, v in zip(cuts, cuts[1:], levels)],
            "breakpoints": [{"x": x, "left": l, "value": r, "right": r}
                            for x, l, r in zip(xs, levels, levels[1:])]})

    @staticmethod
    def exact_atoms(f, lo, hi):
        """The sum of beta1(x) * jump over the stored floats, exactly."""
        total = Fraction(0)
        for bp in f.breakpoints:
            if lo < bp.x < hi:
                fr = Fraction(bp.x) - math.floor(bp.x)
                total += (fr - Fraction(1, 2) if fr else 0) * \
                    (Fraction(bp.right_value) - Fraction(bp.left_value))
        return total

    def test_atoms_cover_their_rounding(self):
        # (0.3 - 1/2) * (1/3) rounds: the radius was 0 and missed by 9.3e-19
        f = self.steps([0.3], [0.0, 1 / 3])
        res = stieltjes_beta1(f, -1, 2, 1e-8)
        assert res.value == -0.06666666666666667 and res.radius > 0.0
        assert abs(Fraction(res.value) - self.exact_atoms(f, -1, 2)) <= res.radius
        # beta1 itself rounds below 1/4: here to 0 at the float next to -1/2
        f = self.steps([math.nextafter(-0.5, 0.0)], [0.0, 1.0])
        res = stieltjes_beta1(f, -1, 2, 1e-8)
        assert res.value == 0.0 and 0.0 < res.radius <= 1e-8
        assert abs(Fraction(res.value) - self.exact_atoms(f, -1, 2)) <= res.radius

    @settings(deadline=None)
    @given(st.lists(st.floats(-1.99, 1.99).filter(lambda x: x != 0.0), min_size=1, max_size=6,
                    unique=True).map(sorted),
           st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300)),
                    min_size=7, max_size=7),
           st.integers(-2, 0))
    def test_atoms_contain_the_exact_sum(self, xs, levels, lo):
        f = self.steps(xs, levels[:len(xs) + 1])
        res = stieltjes_beta1(f, lo, 2, 1e-6)
        assert res.radius <= 1e-6 and res.continuous_contribution == Certified(0.0, 0.0)
        assert abs(Fraction(res.value) - self.exact_atoms(f, lo, 2)) <= Fraction(res.radius)

    def test_a_piece_one_ulp_wide(self):
        # the cell between 1.9899999999999998 and 1.99 has its middle on
        # its left end: its piece is found by its ends
        xs = [1.9899999999999998, 1.99]
        assert math.nextafter(xs[0], 2.0) == xs[1] and 0.5 * (xs[0] + xs[1]) == xs[0]
        f = self.steps(xs, [1.0, 2.0, 4.0])
        res = stieltjes_beta1(f, 0, 2, 1e-6)
        assert res.continuous_contribution == Certified(0.0, 0.0)
        assert abs(Fraction(res.value) - self.exact_atoms(f, 0, 2)) <= Fraction(res.radius)

    @staticmethod
    def scalar_atoms(f, lo, hi):
        """(value, radius) of the atoms, one float operation at a time: the
        terms' sum, and _slack of the terms plus each jump's rounding of
        beta1 below x = 1/4 and one subnormal ulp for a product below the
        normal range."""
        terms, errors = [], []
        for bp in f.breakpoints:
            if lo < bp.x < hi:
                b, jump = beta1(bp.x), bp.jump
                terms.append(b * jump)
                if jump != 0.0:
                    errors.append((0.0 if bp.x >= 0.25 else 0.5 * EPS) * abs(jump)
                                  + (5e-324 if b != 0.0 and abs(b * jump) < sys.float_info.min
                                     else 0.0))
        return math.fsum(terms), measure._slack(*terms) + math.fsum(errors)

    @settings(deadline=None)
    @given(st.lists(st.floats(-1.99, 1.99).filter(lambda x: x != 0.0), min_size=1, max_size=6,
                    unique=True).map(sorted),
           st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300)),
                    min_size=7, max_size=7),
           st.integers(-2, 0))
    def test_atoms_bit_equal_to_a_scalar_loop(self, xs, levels, lo):
        # the atoms are computed as columns of the breakpoints; without a
        # continuous part the result is theirs alone
        f = self.steps(xs, levels[:len(xs) + 1])
        res = stieltjes_beta1(f, lo, 2, 1.0)
        value, radius = self.scalar_atoms(f, lo, 2)
        assert (repr(res.atom_contribution), repr(res.radius)) == (repr(value), repr(radius))

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
        got = stieltjes_midvalue(lin, lin, 0, 1, 1e-12)
        assert got.contains(0.5)
        assert got.radius <= 1e-12

    def test_atom_at_left_end_included(self, corpus):
        f = corpus["floor_steps.json"]   # unit jump at every integer
        g = corpus["linear.json"]
        # [1, 2[ contains the atom at 1 with g_m(1) = 1
        got = stieltjes_midvalue(g, f, 1, 2, 1e-8)
        assert got.contains(1.0, slack=1e-12)

    def test_a_cell_one_ulp_wide(self):
        # f rises by rise on the one-ulp piece between 1.9899999999999998
        # and 1.99, whose cell has its middle on its left end: its piece is
        # found by its ends, and the cell is integrated
        a, b = 1.9899999999999998, 1.99
        rise = 1e17 * (b - a)
        f = validate({
            "domain": {"lo": 0, "hi": 2},
            "pieces": [{"interval": [0, a], "expr": "0", "direction": "const",
                        "left_limit": 0, "right_limit": 0},
                       {"interval": [a, b], "expr": f"1e17*(x-{a!r})", "direction": "inc",
                        "left_limit": 0, "right_limit": rise},
                       {"interval": [b, 2], "expr": repr(rise), "direction": "const",
                        "left_limit": rise, "right_limit": rise}],
            "breakpoints": [{"x": a, "left": 0, "value": 0, "right": 0},
                            {"x": b, "left": rise, "value": rise, "right": rise}]})
        one = bare("1", 0, 2, "const", 1, 1)
        got = stieltjes_midvalue(one, f, 0, 2, 1e-6)
        assert got.contains(rise, slack=1e-12)


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


def ref_bracket_sums(e, s, t, N, v0, vn, delta):
    """Per chunk of the N-cell grid of the bracket route: the sum of its
    values but its first point and the grid's ends, and the sum of its
    bracket cells' half-gaps in units of half a step.  A chunk takes the
    point beyond each end that is not the grid's; the walker's sums must
    equal these bit for bit."""
    for start in range(0, N, measure._CHUNK):
        stop = min(N, start + measure._CHUNK)
        lo, hi = max(start - 1, 0), min(stop + 1, N)
        xs = s + (t - s) * (np.arange(lo, hi + 1, dtype=np.float64) / N)
        y = np.empty(len(xs))
        i, j = int(lo == 0), len(xs) - int(hi == N)
        y[i:j] = ex.eval_expr(e, xs[i:j])
        y[0] = v0 if lo == 0 else y[0]
        y[-1] = vn if hi == N else y[-1]
        d = np.zeros(len(y))
        d[1:-1] = y[:-2] - 2 * y[1:-1] + y[2:]
        k = start - lo
        yc, dc = y[k:k + stop - start + 1], d[k:k + stop - start + 1]
        mid = dc[1::2]
        lows = np.minimum(np.minimum(dc[:-1:2], mid), dc[2::2])
        highs = np.maximum(np.maximum(dc[:-1:2], mid), dc[2::2])
        convex, concave = lows >= -delta, highs <= delta
        gap = np.select([convex & concave, convex, concave],
                        [np.abs(mid) + 4 * delta, np.maximum(mid, 0.0),
                         np.maximum(-mid, 0.0)],
                        np.abs(yc[2::2] - yc[:-2:2]))
        yield float(np.sum(yc[1:len(yc) - int(stop == N)])), float(np.sum(gap))


class TestGridWalker:
    PIECES = [
        ("1/(1+x)", 0.0, 10.0, "dec", 1.0, 1 / 11),
        ("exp(x)", 0.0, 1.0, "inc", 1.0, math.e),
        ("sqrt(x)", 0.0, 3.0, "inc", 0.0, math.sqrt(3.0)),
        ("sin(x)", 0.0, 1.5, "inc", 0.0, math.sin(1.5)),
        ("atan(x)+x^3", -1.0, 2.0, "inc", -math.pi / 4 - 1, math.atan(2) + 8),
        ("atan(x-1)", 0.0, 2.0, "inc", -math.pi / 4, math.pi / 4),
        ("3*x+1", 0.0, 1.0, "inc", 1.0, 4.0),
    ]

    # one chunk, one chunk in blocks, three chunks that share pads
    @pytest.mark.parametrize("n", [64, 1 << 20, 3 << 20])
    @pytest.mark.parametrize("piece", PIECES, ids=[p[0] for p in PIECES])
    def test_bracket_sums_bit_equal_to_reference(self, piece, n):
        f = bare(*piece)
        p = f.pieces[0]
        s, t = p.lo + 0.125, p.hi  # one end evaluated, one from the limit
        v0, vn = ex.eval_expr(p.evaluator, s), p.right_boundary_limit
        delta = ref_rounding(s, t, v0, vn)[0]
        # s, width, term, then the route's v0, vn, delta
        cols = np.array([[s], [t - s], [0.0], [v0], [vn], [delta]])
        sums = measure._walk(np.array([0]), np.array([n]), np.array([[0]]), cols,
                             ex.rows_of([p.evaluator]),
                             measure._bracket_terms, {})
        assert list(zip(*sums[:, 0].tolist())) == \
            list(ref_bracket_sums(p.evaluator, s, t, n, v0, vn, delta))

    # the first grid, one chunk in blocks, three chunks that share pads
    @pytest.mark.parametrize("n", [64, 1 << 20, 3 << 20])
    @pytest.mark.parametrize("route", ["bracket", "midvalue"])
    def test_a_block_evaluates_its_points_and_pads_once(self, route, n):
        # two segments; per block, each row's points are those of its grid
        # from the point before the block's first to the point after its
        # last, each once, a grid's end standing at the point beside it
        s, t = np.array([0.0, 0.125]), np.array([0.5, 1.0])
        e = bare("3*x+1", 0.0, 1.0, "inc", 1.0, 4.0).pieces[0].evaluator
        if route == "bracket":
            # s, width, term, v0, vn, delta
            cols = np.array([s, t - s, [0.0] * 2, 3 * s + 1, 3 * t + 1, [1e-15] * 2])
            prow, terms = np.array([[0, 1]]), measure._bracket_terms
        else:
            # s, width, term, u0, g0, un, gn, eu, eg
            cols = np.array([s, t - s, [0.0] * 2, 3 * s + 1, 3 * s + 1, 3 * t + 1,
                             3 * t + 1, [1e-15] * 2, [1e-15] * 2])
            prow, terms = np.array([[0, 1], [0, 1]]), measure._mid_terms
        plan, spans = ex.rows_of([e, e]), {0: [], 1: []}  # row i of plan is segment i's

        def run(xs, rows):
            a, w = s[rows, None], (t - s)[rows, None]
            k = np.rint((xs[0] - a[0]) / w[0] * n).astype(int)
            p0, p1 = int(k[0]) - (k[0] == k[1]), int(k[-1]) + (k[-1] == k[-2])
            want = np.arange(p0, p1 + 1, dtype=np.float64) / n
            want[0], want[-1] = want[max(p0, 1) - p0], want[min(p1, n - 1) - p0]
            assert np.array_equal(xs, a + w * want)
            for i in set(rows.tolist()):
                spans[i].append((p0, p1))
            return plan(xs, rows)

        measure._walk(np.array([0, 1]), np.array([n, n]), prow, cols, run, terms, {})
        # per segment, the blocks tile the grid, the pads of one the points
        # of the next
        for blocks in spans.values():
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(b[0] == a[1] - 2 for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) == {64: 1, 1 << 20: 33, 3 << 20: 99}[n]

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
# The engine refines all segments of a call together.  Per-segment
# routines are kept here as references: every value, radius, error kind
# and refusal must be theirs, bit for bit.


def ref_rounding(s, t, v0, vn):
    """(delta, term): the rounding model of the bracket route, written
    out again.  delta: 4 ulps of max|f| per sample and an ulp of
    max(|s|, |t|) per point at f's mean slope; term: (t - s) * delta plus
    256 ulps of (t - s) * max|f| for the sums."""
    big = max(abs(v0), abs(vn))
    delta = 8.0 * EPS * (4 * big + max(abs(s), abs(t)) * abs(vn - v0) / (t - s))
    return delta, (t - s) * (delta + 256 * EPS * big)


def ref_bracket_segment(p, s, t, share):
    v0, vn = _segment_endpoint_values(p, s, t)
    delta, term = ref_rounding(s, t, v0, vn)
    budget = share - term
    n = 64
    while True:
        sums = list(ref_bracket_sums(p.evaluator, s, t, n, v0, vn, delta))
        h = (t - s) / n
        value = h * (math.fsum([v0, vn, *(v for v, _ in sums)]) - 0.5 * (v0 + vn))
        gap = 0.5 * h * math.fsum(g for _, g in sums)
        if gap <= budget:
            return value, gap + term
        if n >= measure.MAX_CELLS:
            raise ToleranceUnreachable(
                f"Bracket refinement hit the {measure.MAX_CELLS}-cell cap on [{s}, {t}]")
        # aim just under the budget, in powers of two
        shift = max(1, math.ceil(0.5 * math.log2(1.2 * gap / max(budget, 1e-300))))
        n = min(measure.MAX_CELLS, n << shift)


def ref_parts_segment(p, s, t, share):
    # by parts: beta1 is x - k - 1/2 on the cell
    v0, vn = _segment_endpoint_values(p, s, t)
    slack = measure._slack(v0, vn, (t - s) * max(abs(v0), abs(vn)))
    value, radius = ref_bracket_segment(p, s, t, share - slack)
    k = math.floor(s)
    return (t - k - 0.5) * vn - (s - k - 0.5) * v0 - value, radius + slack


def ref_mid_rounding(u0, un, g0, gn):
    """(eu, eg, term, widening) of the mid-value route, written out again:
    eu, eg are 8 sample errors (4 ulps of max|f|, max|g|) each; widening
    is eg * |un - u0| + eu * |gn - g0|; term is half of widening plus
    eu * max|g|, and 256 ulps of max|g| * |un - u0| for the sums."""
    big = max(abs(g0), abs(gn))
    eu, eg = 32 * EPS * max(abs(u0), abs(un)), 32 * EPS * big
    widening = eg * abs(un - u0) + eu * abs(gn - g0)
    return eu, eg, 0.5 * (widening + eu * big) + 256 * EPS * big * abs(un - u0), widening


def ref_mid_sums(fe, ge, s, t, N, u0, un, g0, gn, eu, eg):
    """Per chunk of the N-cell grid of the mid-value route: the sums of
    twice the midpoints and twice the widths of its pairs' brackets.  A
    chunk takes the point beyond each end that is not the grid's; the
    walker's sums must equal these bit for bit."""
    for start in range(0, N, measure._CHUNK):
        stop = min(N, start + measure._CHUNK)
        lo, hi = max(start - 1, 0), min(stop + 1, N)
        xs = s + (t - s) * (np.arange(lo, hi + 1, dtype=np.float64) / N)
        i, j = int(lo == 0), len(xs) - int(hi == N)
        u, y = np.empty(len(xs)), np.empty(len(xs))
        u[i:j], y[i:j] = ex.eval_expr(fe, xs[i:j]), ex.eval_expr(ge, xs[i:j])
        if lo == 0:
            u[0], y[0] = u0, g0
        if hi == N:
            u[-1], y[-1] = un, gn
        d, e = np.diff(u), np.diff(y)
        cross, delta = np.zeros(len(xs)), np.zeros(len(xs))
        cross[1:-1] = e[1:] * d[:-1] - e[:-1] * d[1:]
        delta[1:-1] = eg * (abs(d[:-1]) + abs(d[1:])) + eu * (abs(e[:-1]) + abs(e[1:]))
        k = start - lo
        cross, delta = cross[k:k + stop - start + 1], delta[k:k + stop - start + 1]
        y, d, e = y[k:k + stop - start + 1], d[k:k + stop - start], e[k:k + stop - start]
        up, down = cross > delta, cross < -delta
        neither = ((up[:-1:2] | up[1::2] | up[2::2])
                   & (down[:-1:2] | down[1::2] | down[2::2]))
        d1, d2, e1, e2 = d[::2], d[1::2], e[::2], e[1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = abs(d1) / abs(d2)
            rho = r + 1.0 / r
            c, w = cross[1::2] * rho, delta[1::2] * rho
        dd = abs(e1) * abs(d1) + abs(e2) * abs(d2)
        below = np.fmin(np.where(neither, dd, np.maximum(c, 0.0) + w), dd)
        above = np.fmin(np.where(neither, dd, np.maximum(-c, 0.0) + w), dd)
        value = ((y[:-1:2] + y[1::2]) * d1 + (y[1::2] + y[2::2]) * d2
                 + 0.5 * (above - below))
        yield float(np.sum(value)), float(np.sum(below + above))


def ref_stieltjes_mid_segment(g, f, fp, gp, s, t, share):
    ends = (right_limit(f, s), left_limit(f, t), right_limit(g, s), left_limit(g, t))
    eu, eg, term, _ = ref_mid_rounding(*ends)
    budget = share - term
    n = 16
    while True:
        sums = list(ref_mid_sums(fp.evaluator, gp.evaluator, s, t, n, *ends, eu, eg))
        value = 0.5 * math.fsum(v for v, _ in sums)
        gap = 0.25 * math.fsum(w for _, w in sums)
        if gap <= budget:
            # 8 least subnormals a cell for products that round below the
            # normal range, unless g is 0 at both ends
            under = 8 * 5e-324 * n if ends[2] != 0.0 or ends[3] != 0.0 else 0.0
            return value, gap + (term + under)
        if n >= measure.MAX_CELLS:
            raise ToleranceUnreachable(
                f"Stieltjes refinement hit the {measure.MAX_CELLS}-cell cap on [{s}, {t}]")
        shift = max(1, math.ceil(0.5 * math.log2(1.2 * gap / max(budget, 1e-300))))
        n = min(measure.MAX_CELLS, n << shift)


def ref_bracket_weight(p, s, t):
    """(weight, floor) of a bracketed segment: |increment| times width,
    and term plus the widening of flat cells, (t - s) * delta."""
    v0, vn = _segment_endpoint_values(p, s, t)
    delta, term = ref_rounding(s, t, v0, vn)
    return (t - s) * abs(vn - v0) + 1e-300, term + (t - s) * delta


def ref_parts_weight(p, s, t):
    """(weight, floor) of a cell of stieltjes_beta1: the bracket's, and the
    rounding of its parts formula in the floor."""
    v0, vn = _segment_endpoint_values(p, s, t)
    weight, floor = ref_bracket_weight(p, s, t)
    return weight, floor + measure._slack(v0, vn, (t - s) * max(abs(v0), abs(vn)))


def ref_mid_weight(g, f, fp, gp, s, t):
    """(weight, floor) of a mid-value cell: |df| times |dg|, and the
    rounding term plus twice the widening of flat pairs."""
    u0, un, g0, gn = right_limit(f, s), left_limit(f, t), right_limit(g, s), left_limit(g, t)
    _, _, term, widening = ref_mid_rounding(u0, un, g0, gn)
    return abs(un - u0) * abs(g0 - gn) + 1e-300, term + 2.0 * widening


def ref_prepare(route, tol, values, radii, fallback, weigh, wrap=None, reserved=0.0):
    """The prepare phase deferred: a routine's claim is the arguments of
    _prepare, which ref_certify splits and refines.  fallback holds the
    columns of the fallback segments, their pieces by index: a bracketed
    segment's piece is one of the function that weigh, a partial of
    _bracket_columns or _parts_columns, is bound to, and ref_certify
    finds a mid-value segment's pieces in its mid; weigh is left to
    ref_certify."""
    segs = list(zip(*(np.asarray(c).tolist() for c in fallback)))
    if isinstance(weigh, functools.partial):
        pieces = weigh.args[0].pieces
        segs = [(pieces[k], s, t) for k, s, t in segs]
    return route, tol, values, radii, segs, wrap, reserved


def ref_certify(*claims, mid=None):
    """_certify as it was: one routine after the other, its tol split
    and each fallback segment weighed and refined on its own, in order,
    by the references of the route; claims come from ref_prepare, and
    mid is (g, f) of a mid-value call."""
    results = []
    for route, tol, values, radii, fallback, wrap, reserved in claims:
        one, weigh = {
            measure._BRACKET: (ref_bracket_segment, ref_bracket_weight),
            measure._BY_PARTS: (ref_parts_segment, ref_parts_weight),
            measure._MIDVALUE: (functools.partial(ref_stieltjes_mid_segment, *mid or ()),
                                functools.partial(ref_mid_weight, *mid or ())),
        }[route]
        values, radii = list(values), list(radii)
        if route is measure._MIDVALUE:  # pieces of f and g by index
            g, f = mid
            fallback = [(f.pieces[fk], g.pieces[gk], s, t) for fk, gk, s, t in fallback]
        if fallback:
            budget = tol - math.fsum(radii) - reserved
            if budget > 0.0:
                weights, floors = zip(*[weigh(*seg) for seg in fallback])
                budget -= math.fsum(floors)
            if not budget > 0.0:
                raise ToleranceUnreachable(f"tolerance {tol} below rounding floor")
            wsum = math.fsum(weights)
            for seg, w, floor in zip(fallback, weights, floors):
                v, r = one(*seg, floor + budget * w / wsum)
                values.append(v)
                radii.append(r)
        result = measure._total(values, radii)
        if not result.radius <= tol:
            raise ToleranceUnreachable(
                f"achieved radius {result.radius:.3g} exceeds tol {tol:.3g}")
        results.append(result if wrap is None else wrap(result))
    return results


def _outcome(call):
    try:
        return "value", repr(call())
    except (BvError, ex.EvalError) as e:
        return "error", type(e).__name__, str(e)


def assert_as_reference(call, *mid):
    """call's outcome is that of ref_certify; mid is (g, f) of a
    mid-value call."""
    got = _outcome(call)
    with mock.patch.object(measure, "_prepare", ref_prepare), \
            mock.patch.object(measure, "_certify", functools.partial(ref_certify, mid=mid)):
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
    if kind == "log":  # concave
        return f"{base!r}+{spread / math.log1p(k)!r}*log(1+{k / w!r}*{X})", "inc"
    if kind == "near":  # linear but for a curvature of 1e-4 to 1e-16
        c = spread * (k - 1.25) * 10.0 ** (-8 * k) / (w * w)
        return f"{base!r}+{spread / w!r}*{X}+{c!r}*{X}*{X}", "inc"
    if kind == "atan":
        return f"{base!r}+{spread!r}*atan({4 * k / w!r}*(x-{p + w / 2!r}))", "inc"
    return f"{base!r}+{spread!r}*sin({math.pi / w!r}*{X}-{math.pi / 2!r})", "inc"


KINDS = ["lin", "near", "exp", "recip", "sqrt", "log", "atan", "sin"]


@st.composite
def monotone_specs(draw, length, kinds=(*KINDS, "const"), spread=(1e-4, 3e-3),
                   pieces=(1, 5)):
    """A validated spec on [0, length] of pieces[0] to pieces[1] (by
    default up to 5) monotone pieces of the kinds without
    antiderivatives, with jumps and misplaced values."""
    cuts = draw(st.lists(st.integers(1, 8 * length - 1), unique=True,
                         min_size=pieces[0] - 1, max_size=pieces[1] - 1))
    cuts = [0.0, *sorted(c / 8 for c in cuts), float(length)]
    pieces, bps = [], []
    for p, q in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from(kinds))
        base = draw(st.floats(-1.0, 1.0))
        if kind == "const":
            text, direction = repr(base), "const"
        else:
            text, direction = _piece(kind, p, q, draw(st.floats(*spread)), base,
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


def integrate_as_reference(data, tol):
    f = data.draw(monotone_specs(2))
    a = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
    b = data.draw(st.sampled_from([1.0, 1.75, 2.0]))
    assert_as_reference(lambda: integrate(f, a, b, tol))


def beta1_as_reference(data, tol):
    f = data.draw(monotone_specs(3))
    lo = data.draw(st.integers(0, 1))
    assert_as_reference(lambda: stieltjes_beta1(f, lo, 3, tol))


def midvalue_as_reference(data, tol):
    f, g = data.draw(monotone_specs(2)), data.draw(monotone_specs(2))
    hi = data.draw(st.sampled_from([1.5, 2.0]))
    assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, hi, tol), g, f)


class TestBatchedEngine:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_integrate_bit_equal_to_per_segment_refinement(self, data, tol):
        integrate_as_reference(data, tol)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_stieltjes_beta1_bit_equal_to_per_segment_refinement(self, data, tol):
        beta1_as_reference(data, tol)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_stieltjes_midvalue_bit_equal_to_per_segment_refinement(self, data, tol):
        midvalue_as_reference(data, tol)

    # tols so tight that the slack of _parts, which the budget of each
    # cell's bracket leaves out, decides a cell's grid
    @pytest.mark.parametrize("tol", [1.2e-13, 1.3e-13])
    def test_by_parts_budget_leaves_out_the_slack(self, tol):
        f = direct((0, 2, "1/(1+x)", 1.0, 1 / 3, "dec"))
        assert_as_reference(lambda: stieltjes_beta1(f, 0, 2, tol))

    # With small blocks most chunks are walked in many blocks, whose sums
    # must still be those of the whole chunk.
    @pytest.mark.parametrize("batch", [64, 257])
    @pytest.mark.parametrize("case", [integrate_as_reference, beta1_as_reference,
                                      midvalue_as_reference],
                             ids=["integrate", "beta1", "midvalue"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), tol=_tols)
    def test_blocks_bit_equal_to_per_segment_refinement(self, case, batch, data, tol):
        with mock.patch.object(measure, "_BATCH", batch):
            case(data, tol)


# The specs above make at most 5 pieces, so the engine's blocks have few
# rows.  Specs of 8 to 16 pieces on [0, 6], all linear (one expression
# shape) or of interleaved shapes, each with breakpoints inside the other's
# pieces, make blocks of many rows and many shapes.

_many_pieces = functools.partial(monotone_specs, 6, pieces=(8, 16))


def by_segments(call, *mid):
    """call's outcome with the engine replaced by the per-segment
    reference; mid is (g, f) of a mid-value call."""
    with mock.patch.object(measure, "_prepare", ref_prepare), \
            mock.patch.object(measure, "_certify", functools.partial(ref_certify, mid=mid)):
        return _outcome(call)


def ref_parts_check_by_segments(f, g, a, b, tol):
    """ref_parts_check with each integral refined by the reference."""
    i1 = by_segments(lambda: stieltjes_midvalue(g, f, a, b, tol), g, f)
    i2 = by_segments(lambda: stieltjes_midvalue(f, g, a, b, tol), f, g)
    if i1[0] == "error":
        return i1
    if i2[0] == "error":
        return i2
    return _outcome(lambda: ref_parts_check(f, g, a, b, tol))


def assert_many_rows_as_reference(f, g, tol):
    assert_as_reference(lambda: integrate(f, 0.0, 6.0, tol))
    assert_as_reference(lambda: stieltjes_beta1(f, 0, 6, tol))
    assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, 6.0, tol), g, f)
    assert _outcome(lambda: em_midvalue_check(f, 0, 6, tol)) == \
        by_segments(lambda: ref_em_midvalue_check(f, 0, 6, tol))
    assert _outcome(lambda: parts_check(f, g, 0.0, 6.0, tol)) == \
        ref_parts_check_by_segments(f, g, 0.0, 6.0, tol)


class TestManyRowBlocks:
    @pytest.mark.parametrize("kinds", [("lin",), KINDS], ids=["lin", "shapes"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), lg=st.floats(-7.0, -3.0))
    def test_routines_bit_equal_to_per_segment_refinement(self, kinds, data, lg):
        f, g = data.draw(_many_pieces(kinds)), data.draw(_many_pieces(kinds))
        assert_many_rows_as_reference(f, g, 10.0 ** lg)

    @pytest.mark.parametrize("bad", [3, 9])
    def test_a_failing_row_among_many(self, bad):
        # twelve linear pieces of half a unit; piece bad fails past its
        # middle, so one row of a block of many fails
        pieces = [(i / 2, i / 2 + 0.5, f"{i}+0.1*x", i + i / 20, i + i / 20 + 0.05)
                  for i in range(12)]
        mid = bad / 2 + 0.25
        pieces[bad] = (bad / 2, bad / 2 + 0.5, f"{bad}+0.1*x-0*sqrt({mid!r}-x)",
                       *pieces[bad][3:])
        f = direct(*pieces)
        g = direct(*[(lo, hi, f"{lo}*x*x+x", lo ** 3 + lo, hi * hi * lo + hi)
                     for lo, hi in zip(np.arange(0, 6, 0.75), np.arange(0.75, 6.5, 0.75))])
        with pytest.raises(ex.EvalError) as err:
            integrate(f, 0.0, 6.0, 1e-6)
        assert err.value.kind == "sqrt_domain" and err.value.x > mid
        assert_many_rows_as_reference(f, g, 1e-6)
        assert_many_rows_as_reference(g, f, 1e-6)

    # Consecutive segments cycle through four shapes, so a block runs its
    # rows in the layout of their groups, which is not segment order.

    def test_cycling_shapes_bit_equal_to_per_segment_refinement(self):
        f, g = cycling(12, 6.0), cycling(8, 6.0, offset=0.5)
        for tol in (1e-3, 1e-6, 1e-9):
            assert_many_rows_as_reference(f, g, tol)
            assert_many_rows_as_reference(g, f, tol)

    def test_first_failing_segment_in_segment_order(self):
        # pieces 3 (sqrt) and 6 (log) fail on the first halves of their
        # cells; a block runs the log group before the sqrt group, so it
        # meets piece 6's error first, but piece 3 comes first
        bad, ok = cycling(12, 6.0, fail=(3, 6)), cycling(8, 6.0, offset=0.5)
        for call in (lambda: integrate(bad, 0.0, 6.0, 1e-6),
                     lambda: stieltjes_beta1(bad, 0, 6, 1e-6),
                     lambda: stieltjes_midvalue(ok, bad, 0.0, 6.0, 1e-6),
                     lambda: stieltjes_midvalue(bad, ok, 0.0, 6.0, 1e-6)):
            with pytest.raises(ex.EvalError) as err:
                call()
            assert err.value.kind == "sqrt_domain" and 1.5 < err.value.x < 1.75
        assert_many_rows_as_reference(bad, ok, 1e-6)
        assert_many_rows_as_reference(ok, bad, 1e-6)

    @pytest.mark.parametrize("route", ["bracket", "midvalue"])
    @pytest.mark.parametrize("fail", [(), (3, 6)], ids=["pass", "fail"])
    def test_a_block_runs_once_per_shape_group(self, monkeypatch, route, fail):
        f, g = cycling(12, 6.0, fail=fail), cycling(8, 6.0, offset=0.5)
        blocks = []  # per block: its shape groups, runs, rows evaluated alone
        runs, alone, depth = [], [], [0]
        real_run, real_eval, real_block = ex._run, ex._eval_array, measure._block

        def run(*args, **kwargs):
            if not depth[0]:  # a run of a group, not of a lone row
                runs.append(1)
            return real_run(*args, **kwargs)

        def eval_array(prog, x):
            alone.append(1)
            depth[0] += 1
            try:
                return real_eval(prog, x)
            finally:
                depth[0] -= 1

        def block(seg, col, n, prow, plan, *rest):
            r, a = len(runs), len(alone)
            out = real_block(seg, col, n, prow, plan, *rest)
            # a shape group per group number; f's pieces are the plan's
            # first rows, and the groups of its failing rows' runs trip
            groups = plan.group[prow[:, seg].reshape(-1)].tolist()
            tripped = set(plan.group[list(fail)].tolist())
            blocks.append((len(set(groups)), len(runs) - r, len(alone) - a,
                           sum(k in tripped for k in groups)))
            return out

        monkeypatch.setattr(ex, "_run", run)
        monkeypatch.setattr(ex, "_eval_array", eval_array)
        monkeypatch.setattr(measure, "_block", block)
        call = {"bracket": lambda: integrate(f, 0.0, 6.0, 1e-6),
                "midvalue": lambda: stieltjes_midvalue(g, f, 0.0, 6.0, 1e-6)}[route]
        _outcome(call)
        assert blocks and all(shapes == n_runs for shapes, n_runs, *_ in blocks)
        # only the rows of the groups whose runs trip are evaluated alone;
        # the first block holds every segment
        assert blocks[0][2] == blocks[0][3] and bool(blocks[0][3]) == bool(fail)
        assert all(n_alone <= rows for *_, n_alone, rows in blocks)


def cycling(n: int, length: float, fail=(), offset: float = 0.0):
    """n increasing pieces of width length / n whose expressions cycle
    through four shapes (linear, exp, log, sqrt), each met again with
    other constants; the log or sqrt piece of an index in fail has a
    negative argument over the first half of its cell."""
    w = length / n
    pieces = []
    for i in range(n):
        lo, hi, v = i * w, (i + 1) * w, i + offset
        c = lo + w / 2 if i in fail else lo - 1.0  # the argument is x - c
        e = (f"{v!r}+{0.1 / w!r}*(x-{lo!r})", f"{v!r}+0.01*exp(x-{lo!r})",
             f"{v!r}+0.1*log(x-{c!r})", f"{v!r}+0.1*sqrt(x-{c!r})")[i % 4]
        tree = ex.parse(e)
        ends = (v, v) if i in fail else (ex.eval_expr(tree, lo), ex.eval_expr(tree, hi))
        pieces.append((lo, hi, e, *ends))
    return direct(*pieces)


# A function's layout (BvFunction.layout) is made once, on first use: its
# plan of the pieces' evaluators, the columns of its pieces and
# breakpoints, and each piece's bracket columns taken whole.  Queries on
# sub-intervals clip pieces, whose columns are computed; the reference
# refines with a plan of the segments' own expressions, made for each
# refinement.


def plan_exprs(plan, fns) -> list:
    """The expressions of the rows of plan, the layout plan of one of the
    functions fns or the joined plan of two."""
    for f in fns:
        if plan is f.layout.plan:
            return [p.evaluator for p in f.pieces]
        for g in fns:
            if plan is f.layout._joins.get(g.layout):
                return [p.evaluator for p in (*f.pieces, *g.pieces)]
    raise AssertionError("not a plan of these functions")


def fresh_plan_refine(real_refine, fns, route, segs, *args, **kwargs):
    """measure._refine with an expr.Rows plan of the segments' own
    expressions, curve after curve, made for this refinement from the
    pieces of the functions fns."""
    m = len(segs["s"])
    exprs = plan_exprs(segs["plan"], fns)
    exprs = [exprs[r] for rows in segs["rows"] for r in rows.tolist()]
    segs = {**segs, "plan": ex.rows_of(exprs),
            "rows": tuple(np.arange(c * m, (c + 1) * m) for c in range(len(segs["rows"])))}
    return real_refine(route, segs, *args, **kwargs)


class TestFunctionLayout:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), lg=st.floats(-6.0, -3.0))
    def test_clipped_queries_bit_equal_to_references(self, data, lg):
        f = data.draw(monotone_specs(4, pieces=(2, 8)))
        g = data.draw(monotone_specs(4, pieces=(2, 8)))
        a, b = sorted(data.draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2,
                                         unique=True)))
        lo = data.draw(st.integers(0, 2))
        hi = data.draw(st.integers(lo + 1, 3))
        tol = 10.0 ** lg
        # each query, and its outcome with every segment refined and
        # weighed on its own, without the layout's columns
        queries = [
            (lambda: integrate(f, a, b, tol),
             lambda: by_segments(lambda: integrate(f, a, b, tol))),
            (lambda: stieltjes_beta1(f, lo, hi, tol),
             lambda: by_segments(lambda: stieltjes_beta1(f, lo, hi, tol))),
            (lambda: stieltjes_midvalue(g, f, a, b, tol),
             lambda: by_segments(lambda: stieltjes_midvalue(g, f, a, b, tol), g, f)),
            (lambda: em_midvalue_check(f, lo, hi, tol),
             lambda: by_segments(lambda: ref_em_midvalue_check(f, lo, hi, tol))),
            (lambda: parts_check(f, g, a, b, tol),
             lambda: ref_parts_check_by_segments(f, g, a, b, tol)),
            (lambda: parts_check(f, f, a, b, tol),
             lambda: ref_parts_check_by_segments(f, f, a, b, tol)),
        ]
        refine = functools.partial(fresh_plan_refine, measure._refine, (f, g))
        for call, by_segment in queries:
            got = _outcome(call)
            assert _outcome(call) == got  # on the layouts the first call made
            with mock.patch.object(measure, "_refine", refine):
                assert _outcome(call) == got
            assert by_segment() == got

    def test_midvalue_cells_that_underflow_as_reference(self):
        # over [0, 6.2e-130] g is about 1e-132, so each cell's products
        # round below the normal range, and the radius is that of 16 cells
        # of 8 least subnormals each, in the reference too
        def spec(text, right):
            return validate({"domain": {"lo": 0, "hi": 0.125}, "breakpoints": [],
                             "pieces": [{"interval": [0, 0.125], "expr": text,
                                         "direction": "inc", "left_limit": 0.0,
                                         "right_limit": right}]})

        f = spec("0.001953125+0.001953125*sin(25.132741228718345*x-1.5707963267948966)",
                 0.00390625)
        g = spec("0.015625*x", 0.001953125)
        call = lambda: stieltjes_midvalue(g, f, 0.0, 6.233773179921153e-130, 1e-3)  # noqa: E731
        got = _outcome(call)
        assert got == ("value", repr(Certified(0.0, 16 * 8 * 5e-324)))
        assert by_segments(call, g, f) == got

    def test_repeated_queries_build_each_plan_once(self, monkeypatch):
        plans = []
        real_init = ex.Rows.__init__

        def init(self, blocks, which=None):
            real_init(self, blocks, which)
            plans.append(len(self.group))

        f, g = cycling(12, 6.0), cycling(8, 6.0, offset=0.5)
        assert "layout" not in vars(f) and "layout" not in vars(g)
        monkeypatch.setattr(ex.Rows, "__init__", init)
        for _ in range(3):
            integrate(f, 0.5, 5.5, 1e-6)
            stieltjes_beta1(f, 1, 5, 1e-6)
            stieltjes_midvalue(g, f, 0.25, 6.0, 1e-6)
            em_midvalue_check(f, 1, 5, 1e-6)
            parts_check(f, g, 0.5, 5.0, 1e-6)
            parts_check(g, g, 0.5, 5.0, 1e-6)
        # one plan of each function's pieces, and one of f's and then g's
        assert sorted(plans) == [8, 12, 20]


# ---------------------------------------------------------------------------
# Every enclosure holds the true value, computed by mpmath at 40 digits from
# the pieces' expressions, whose number literals mean their doubles.

_MP = {"exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt,
       "atan": mpmath.atan, "sin": mpmath.sin}


def mp_piece(p):
    code = compile(ex.render(p.evaluator), "<piece>", "eval")
    return lambda x: eval(code, _MP, {"x": x})


def mp_cells(f, lo, hi, with_integers):
    """The cells between lo, hi, the breakpoints and (with_integers) the
    integers, each with the mpmath function of its piece."""
    pts = {lo, hi, *(bp.x for bp in f.breakpoints if lo < bp.x < hi)}
    if with_integers:
        pts.update(float(k) for k in range(math.floor(lo) + 1, math.ceil(hi)))
    pts = sorted(pts)
    return [(s, t, mp_piece(f.piece_containing(0.5 * (s + t))))
            for s, t in zip(pts, pts[1:])]


def mp_quad(F, s, t, G=None, **kw):
    """The integral of F over [s, t] (of F * G if G is given).  quad stops
    at an absolute error, so it integrates at the scale 1 of the
    monotone F (or G) at the cell's ends."""
    scale = G or F
    scale = max(abs(scale(mpmath.mpf(s))), abs(scale(mpmath.mpf(t)))) or 1
    h = (lambda x: F(x) / scale) if G is None else (lambda x: F(x) * (G(x) / scale))
    return scale * mpmath.quad(h, [s, 0.5 * (s + t), t], **kw)


def mp_integral(f, a, b):
    with mpmath.workdps(40):
        return mpmath.fsum(mp_quad(F, s, t) for s, t, F in mp_cells(f, a, b, False))


def mp_beta1_continuous(f, lo, hi):
    # by parts on each cell (s, t) of the unit cell (k, k+1); every factor
    # is an mpf, as a constant piece's F gives a float
    with mpmath.workdps(40):
        return mpmath.fsum(
            (mpmath.mpf(t) - math.floor(s) - 0.5) * F(mpmath.mpf(t))
            - (mpmath.mpf(s) - math.floor(s) - 0.5) * F(mpmath.mpf(s))
            - mp_quad(F, s, t)
            for s, t, F in mp_cells(f, float(lo), float(hi), True))


def mp_midvalue(g, f, lo, hi):
    """The mid-value integral of g against d(mu_f) over [lo, hi[: atoms
    from the breakpoint data, and on each cell where f is not constant
    the integral of G * F', G and F the pieces' expressions."""
    with mpmath.workdps(40):
        atoms = mpmath.fsum(
            (mpmath.mpf(left_limit(g, bp.x, True)) + right_limit(g, bp.x, True)) / 2
            * (mpmath.mpf(bp.right_value) - bp.left_value)
            for bp in f.breakpoints if lo <= bp.x < hi)
        pts = {lo, hi, *(bp.x for fn in (f, g) for bp in fn.breakpoints if lo < bp.x < hi)}
        pts = sorted(pts)
        cells = []
        for s, t in zip(pts, pts[1:]):
            fp = f.piece_containing(0.5 * (s + t))
            if fp.direction != "const":
                F = mp_piece(fp)
                cells.append(mp_quad(lambda x: mpmath.diff(F, x), s, t,
                                     mp_piece(g.piece_containing(0.5 * (s + t))),
                                     method="gauss-legendre"))
        return atoms + mpmath.fsum(cells)


# convex, concave, inflected, linear, nearly linear and constant pieces of
# larger spreads, increasing and decreasing, with jumps and misplaced values
_containment_specs = functools.partial(monotone_specs, spread=(1e-4, 1.0))
_containment_tols = st.floats(-10.0, -4.0).map(lambda lg: 10.0 ** lg)


class TestContainment:
    # the example count comes from the Hypothesis profile (conftest.py)
    @settings(deadline=None)
    @given(st.data(), _containment_tols)
    def test_integrate_contains_the_integral(self, data, tol):
        f = data.draw(_containment_specs(2))
        a = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
        b = data.draw(st.sampled_from([1.0, 1.75, 2.0]))
        enc = integrate(f, a, b, tol)
        assert enc.radius <= tol
        assert abs(mpmath.mpf(enc.value) - mp_integral(f, a, b)) <= enc.radius

    @settings(deadline=None)
    @given(_containment_specs(3), st.integers(0, 1), _containment_tols)
    # constant on every cell, so exactly 0, which the oracle once missed by
    # rounding (s - k - 1/2) * F(s) in double precision
    @example(f=validate({"domain": {"lo": 0, "hi": 3}, "breakpoints": [
        {"x": 0, "left": 0.0, "value": 0.0, "right": 0.0},
        {"x": 1.125, "left": 0.0, "value": 0.58075287378524, "right": 0.58075287378524}],
        "pieces": [{"interval": [0, 1.125], "expr": "0.0", "direction": "const",
                    "left_limit": 0.0, "right_limit": 0.0},
                   {"interval": [1.125, 3], "expr": "0.58075287378524", "direction": "const",
                    "left_limit": 0.58075287378524, "right_limit": 0.58075287378524}]}),
             lo=1, tol=1e-4)
    def test_stieltjes_beta1_contains_the_integral(self, f, lo, tol):
        res = stieltjes_beta1(f, lo, 3, tol)
        cont = res.continuous_contribution
        assert cont.radius <= res.radius <= tol
        continuous = mp_beta1_continuous(f, lo, 3)
        assert abs(mpmath.mpf(cont.value) - continuous) <= cont.radius
        # and with the atoms, whose sum is exact as a Fraction
        atoms = TestStieltjesBeta1.exact_atoms(f, lo, 3)
        with mpmath.workdps(40):
            total = continuous + mpmath.mpf(atoms.numerator) / atoms.denominator
            assert abs(mpmath.mpf(res.value) - total) <= res.radius

    @settings(deadline=None)
    @given(st.data(), _containment_tols)
    def test_stieltjes_midvalue_contains_the_integral(self, data, tol):
        f, g = data.draw(_containment_specs(2)), data.draw(_containment_specs(2))
        hi = data.draw(st.sampled_from([1.5, 2.0]))
        enc = stieltjes_midvalue(g, f, 0.0, hi, tol)
        assert enc.radius <= tol
        assert abs(mpmath.mpf(enc.value) - mp_midvalue(g, f, 0.0, hi)) <= enc.radius

    @settings(deadline=None)
    @given(st.data(), _containment_tols)
    def test_parts_check_contains_both_integrals(self, data, tol):
        f, g = data.draw(_containment_specs(2)), data.draw(_containment_specs(2))
        rep = parts_check(f, g, 0.0, 2.0, tol)
        assert rep.passed
        # the radii of both integrals, which are those of the routine
        # called for each (a radius below an ulp of IDENTITY_SLACK does not
        # show in the budget), and the rounding of their sum
        first = stieltjes_midvalue(g, f, 0.0, 2.0, tol)
        second = stieltjes_midvalue(f, g, 0.0, 2.0, tol)
        assert rep.lhs == first.value + second.value
        radius = first.radius + second.radius + EPS * abs(rep.lhs)
        want = mp_midvalue(g, f, 0.0, 2.0) + mp_midvalue(f, g, 0.0, 2.0)
        assert abs(mpmath.mpf(rep.lhs) - want) <= radius


def _steps(lo_value, hi_value, cut=1.0, x0_left=None):
    """lo_value on (0, cut) and hi_value on (cut, 2), with breakpoints at 0
    (left value x0_left, exterior) and at cut; built directly."""
    left = lo_value if x0_left is None else x0_left
    return BvFunction(0.0, 2.0, (Breakpoint(0.0, left, lo_value, lo_value),
                                 Breakpoint(cut, lo_value, lo_value, hi_value)),
                      (MonotonePiece(0.0, cut, ex.Num(lo_value), "const", lo_value, lo_value),
                       MonotonePiece(cut, 2.0, ex.Num(hi_value), "const", hi_value, hi_value)))


class TestRoundingBelowTheRadius:
    def test_midvalue_atom_that_underflows(self):
        # the atom 1.48e-290 * -2.96e-290 rounds to -0.0, in both integrals
        # of the by-parts identity
        f = _steps(0.0, 0.0, x0_left=2.96e-290)
        want = mp_midvalue(f, f, 0.0, 2.0)
        assert want < 0.0
        enc = stieltjes_midvalue(f, f, 0.0, 2.0, 1e-6)
        assert abs(mpmath.mpf(enc.value) - want) <= enc.radius
        rep = parts_check(f, f, 0.0, 2.0, 1e-6)
        assert rep.passed and rep.lhs == 2 * enc.value
        assert abs(mpmath.mpf(rep.lhs) - 2 * want) <= 2 * enc.radius + EPS * abs(rep.lhs)

    def test_midvalue_that_underflows_times_a_large_jump(self):
        # g's mid-value at 1, 1.5 * 2^-1074, rounds to 2^-1073, an error
        # f's jump of 1e300 scales to 2.5e-24
        tiny = 3 * 2.0 ** -1074
        g, f = _steps(tiny, 0.0), _steps(0.0, 1e300)
        want = mp_midvalue(g, f, 0.0, 2.0)
        enc = stieltjes_midvalue(g, f, 0.0, 2.0, 1e-6)
        assert abs(mpmath.mpf(enc.value) - want) > 1e-24
        assert abs(mpmath.mpf(enc.value) - want) <= enc.radius <= 1e-23

    def test_midvalue_cells_whose_products_underflow(self):
        # g is the least normal float and f rises by 7.5e-5 on [0, 1.5]:
        # the integral, 1.67e-312, and each cell's trapezoid product round
        # below the normal range, where the relative rounding term is 0
        tiny = sys.float_info.min
        f = validate({"domain": {"lo": 0, "hi": 2}, "breakpoints": [],
                      "pieces": [{"interval": [0, 2], "expr": "5e-05*x", "direction": "inc",
                                  "left_limit": 0, "right_limit": 1e-4}]})
        g = _steps(tiny, tiny)
        want = mp_midvalue(g, f, 0.0, 1.5)
        enc = stieltjes_midvalue(g, f, 0.0, 1.5, 1e-4)
        assert abs(mpmath.mpf(enc.value) - want) > 0.0
        assert abs(mpmath.mpf(enc.value) - want) <= enc.radius <= 1e-300

    def test_exact_values_whose_sum_rounds(self):
        # c/8 and 7/8 are exact, their sum is not: a radius of 0 would
        # claim it is
        c = 0.3343826978565485
        f = _steps(c, 1.0, cut=0.125)
        enc = integrate(f, 0.0, 1.0, 1e-4)
        assert 0.0 < enc.radius <= 1e-14
        assert abs(mpmath.mpf(enc.value) - mp_integral(f, 0.0, 1.0)) <= enc.radius
        # a sum that is exact keeps the radius 0
        assert integrate(_steps(0.5, 1.0, cut=0.125), 0.0, 1.0, 1e-4).radius == 0.0

    def test_exact_and_rounded_values_whose_sum_rounds(self):
        # 1/8 is exact, 1e-6 * 7/8 rounds with a radius of 1.6e-21, and
        # their sum rounds by 1.1e-17
        f = _steps(1.0, 1e-6, cut=0.125)
        enc = integrate(f, 0.0, 1.0, 1e-4)
        assert abs(mpmath.mpf(enc.value) - mp_integral(f, 0.0, 1.0)) <= enc.radius

    def test_tail_integral_whose_head_plus_tail_rounds(self):
        # 1 on (0, 1) and 1e-20 * exp(1 - x) beyond: both parts are exact
        # or nearly, and 1 + 1e-20 rounds to 1
        f = validate({
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [
                {"interval": [0, 1], "expr": "1", "direction": "const",
                 "left_limit": 1, "right_limit": 1},
                {"interval": [1, "inf"], "expr": "1e-20*exp(1-x)", "direction": "dec",
                 "left_limit": 1e-20, "right_limit": 0},
            ],
            "breakpoints": [{"x": 1, "left": 1, "value": 1, "right": 1e-20}],
            "tail": {"limit": 0, "antiderivative": "-1e-20*exp(1-x)",
                     "antiderivative_limit": 0},
        })
        enc = tail_integral(f, 0.0)
        assert enc.value == 1.0
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(enc.value) - (1 + mpmath.mpf(1e-20))) <= enc.radius

    @pytest.mark.xfail(strict=True, reason="closed-form radius ignores the error of "
                                           "evaluating F near its zero (ROADMAP item 8)")
    def test_closed_form_near_a_zero_of_its_antiderivative(self):
        # F = x^3/3 - x cancels near its zero sqrt(3): F(t) - F(s) loses
        # the ulps of F(s) and F(t), far more than _slack of the result
        f = validate({"domain": {"lo": 1, "hi": 2}, "breakpoints": [],
                      "pieces": [{"interval": [1, 2], "expr": "x^2-1", "direction": "inc",
                                  "left_limit": 0, "right_limit": 3,
                                  "antiderivative": "x^3/3-x"}]})
        s = math.sqrt(3.0)
        with mpmath.workdps(50):
            for w in (1e-6, 1e-9, 1e-12):
                t = s + w
                enc = integrate(f, s, t, 1e-3)
                S, T = mpmath.mpf(s), mpmath.mpf(t)
                want = (T ** 3 - S ** 3) / 3 - (T - S)
                assert abs(mpmath.mpf(enc.value) - want) <= enc.radius, w


def _scalar_evaluations(call, *fns):
    """The (piece, point) pairs of the scalar evaluations of the pieces
    of the functions fns that call makes, in order."""
    pairs = []
    pieces = [p for fn in fns for p in fn.pieces]
    real = [p.compiled for p in pieces]

    def counting(p, fn):
        return lambda x: pairs.append((id(p), x, math.copysign(1.0, x))) or fn(x)

    try:
        for p, fn in zip(pieces, real):
            vars(p)["compiled"] = counting(p, fn)
        call()
    finally:
        for p, fn in zip(pieces, real):
            vars(p)["compiled"] = fn
    return pairs


class TestMidvalueEvaluations:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_each_expression_evaluated_once_per_point(self, data, tol):
        f, g = data.draw(monotone_specs(2)), data.draw(monotone_specs(2))
        hi = data.draw(st.sampled_from([1.5, 2.0]))
        # one integral, and both integrals and the limits of parts_check
        for call in (lambda: stieltjes_midvalue(g, f, 0.0, hi, tol),
                     lambda: parts_check(f, g, 0.0, hi, tol)):
            pairs = _scalar_evaluations(lambda: _outcome(call), f, g)
            assert len(pairs) == len(set(pairs))

    def test_parts_check_pairs_on_the_corpus(self, corpus):
        # both orders of a pair, as parts_check calls them
        f, g = corpus["sin_arches.json"], corpus["vshape.json"]
        for a, b in ((f, g), (g, f)):
            pairs = _scalar_evaluations(lambda: stieltjes_midvalue(a, b, 0.0, 2.0, 1e-6), a, b)
            assert pairs and len(pairs) == len(set(pairs))


def direct(*pieces):
    """A BvFunction built without validation from pieces (lo, hi, expr,
    left limit, right limit[, direction]), increasing unless a direction
    is given, with breakpoints at the inner cuts that join the limits."""
    ps = tuple(MonotonePiece(float(lo), float(hi), ex.parse(e), (*d, "inc")[0], vl, vr)
               for lo, hi, e, vl, vr, *d in pieces)
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
    def cap(monkeypatch):
        # the first round, a 64-cell grid, is the last: a segment whose gap
        # does not fit its share is refused at the cap
        monkeypatch.setattr(measure, "MAX_CELLS", 64)

    def test_eval_error_before_a_later_refusal(self, monkeypatch):
        f = direct((0, 1, "log(x-0.5)", -5, -0.7), (1, 2, "x^2", 1, 4))
        self.cap(monkeypatch)
        with pytest.raises(ex.EvalError) as err:
            integrate(f, 0, 2, 1e-6)
        assert err.value.kind == "log_domain" and err.value.x < 0.5
        assert_as_reference(lambda: integrate(f, 0, 2, 1e-6))

    def test_refusal_raised_after_the_segments_before_it_evaluate(self, monkeypatch):
        f = direct((0, 1, "x", 0, 1), (1, 2, "x^2", 1, 4),
                   (2, 3, "log(x-2.5)", -5, -0.7))
        self.cap(monkeypatch)
        with pytest.raises(ToleranceUnreachable, match=r"cap on \[1.0, 2.0\]"):
            integrate(f, 0, 3, 1e-6)
        assert_as_reference(lambda: integrate(f, 0, 3, 1e-6))

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

    # against f = x a linear g is bracketed exactly; x^3 is convex
    @pytest.mark.parametrize("g,want", [
        # the cap in the first cell, an error in the second
        (direct((0, 1, "x^3", 0, 1), (1, 2, "log(x-1.5)", -5, -0.7)),
         r"cap on \[0.0, 1.0\]"),
        # an error in the first cell, the cap in the second
        (direct((0, 1, "log(x-0.5)", -5, -0.7), (1, 2, "x^3", 1, 8)), "log_domain"),
        # the first cell converges at once, the second reaches the cap
        (direct((0, 1, "2", 2, 2), (1, 2, "x^3", 1, 8)), r"cap on \[1.0, 2.0\]"),
    ])
    def test_midvalue_cell_cap(self, monkeypatch, g, want):
        monkeypatch.setattr(measure, "MAX_CELLS", 256)
        f = direct((0, 1, "x", 0, 1), (1, 2, "x", 1, 2))
        with pytest.raises((ToleranceUnreachable, ex.EvalError), match=want):
            stieltjes_midvalue(g, f, 0.0, 2.0, 1e-10)
        assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, 2.0, 1e-10), g, f)

    # In blocks of 64 points: an error is still that of a whole chunk,
    # whose first failing op may fail at a later point than another op.
    @pytest.mark.parametrize("e,kind", [
        # the only bad points lie in a later block
        ("log(0.75-x)+1", "log_domain"),
        # sqrt fails after x = 0.75, and before log in the program; log
        # fails in the first block
        ("sqrt(0.75-x)+log(x-0.25)", "sqrt_domain"),
    ])
    @pytest.mark.parametrize("route", ["integrate", "beta1"])
    def test_first_bad_point_in_a_later_block(self, monkeypatch, route, e, kind):
        monkeypatch.setattr(measure, "_BATCH", 64)  # 65 points in two blocks
        f = direct((0, 1, e, 0, 1))
        call = {"integrate": lambda: integrate(f, 0, 1, 1.0),
                "beta1": lambda: stieltjes_beta1(f, 0, 1, 1.0)}[route]
        with pytest.raises(ex.EvalError) as err:
            call()
        assert err.value.kind == kind and err.value.x >= 0.75
        assert_as_reference(call)

    def test_midvalue_f_fails_in_a_later_block_than_g(self, monkeypatch):
        # both miss the 16-cell grid; on the next one g fails near 0.2,
        # and f, whose row is evaluated first, near 0.765
        monkeypatch.setattr(measure, "_BATCH", 64)
        f = direct((0, 1, "log(abs(x-0.765)-0.004)", -0.3, -1.5))
        g = direct((0, 1, "sqrt(abs(x-0.2)-0.004)", 0.4, 0.9))
        with pytest.raises(ex.EvalError) as err:
            stieltjes_midvalue(g, f, 0.0, 1.0, 1e-4)
        assert err.value.kind == "log_domain" and 0.761 < err.value.x < 0.769
        assert_as_reference(lambda: stieltjes_midvalue(g, f, 0.0, 1.0, 1e-4), g, f)

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

    @staticmethod
    def arrays_reached(tb) -> list:
        """The numpy arrays, and the arrays they view, that the locals of
        the frames of the traceback tb reach through containers."""
        seen, found, todo = set(), [], []
        while tb is not None:
            todo.extend(tb.tb_frame.f_locals.values())
            tb = tb.tb_next
        while todo:
            v = todo.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            if isinstance(v, np.ndarray):
                found.append(v)
                if v.base is not None:
                    todo.append(v.base)
            elif isinstance(v, (dict, list, tuple, set, frozenset)):
                todo.extend(v.values() if isinstance(v, dict) else v)
            elif isinstance(v, (ex.Rows, measure._Claim)):
                todo.extend(getattr(v, k) for k in (v.__slots__ if isinstance(v, ex.Rows)
                                                    else v._fields))
        return found

    def test_a_refusal_at_the_cap_keeps_no_arrays_alive(self, monkeypatch):
        # a run keeps each refused query's error, and its traceback keeps
        # the frames' locals: they must hold the segments' columns at
        # most, not the arrays of a block
        monkeypatch.setattr(measure, "MAX_CELLS", 64)
        f = direct(*[(k / 4, k / 4 + 0.25, "100*x^3" if k == 6 else f"x+{k}",
                      k / 4 + k, k / 4 + k + 0.25) for k in range(48)])
        g = sawtooth(48, 12, 0.02, 1.0)
        for call in (lambda: integrate(f, 0.0, 12.0, 1e-9),
                     lambda: stieltjes_beta1(f, 0, 12, 1e-9),
                     lambda: em_midvalue_check(f, 1, 12, 1e-9),
                     lambda: stieltjes_midvalue(f, g, 0.0, 12.0, 1e-9)):
            with pytest.raises(ToleranceUnreachable, match="cap") as err:
                call()
            sizes = [a.nbytes for a in self.arrays_reached(err.value.__traceback__)]
            assert sizes and max(sizes) < 4096

    @pytest.mark.parametrize("route,terms", [("bracket", 1.5), ("midvalue", 1)])
    def test_memory_of_a_whole_chunk_is_a_buffer_per_term(self, route, terms):
        f = direct((0, 1, "2*x", 0, 2))
        one = np.array([0]), np.array([measure._CHUNK])
        if route == "midvalue":
            # one chunk of mid-value brackets: a midpoint and a width per
            # two cells; s, width, term, u0, g0, un, gn, eu, eg
            g = direct((0, 1, "x^2", 0, 1))
            cols = np.array([[0.0], [1.0], [0.0], [0.0], [0.0], [2.0], [1.0], [1e-15], [1e-15]])
            call = lambda: measure._walk(  # noqa: E731
                *one, np.array([[0], [1]]), cols,
                ex.rows_of([f.pieces[0].evaluator, g.pieces[0].evaluator]),
                measure._mid_terms, {})
        else:
            # one chunk of brackets: a value per point, a gap per two; s,
            # width, term, v0, vn, delta
            cols = np.array([[0.0], [1.0], [0.0], [0.0], [2.0], [1e-15]])
            call = lambda: measure._walk(  # noqa: E731
                *one, np.array([[0]]), cols, ex.rows_of([f.pieces[0].evaluator]),
                measure._bracket_terms, {})
        call()  # compile the programs before tracing
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each term of the chunk's up to 2^20 cells fills one buffer; the
        # blocks of at most _BATCH points live in about a dozen arrays
        assert peak < terms * 8 * measure._CHUNK + 16 * 8 * measure._BATCH


# ---------------------------------------------------------------------------
# em_midvalue_check and parts_check refine both halves of their identity in
# one walk.  The checks as they were, the public routines called one after
# the other, are kept here as references: every report, error kind and
# message must be theirs.


def ref_em_midvalue_check(f, a, b, tol):
    """em_midvalue_check as integrate and stieltjes_beta1 called in turn."""
    lhs = math.fsum(mid_value_strict(f, float(k)) for k in range(a, b))
    integral = integrate(f, float(a), float(b), tol)
    boundary = -0.5 * (left_limit(f, float(b), strict=True)
                       - left_limit(f, float(a), strict=True))
    stieltjes = stieltjes_beta1(f, a, b, tol)
    rhs = integral.value + boundary + stieltjes.value
    budget = integral.radius + stieltjes.radius + IDENTITY_SLACK
    return CheckReport(lhs, rhs, abs(lhs - rhs), budget)


def ref_parts_check(f, g, a, b, tol):
    """parts_check as stieltjes_midvalue called for each integral in turn."""
    i1 = stieltjes_midvalue(g, f, a, b, tol)
    i2 = stieltjes_midvalue(f, g, a, b, tol)
    lhs = i1.value + i2.value
    rhs = (left_limit(g, b, strict=True) * left_limit(f, b, strict=True)
           - left_limit(g, a, strict=True) * left_limit(f, a, strict=True))
    budget = i1.radius + i2.radius + IDENTITY_SLACK
    return CheckReport(lhs, rhs, abs(lhs - rhs), budget)


def assert_as_sequential(check, *args):
    """check(*args) reports or raises what its reference does."""
    ref = {em_midvalue_check: ref_em_midvalue_check, parts_check: ref_parts_check}[check]
    assert _outcome(lambda: check(*args)) == _outcome(lambda: ref(*args))


class TestJointChecks:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_em_midvalue_check_as_sequential_calls(self, data, tol):
        f = data.draw(monotone_specs(3))
        a = data.draw(st.integers(0, 1))
        b = data.draw(st.integers(a + 1, 3))
        assert_as_sequential(em_midvalue_check, f, a, b, tol)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), _tols)
    def test_parts_check_as_sequential_calls(self, data, tol):
        f = data.draw(monotone_specs(2))
        g = f if data.draw(st.booleans()) else data.draw(monotone_specs(2))
        hi = data.draw(st.sampled_from([1.5, 2.0]))
        assert_as_sequential(parts_check, f, g, 0.0, hi, tol)

    def test_first_half_cap_before_second_half_floor(self, monkeypatch):
        # the floor of integrate is 1.43e-10, that of stieltjes_beta1
        # 1.53e-10; x^3 does not fit the rest in 64 cells
        monkeypatch.setattr(measure, "MAX_CELLS", 64)
        f = direct((-1, 0, "1000+x", 999, 1000), (0, 2, "1000+x^3", 1000, 1008))
        with pytest.raises(ToleranceUnreachable, match=r"cap on \[0.0, 2.0\]"):
            em_midvalue_check(f, 0, 2, 1.5e-10)
        with pytest.raises(ToleranceUnreachable, match="below rounding floor"):
            stieltjes_beta1(f, 0, 2, 1.5e-10)
        assert_as_sequential(em_midvalue_check, f, 0, 2, 1.5e-10)

    def test_first_integral_cap_before_second_integral_floor(self, monkeypatch):
        # against g = 1000 + x, x^3 does not fit 16 cells; against f,
        # g has the larger floor
        monkeypatch.setattr(measure, "MAX_CELLS", 16)
        f = direct((-1, 0, "x", -1, 0), (0, 2, "x^3", 0, 8))
        g = direct((-1, 0, "1000+x", 999, 1000), (0, 2, "1000+x", 1000, 1002))
        with pytest.raises(ToleranceUnreachable, match=r"cap on \[0.0, 2.0\]"):
            parts_check(g, f, 0.0, 2.0, 2e-10)
        with pytest.raises(ToleranceUnreachable, match="below rounding floor"):
            stieltjes_midvalue(g, f, 0.0, 2.0, 2e-10)
        assert_as_sequential(parts_check, g, f, 0.0, 2.0, 2e-10)

    def test_eval_error_of_the_second_half_only(self):
        # log(0) at 1/64, a point of stieltjes_beta1's 64-cell grid on
        # [0, 1] but not of integrate's on [0, 2]
        f = direct((-1, 0, "x", -1, 0), (0, 2, "x+0*log(abs(x-0.015625))", 0, 2))
        assert integrate(f, 0, 2, 1e-6).radius <= 1e-6
        with pytest.raises(ex.EvalError) as err:
            em_midvalue_check(f, 0, 2, 1e-6)
        assert err.value.x == 0.015625
        assert_as_sequential(em_midvalue_check, f, 0, 2, 1e-6)

    def test_eval_error_of_the_second_integral_only(self):
        # f is constant where g fails, at 5/16: only the integral of f
        # against d(mu_g) walks that cell
        f = direct((-1, 0, "x", -1, 0), (0, 1, "0", 0, 0, "const"), (1, 2, "x-1", 0, 1))
        g = direct((-1, 0, "x", -1, 0), (0, 1, "x+0*log(abs(x-0.3125))", 0, 1),
                   (1, 2, "x", 1, 2))
        assert stieltjes_midvalue(g, f, 0.0, 2.0, 1e-6).radius <= 1e-6
        with pytest.raises(ex.EvalError) as err:
            parts_check(f, g, 0.0, 2.0, 1e-6)
        assert err.value.x == 0.3125
        assert_as_sequential(parts_check, f, g, 0.0, 2.0, 1e-6)

    def test_first_half_floor(self, monkeypatch):
        # the floor of integrate is 1.19e-12, that of stieltjes_beta1
        # 7.3e-13, whose walk would then reach the cap
        monkeypatch.setattr(measure, "MAX_CELLS", 64)
        f = direct((-1, 0, "x", -1, 0), (0, 2, "x^3", 0, 8))
        with pytest.raises(ToleranceUnreachable, match="below rounding floor"):
            em_midvalue_check(f, 0, 2, 1e-12)
        with pytest.raises(ToleranceUnreachable, match="cap"):
            stieltjes_beta1(f, 0, 2, 1e-12)
        assert_as_sequential(em_midvalue_check, f, 0, 2, 1e-12)

    def test_first_integral_floor(self):
        # against f = x, g = 1000 + x has the larger floor; against g, f
        # fits the tol
        f = direct((-1, 0, "x", -1, 0), (0, 2, "x", 0, 2))
        g = direct((-1, 0, "1000+x", 999, 1000), (0, 2, "1000+x", 1000, 1002))
        with pytest.raises(ToleranceUnreachable, match="below rounding floor"):
            parts_check(f, g, 0.0, 2.0, 1e-10)
        assert stieltjes_midvalue(f, g, 0.0, 2.0, 1e-10).radius <= 1e-10
        assert_as_sequential(parts_check, f, g, 0.0, 2.0, 1e-10)

    def test_first_integral_finishes_before_the_second_walk_fails(self):
        # against the step f the atom at 1 overflows, which Certified
        # refuses when the first integral finishes; g fails at 5/16 in the
        # walk of the second, on [0, 0.5], where f is 0
        f = direct((0, 1, "0", 0, 0, "const"), (1, 2, "1e308", 1e308, 1e308, "const"))
        g = direct((0, 0.5, "x+10+0*log(abs(x-0.3125))", 10, 10.5),
                   (0.5, 2, "11", 11, 11, "const"))
        with pytest.raises(ValueError, match="non-finite"):
            parts_check(f, g, 0.0, 2.0, 1e-6)
        with pytest.raises(ValueError, match="non-finite"):
            ref_parts_check(f, g, 0.0, 2.0, 1e-6)
        with pytest.raises(ex.EvalError):
            stieltjes_midvalue(f, g, 0.0, 2.0, 1e-6)
