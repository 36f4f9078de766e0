"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; any assertion failure marks the criterion red.
"""

import contextlib
import io
import json
import math
import random
import re
from types import SimpleNamespace

import pytest

from bvsum import (
    IntervalSpec,
    em_finite_sum,
    em_midvalue_check,
    euler_constant,
    evaluate,
    integrate,
    jordan_decompose,
    left_limit,
    parse,
    parts_check,
    pointwise_variation,
    render,
    rho,
    right_limit,
    series_sum,
    total_variation_measure,
)
from bvsum.cli import main
from bvsum.expr import ParseError, eval_expr
from conftest import CORPUS_DIR
from oracles import BASEL_SUM, EULER_GAMMA, direct_sum


def _ok(n: int, text: str) -> None:
    print(f"PASS criterion {n:2d}: {text}")


def _span(f, cap: float = 50.0) -> tuple[int, int]:
    lo = max(0, int(math.ceil(f.domain_lo)))
    hi_dom = f.domain_hi if not f.is_half_line else math.inf
    hi = int(min(cap, math.floor(hi_dom - 1e-9) if math.isfinite(hi_dom) else cap))
    return lo, hi


def test_criterion_01_enclosure_soundness_sweep(corpus):
    assert len(corpus) >= 12
    pairs_checked = 0
    for name, f in corpus.items():
        lo, hi = _span(f)
        for a in range(lo, hi):
            for b in range(a + 1, hi + 1):
                rep = em_finite_sum(f, a, b, tol=1e-9)
                assert abs(rep.exact_sum - rep.approx.value) <= rep.approx.radius, (
                    name, a, b)
                pairs_checked += 1
    assert pairs_checked >= 12 * 3
    _ok(1, f"direct sums inside enclosures for {pairs_checked} (file,a,b) cases "
           f"across {len(corpus)} spec files, zero violations")


def test_criterion_02_variation_measure_identity(corpus):
    rng = random.Random(20260809)
    checked = 0
    for name, f in corpus.items():
        lo = f.domain_lo
        hi = f.domain_hi if not f.is_half_line else lo + 50.0
        for _ in range(20):
            a = rng.uniform(lo, hi - 1e-6)
            b = rng.uniform(a, hi)
            if b - a < 1e-9:
                continue
            pv = pointwise_variation(f, a, b, False, False)
            tvm = total_variation_measure(f, IntervalSpec.open(a, b))
            rho_sum = math.fsum(rho(f, bp.x) for bp in f.breakpoints
                                if a < bp.x < b)
            assert abs(pv - (tvm + rho_sum)) <= 1e-10, (name, a, b)
            checked += 1
    _ok(2, f"pV = |mu_f| + sum(rho) on {checked} random open intervals "
           f"(abs tol 1e-10)")


def test_criterion_03_endpoint_formula(corpus):
    rng = random.Random(97)
    checked = 0
    for name, f in corpus.items():
        lo = f.domain_lo
        hi = f.domain_hi if not f.is_half_line else lo + 50.0
        ends = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(8)]
        # endpoints sitting exactly on breakpoints exercise nonzero terms
        bxs = [bp.x for bp in f.breakpoints if lo < bp.x < hi]
        for x in bxs[:6]:
            ends.append((x, min(x + 1.5, hi - 1e-9)))
            ends.append((max(lo, x - 1.5), x))
        for a, b in ends:
            a, b = min(a, b), max(a, b)
            if b - a < 1e-9:
                continue
            closed = pointwise_variation(f, a, b, True, True)
            open_ = pointwise_variation(f, a, b, False, False)
            want = (abs(evaluate(f, a) - right_limit(f, a))
                    + abs(evaluate(f, b) - left_limit(f, b)))
            assert abs((closed - open_) - want) <= 1e-12, (name, a, b)
            checked += 1
    _ok(3, f"pV[a,b] - pV]a,b[ equals the endpoint terms on {checked} "
           f"intervals (abs tol 1e-12)")


def test_criterion_04_basel_series(corpus):
    f = corpus["basel.json"]
    enc10 = series_sum(f, 10, 1e-9)
    assert enc10.radius <= 0.5 / 121.0 + 1e-8
    assert enc10.contains(1.6449340668)
    assert enc10.contains(BASEL_SUM)
    enc100 = series_sum(f, 100, 1e-9)
    assert enc100.radius <= 0.5 / 10201.0 + 1e-8
    assert enc100.contains(BASEL_SUM)
    _ok(4, f"basel enclosures: n=10 radius {enc10.radius:.3e} <= 4.14e-3, "
           f"n=100 radius {enc100.radius:.3e} <= 4.91e-5, both contain the "
           f"10^8-term oracle")


def test_criterion_05_euler_mascheroni(corpus):
    f = corpus["harmonic.json"]
    rep = euler_constant(f, 100, 1e-9)
    est = rep.gamma_estimate
    assert est.radius <= 0.5 / 101.0 + 1e-8
    assert est.contains(0.5772156649)
    assert est.contains(EULER_GAMMA)
    _ok(5, f"euler constant at n=100: {est.value:.10f} +- {est.radius:.3e} "
           f"contains the n=10^6 extrapolation oracle")


def test_criterion_06_midvalue_identity(corpus):
    names = []
    for name, f in corpus.items():
        lo, hi = _span(f, cap=10.0)
        if hi - lo < 1:
            continue
        rep = em_midvalue_check(f, lo, hi, tol=1e-6)
        assert rep.residual <= rep.budget, (name, rep.residual, rep.budget)
        names.append(name)
    assert "step_quarter.json" in names   # atom beta1(1/4) = -1/4 exercised
    assert "floor_steps.json" in names    # atoms at integers forced to zero
    q = em_midvalue_check(corpus["step_quarter.json"], 0, 1, tol=1e-9)
    assert q.rhs == pytest.approx(0.75 - 0.5 - 0.25, abs=1e-9)
    _ok(6, f"mid-value identity within certified radii + 1e-9 on "
           f"{len(names)} files over [0,10] (clipped to each domain)")


def test_criterion_07_integration_by_parts(corpus):
    lin = corpus["linear.json"]
    analytic = parts_check(lin, lin, 0, 1, 1e-5)
    assert analytic.rhs == 1.0
    assert analytic.residual <= analytic.budget
    pairs = [
        ("step_half.json", "rho_nonint.json", 0, 2),    # shared jump x=0.5
        ("step_quarter.json", "step_half.json", 0, 2),  # disjoint jumps
        ("harmonic.json", "step_half.json", 0, 3),      # smooth vs jump
        ("mixed_jumps.json", "floor_steps.json", 0, 6),  # shared jump x=4
        ("vshape.json", "linear.json", 0, 2),           # continuous pair
        ("frac_sawtooth.json", "floor_steps.json", 0, 5),  # shared integer jumps
    ]
    for fa, fb, a, b in pairs:
        rep = parts_check(corpus[fa], corpus[fb], a, b, 1e-5)
        assert rep.residual <= rep.budget, (fa, fb, rep.residual, rep.budget)
    _ok(7, f"integration by parts within radii + 1e-9 on {len(pairs)} pairs "
           f"plus the closed-form pair f=g=x")


def test_criterion_08_jordan_decomposition(corpus):
    for name, f in corpus.items():
        f1, f2 = jordan_decompose(f)
        lo = f.domain_lo
        hi = f.domain_hi if not f.is_half_line else lo + 30.0
        xs = [lo + (hi - lo) * i / 1024 for i in range(1025)]
        prev1 = prev2 = -math.inf
        for x in xs:
            v1, v2 = evaluate(f1, x), evaluate(f2, x)
            assert v1 >= prev1 - 1e-12, (name, x)
            assert v2 >= prev2 - 1e-12, (name, x)
            prev1, prev2 = v1, v2
            assert abs((v1 - v2) - evaluate(f, x)) <= 1e-12, (name, x)
        pv = pointwise_variation(f, lo, hi)
        pv_split = (pointwise_variation(f1, lo, hi)
                    + pointwise_variation(f2, lo, hi))
        assert abs(pv - pv_split) <= 1e-10, name
    _ok(8, f"jordan decomposition: monotone parts, pointwise match to 1e-12 "
           f"at 1025 samples, additive variation to 1e-10 on "
           f"{len(corpus)} files")


def test_criterion_09_asymptotic_bound(corpus):
    for name in ("sqrt.json", "linear.json"):
        f = corpus[name]
        for n in (10, 100, 1000):
            enc = integrate(f, 0.0, float(n), 1e-8)
            bound = abs(evaluate(f, float(n)) - evaluate(f, 0.0))
            direct = direct_sum(f, 0, n)
            assert abs(direct - enc.value) <= bound + enc.radius, (name, n)
    _ok(9, "monotone-unbounded bound |sum - integral| <= |f(n)-f(0)| for "
           "sqrt and identity at n in {10, 100, 1000}")


def test_criterion_10_quadrature_certification(corpus):
    tol = 1e-10
    cases = [
        ("linear.json", 0, 10, 50.0),
        ("sqrt.json", 0, 100, 2000.0 / 3.0),
        ("harmonic.json", 0, 10, math.log(11.0)),
        ("basel.json", 0, 10, 1.0 - 1.0 / 11.0),
        ("exp_decay.json", 0, 5, 1.0 - math.exp(-5.0)),
        ("atan_bounded.json", 0, 1, math.pi / 4.0 - math.log(2.0) / 2.0),
        ("vshape.json", 0, 2, 1.0),
        ("sin_arches.json", 0, 6, 1.0 - math.cos(6.0)),
        ("mixed_jumps.json", 5, 20, math.log(21.0 / 6.0)),
        ("floor_steps.json", 0, 7, 21.0),
    ]
    for name, a, b, truth in cases:
        enc = integrate(corpus[name], float(a), float(b), tol)
        assert enc.contains(truth, slack=1e-13), (name, enc, truth)
        assert enc.radius <= tol, (name, enc.radius)
    _ok(10, f"{len(cases)} closed-form integrals enclosed with radius <= 1e-10")


def test_criterion_11_parser():
    assert eval_expr(parse("1+2*3"), 0.0) == 7.0
    assert eval_expr(parse("2^3^2"), 0.0) == 512.0
    assert eval_expr(parse("-2^2"), 0.0) == -4.0
    seeds = ["x", "pi", "e", "1.5", "2e10", "-x", "x+1", "2*x", "x/3", "x^2",
             "x^-2", "-x^2", "(x+1)^2", "1/(1+x)", "1/(1+x)^2", "sqrt(x)",
             "log(1+x)", "exp(-x)", "abs(x-1)", "sin(x)", "cos(x)", "atan(x)",
             "floor(x)", "pow(x,3)", "2/3*x^(3/2)"]
    trees = [parse(s) for s in seeds]
    i = 0
    from bvsum.expr import Bin
    while len(trees) < 100:
        trees.append(Bin("+-*/^"[i % 5], trees[i % len(seeds)],
                         trees[(3 * i + 1) % len(seeds)]))
        i += 1
    for t in trees:
        assert parse(render(t)) == t
    malformed = [("log(", 4), ("1+", 2), ("(1+2", 4), ("2**3", 2), (")", 0),
                 ("1 + * 2", 4), ("foo(2)", 0), ("pow(2)", 5), ("sin 2", 4),
                 ("", 0)]
    for text, offset in malformed:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset, text
    _ok(11, f"precedence goldens, {len(trees)} round-trips, "
            f"{len(malformed)} position-accurate parse errors")


def _run_cli(*args):
    """The CLI run in-process on argv: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in args])
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return SimpleNamespace(returncode=code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def test_criterion_12_cli_contract(tmp_path):
    c = CORPUS_DIR
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": 1, "name": "bad", "domain": {"lo": 0, "hi": 10},
        "pieces": [{"interval": [0, 10], "expr": "sin(x)", "direction": "inc",
                    "left_limit": 0, "right_limit": -0.5440211108893698}],
        "breakpoints": []}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({
        "format": 1, "name": "bare", "domain": {"lo": 0, "hi": 10},
        "pieces": [{"interval": [0, 10], "expr": "1/(1+x)", "direction": "dec",
                    "left_limit": 1, "right_limit": 1.0 / 11.0}],
        "breakpoints": []}))
    notail = tmp_path / "notail.json"
    notail.write_text(json.dumps({
        "format": 1, "name": "notail", "domain": {"lo": 0, "hi": "inf"},
        "pieces": [{"interval": [0, "inf"], "expr": "1/(1+x)^2",
                    "direction": "dec", "left_limit": 1, "right_limit": 0}],
        "breakpoints": [], "tail": {"limit": 0}}))
    matrix = [
        (0, ("variation", c / "rho_int.json", "--lo", 0, "--hi", 2,
             "--open-lo", "--open-hi")),
        (0, ("variation", c / "linear.json", "--lo", 0, "--hi", 10, "--json")),
        (0, ("sum", c / "harmonic.json", "--a", 0, "--b", 10)),
        (0, ("sum", c / "linear.json", "--a", 0, "--b", 10, "--json")),
        (0, ("sum", c / "floor_steps.json", "--a", 0, "--b", 12)),
        (0, ("series", c / "basel.json", "--n", 10, "--json")),
        (0, ("series", c / "exp_decay.json", "--n", 5)),
        (0, ("series", c / "basel.json", "--n", "10,100", "--csv")),
        (0, ("gamma", c / "harmonic.json", "--n", 100, "--json")),
        (0, ("gamma", c / "harmonic.json", "--n", "10,100", "--csv",
             "--oracle", 0.5772156649)),
        (0, ("convergence", c / "basel.json")),
        (0, ("convergence", c / "atan_bounded.json", "--json")),
        (0, ("verify", c / "floor_steps.json", "--check", "midvalue",
             "--a", 0, "--b", 3, "--json")),
        (0, ("verify", c / "linear.json", c / "linear.json", "--check", "parts",
             "--a", 0, "--b", 1, "--tol", 1e-5)),
        (0, ("verify", c / "step_half.json", "--check", "pvv",
             "--a", 0, "--b", 2)),
        (1, ("sum", c / "linear.json", "--a", 10, "--b", 3)),
        (2, ("sum", bad, "--a", 0, "--b", 5)),
        (3, ("sum", c / "vshape.json", "--a", 0, "--b", 10)),
        (4, ("sum", bare, "--a", 0, "--b", 10, "--tol", 1e-13)),
        (5, ("series", c / "harmonic.json", "--n", 10)),
        (6, ("series", notail, "--n", 10)),
        (7, ("verify", c / "linear.json", c / "linear.json", "--check", "parts",
             "--a", 0, "--b", 1, "--tol", 1e-5, "--budget", -1)),
    ]
    assert len(matrix) >= 20
    for want, args in matrix:
        r = _run_cli(*args)
        assert r.returncode == want, (args, r.returncode, r.stderr)
    a = _run_cli("sum", c / "harmonic.json", "--a", 0, "--b", 10, "--json")
    b = _run_cli("sum", c / "harmonic.json", "--a", 0, "--b", 10, "--json")
    assert a.stdout.encode() == b.stdout.encode()
    for m in re.finditer(r"-?\d\.(\d+)e[+-]\d+", a.stdout):
        assert len(m.group(1)) == 16  # 17 significant digits
    _ok(12, f"exit-code table honored across {len(matrix)} invocations; "
            f"--json byte-identical across runs with 17 significant digits")
