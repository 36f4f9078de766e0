"""Tests of the benchmark's own code: seeded inputs, oracles, golden data
and tracing.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import generate as gen  # noqa: E402
from mpexpr import compile_text  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(workload):
    d1 = gen.build(workload, 7, ROOT).digest(ROOT)
    assert gen.build(workload, 7, ROOT).digest(ROOT) == d1
    assert gen.build(workload, 8, ROOT).digest(ROOT) != d1


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_spec_validates(workload, seed):
    from bvsum import validate

    for spec in gen.build(workload, seed, ROOT).specs.values():
        validate(spec)


def test_oracles_never_import_bvsum():
    code = (
        "import sys; from pathlib import Path; sys.path.insert(0, 'perfbench');"
        "import generate as gen\n"
        "for wl in gen.WORKLOADS:\n"
        "    w = gen.build(wl, 3, Path('.')); o = gen.Oracles(w, Path('.'))\n"
        "    [o(q) for q in w.queries]\n"
        "assert not [m for m in sys.modules if m.startswith('bvsum')]\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


@pytest.mark.parametrize("text,x", [
    ("-2^2", 3.0), ("(-2)^2", 3.0), ("2^3^2", 0.5), ("1/(1+x)^2", 2.5), ("x^(3/2)", 4.0),
    ("exp(-1.5*x)+log(1+x)", 0.7), ("atan(2*(x-0.5))", 0.1), ("pow(x, 0.5)*sqrt(x)", 2.0),
    ("abs(x-1)+floor(x)", 0.25), ("sin(pi*x)-cos(e*x)", 0.3), (".5e1*x-3", 2.0),
])
def test_mpexpr_agrees_with_the_library_evaluator(text, x):
    from bvsum.expr import eval_expr, parse

    assert float(compile_text(text)(mp.mpf(x))) == pytest.approx(eval_expr(parse(text), x),
                                                                    rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("workload", ["quadrature", "cli_batch"])
def test_generated_antiderivatives_differentiate_to_the_pieces(workload):
    w = gen.build(workload, 5, ROOT)
    for name, spec in list(w.specs.items())[:6]:
        antis = w.oracle_antis.get(name) or [p["antiderivative"] for p in spec["pieces"]
                                              if "antiderivative" in p]
        for p, anti in zip(spec["pieces"], antis):
            x = mp.mpf(sum(p["interval"])) / 2
            f, F = compile_text(p["expr"]), compile_text(anti)
            assert mp.diff(F, x) == pytest.approx(f(x), rel=1e-20)


@pytest.mark.parametrize("fam", "HBEASL")
def test_family_closed_forms_match_direct_sums(fam):
    f = gen.Family(fam, 1.375, 0.625)
    for a, b in [(0, 1), (0, 90), (3, 250)]:
        direct = mp.fsum(f.f(k) for k in range(a, b))
        assert f.finite(a, b) == pytest.approx(direct, rel=mp.mpf(10) ** -35)
    if fam in "BE":
        n = 20_000 if fam == "B" else 30
        tail = f.series() - f.finite(0, n)
        assert -f.F(n) <= tail <= f.f(n) - f.F(n)  # integral test; F(inf) = 0
    if fam in "HBE":
        n = 5000
        gamma_n = f.finite(0, n) - (f.F(n) - f.F(0))
        # Euler-Maclaurin: |gamma - gamma_n - (f(n) - f(inf))/2| <= |f(n) - f(inf)|/2
        assert abs(f.gamma() - gamma_n - f.f(n) / 2) <= abs(f.f(n)) / 2


def test_spec_oracle_variation_of_a_monotone_piece_is_its_increment():
    spec = gen.family_spec("H", 2.0, 0.5, "h")
    so = gen.SpecOracle(spec)
    assert so.variation(3, 10) == pytest.approx(abs(so.value(10) - so.value(3)))
    assert so.variation(0, math.inf) == pytest.approx(2.0)


def test_golden_covers_every_exact_request():
    golden = gen.load_golden()
    specs, _ = gen.pool_specs()
    for name in gen.CORPUS_ALL:
        specs[name] = json.loads((ROOT / "corpus" / f"{name}.json").read_text())
    for name, spec in specs.items():
        if name.startswith("batch"):
            continue
        path = f"corpus/{name}.json" if name in gen.CORPUS_ALL else f"{gen.RUN_TOKEN}/{name}.json"
        for argv in gen.golden_requests(name, spec):
            key = " ".join(path if a == "{spec}" else a for a in argv)
            assert key in golden, key
            assert golden[key][0] == 0


def test_tracer_counts_repeat_exactly():
    import bvsum
    import run
    from tracing import Tracer

    w = gen.build("em_sums", 4, ROOT)
    funcs = {n: bvsum.validate(json.loads((ROOT / w.corpus[n]).read_text())) if n in w.corpus
             else bvsum.validate(s) for n, s in list(w.corpus.items()) + list(w.specs.items())}
    call = run.make_call(bvsum, gen, funcs)
    queries = [q for q in w.queries if q["args"][-1] < 3000][:15]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for i, q in enumerate(queries):
                tracer.run("bench.query", i, lambda: call(q))
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics()
        counts.append({k: v for k, v in m.items() if not k.endswith(("self_s", "share"))})
    assert counts[0] == counts[1]
    assert counts[0]["bv.evaluate.calls"] > 0
    assert bvsum.evaluate.__module__ == "bvsum.bv"  # uninstalled


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "em_sums", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
