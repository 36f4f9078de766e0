import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvsum import cli
from bvsum import expr as ex
from bvsum import measure
from bvsum.cli import main
from conftest import CORPUS_DIR, DEEP

REPO = Path(__file__).resolve().parent.parent


def run(*args):
    return subprocess.run([sys.executable, "-m", "bvsum", *map(str, args)],
                          capture_output=True, text=True, cwd=REPO)


def cpath(name):
    return CORPUS_DIR / name


def strict_json(text):
    """text parsed as JSON, refusing the tokens NaN, Infinity and
    -Infinity, which JSON does not have."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def run_main(capsys, *args):
    try:
        code = main([str(a) for a in args])
    except SystemExit as e:  # argparse's usage errors
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def run_in(capsys, *args):
    """main(argv) in this process, with the result run() gives."""
    code, out, err = run_main(capsys, *args)
    return subprocess.CompletedProcess(args, code, out, err)


class TestModuleEntryPoint:
    # the other tests call main(argv) in-process; these two run the module
    # as a user does, in a fresh interpreter
    def test_exit_0(self):
        r = run("sum", cpath("harmonic.json"), "--a", 0, "--b", 10, "--json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["command"] == "sum"

    def test_nonzero_exit(self):
        r = run("series", cpath("harmonic.json"), "--n", 10)
        assert r.returncode == 5
        assert "divergent" in r.stderr


class TestExitCodes:
    def test_success_paths(self, capsys):
        matrix = [
            ("variation", cpath("rho_int.json"), "--lo", 0, "--hi", 2,
             "--open-lo", "--open-hi"),
            ("variation", cpath("linear.json"), "--lo", 0, "--hi", 10),
            ("sum", cpath("harmonic.json"), "--a", 0, "--b", 10),
            ("sum", cpath("linear.json"), "--a", 0, "--b", 10, "--json"),
            ("series", cpath("basel.json"), "--n", 10),
            ("series", cpath("basel.json"), "--n", "10,100", "--csv"),
            ("gamma", cpath("harmonic.json"), "--n", 100, "--json"),
            ("gamma", cpath("harmonic.json"), "--n", "10,100", "--csv",
             "--oracle", 0.5772156649),
            ("convergence", cpath("basel.json")),
            ("convergence", cpath("harmonic.json"), "--json"),
            ("verify", cpath("floor_steps.json"), "--check", "midvalue",
             "--a", 0, "--b", 3),
            ("verify", cpath("linear.json"), cpath("linear.json"),
             "--check", "parts", "--a", 0, "--b", 1, "--tol", 1e-5),
            ("verify", cpath("step_half.json"), "--check", "pvv",
             "--a", 0, "--b", 2),
        ]
        for args in matrix:
            code, _, err = run_main(capsys, *args)
            assert code == 0, (args, err)

    def test_evaluation_errors_exit_2(self, capsys, tmp_path):
        # the antiderivative x^2/2*log(x) - x^2/4 passes validation but
        # fails at the piece end 0, where the sum's integral evaluates it
        e, F = 1 / math.e, "x^2/2*log(x) - x^2/4"
        spec = tmp_path / "xlogx.json"
        spec.write_text(json.dumps({
            "format": 1, "name": "xlogx", "domain": {"lo": 0, "hi": 1},
            "pieces": [{"interval": [0, e], "expr": "x*log(x)", "direction": "dec",
                        "left_limit": 0, "right_limit": -e, "antiderivative": F},
                       {"interval": [e, 1], "expr": "x*log(x)", "direction": "inc",
                        "left_limit": -e, "right_limit": 0, "antiderivative": F}],
            "breakpoints": [{"x": 0, "left": 0, "value": 0, "right": 0},
                            {"x": e, "left": -e, "value": -e, "right": -e},
                            {"x": 1, "left": 0, "value": 0, "right": 0}],
        }))
        r = run_in(capsys, "sum", spec, "--a", 0, "--b", 1)
        assert r.returncode == 2
        assert r.stderr == "evaluation error: log_domain at x=0.0\n"

    def test_usage_errors_exit_1(self, capsys):
        r = run_in(capsys, "sum", cpath("linear.json"), "--a", 10, "--b", 3)
        assert r.returncode == 1
        r = run_in(capsys, "sum", cpath("linear.json"), "--a", 0)   # missing --b
        assert r.returncode == 1
        r = run_in(capsys, "frobnicate", cpath("linear.json"))
        assert r.returncode == 1
        r = run_in(capsys, "sum", cpath("linear.json"), "--a", 0, "--b", "x")
        assert r.returncode == 1

    def test_validation_errors_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1, "name": "bad", "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "sin(x)",
                        "direction": "inc", "left_limit": 0,
                        "right_limit": -0.5440211108893698}],
            "breakpoints": [],
        }))
        r = run_in(capsys, "sum", bad, "--a", 0, "--b", 5)
        assert r.returncode == 2
        assert "NonMonotonePiece" in r.stderr

        r = run_in(capsys, "sum", tmp_path / "missing.json", "--a", 0, "--b", 5)
        assert r.returncode == 2

        mangled = tmp_path / "mangled.json"
        mangled.write_text("{ not json")
        r = run_in(capsys, "sum", mangled, "--a", 0, "--b", 5)
        assert r.returncode == 2

    @pytest.mark.parametrize("expr", ["exp(1000)*x", "10^400*x"])
    def test_nonfinite_constant_is_bad_expression_exit_2(self, tmp_path, capsys,
                                                         expr):
        spec = tmp_path / "const.json"
        spec.write_text(json.dumps({
            "format": 1, "name": "nonfinite-constant",
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": expr, "direction": "inc",
                        "left_limit": 0, "right_limit": 1}],
            "breakpoints": [],
        }))
        code, _, err = run_main(capsys, "variation", spec, "--lo", 0, "--hi", 10)
        assert code == 2
        assert "BadExpression" in err

    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_deep_expression_runs_at_the_bound_and_is_refused_past_it(
            self, tmp_path, capsys, monkeypatch, kind):
        # every accepted expression survives eq, hash, repr and render where
        # main(argv) parses it, at the default recursion limit, and is then
        # evaluated on both paths
        parse, parsed = ex.parse, []

        def parse_and_check(text):
            e, same = parse(text), parse(text)
            assert e == same and hash(e) == hash(same) and repr(e) == repr(same)
            assert parse(ex.render(e)) == e
            parsed.append(text)
            return e

        monkeypatch.setattr(ex, "parse", parse_and_check)
        assert sys.getrecursionlimit() == 1000
        for depth, want in ((ex._MAX_DEPTH, 0), (ex._MAX_DEPTH + 1, 2)):
            text = DEEP[kind](depth)  # c*x
            c = depth + 1 if kind == "sum" else 1
            spec = tmp_path / f"{kind}{depth}.json"
            spec.write_text(json.dumps({
                "format": 1, "name": "deep", "domain": {"lo": 0, "hi": 4},
                "pieces": [{"interval": [0, 4], "expr": text, "direction": "inc",
                            "left_limit": 0, "right_limit": 4 * c,
                            "antiderivative": f"{c}*x^2/2"}],
                "breakpoints": [],
            }))
            for argv in (("variation", spec, "--lo", 0, "--hi", 4),
                         ("sum", spec, "--a", 0, "--b", 4)):
                code, out, err = run_main(capsys, *argv, "--json")
                assert code == want, err
                if want:
                    assert "BadExpression" in err and "nested too deeply" in err
            assert parsed.count(text) == (2 if want == 0 else 0)

    def test_domain_errors_exit_3(self, capsys):
        r = run_in(capsys, "variation", cpath("vshape.json"), "--lo", 0, "--hi", 10)
        assert r.returncode == 3
        r = run_in(capsys, "sum", cpath("vshape.json"), "--a", 0, "--b", 10)
        assert r.returncode == 3

    def test_tolerance_unreachable_exit_4(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({
            "format": 1, "name": "bare-harmonic",
            "domain": {"lo": 0, "hi": 10},
            "pieces": [{"interval": [0, 10], "expr": "1/(1+x)",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 1.0 / 11.0}],
            "breakpoints": [],
        }))
        # far under the rounding floor of the brackets, about 7.4e-13 here
        r = run_in(capsys, "sum", bare, "--a", 0, "--b", 10, "--tol", 1e-15)
        assert r.returncode == 4

    def test_parts_check_of_a_spec_with_itself_answers_a_tight_tol(self, capsys, monkeypatch):
        # g = f makes g o f^-1 linear, so the mid-value brackets close at
        # the first grid; tagged sums ran into the 2^24-cell cap here
        cells = []
        real = measure._walk

        def walk(rows, ns, *args):
            cells.append(int(ns.sum()))
            return real(rows, ns, *args)

        monkeypatch.setattr(measure, "_walk", walk)
        r = run_in(capsys, "verify", cpath("sin_arches.json"), "--check", "parts",
                   "--a", 0, "--b", 2, "--tol", 1e-12)
        assert r.returncode == 0 and "PASS" in r.stdout
        assert 0 < sum(cells) <= 1024

    def test_overflowing_constant_integral_is_a_usage_error_exit_1(
            self, tmp_path, capsys):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({
            "format": 1, "name": "big-constant",
            "domain": {"lo": 0, "hi": 2},
            "pieces": [{"interval": [0, 2], "expr": "1e308",
                        "direction": "const", "left_limit": 1e308,
                        "right_limit": 1e308}],
            "breakpoints": [],
        }))
        code, out, err = run_main(capsys, "sum", spec, "--a", 0, "--b", 2)
        assert code == 1
        assert "non-finite" in err and out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_series_refuses_non_positive_tol_exit_4(self, capsys, tol):
        code, out, err = run_main(capsys, "series", cpath("basel.json"),
                                  "--n", 10, "--tol", tol)
        assert code == 4
        assert "below rounding floor" in err and out == ""

    def test_divergent_exit_5(self, capsys):
        r = run_in(capsys, "series", cpath("harmonic.json"), "--n", 10)
        assert r.returncode == 5

    def test_missing_antiderivative_exit_6(self, capsys, tmp_path):
        f = tmp_path / "no_tail_f.json"
        f.write_text(json.dumps({
            "format": 1, "name": "no-tail-antiderivative",
            "domain": {"lo": 0, "hi": "inf"},
            "pieces": [{"interval": [0, "inf"], "expr": "1/(1+x)^2",
                        "direction": "dec", "left_limit": 1,
                        "right_limit": 0}],
            "breakpoints": [],
            "tail": {"limit": 0},
        }))
        r = run_in(capsys, "series", f, "--n", 10)
        assert r.returncode == 6
        r = run_in(capsys, "convergence", f)
        assert r.returncode == 6

    def test_nan_budget_is_a_usage_error_exit_1(self, capsys):
        code, out, err = run_main(capsys, "verify", cpath("exp_decay.json"), "--check",
                                  "pvv", "--a", 0, "--b", 5, "--budget", "nan", "--json")
        assert code == 1
        assert "--budget" in err and out == ""

    def test_identity_violation_exit_7(self, capsys):
        # a residual is never negative, so a negative budget always fails
        # (a zero budget passes wherever the residual rounds to exactly 0)
        r = run_in(capsys, "verify", cpath("linear.json"), cpath("linear.json"),
                           "--check", "parts", "--a", 0, "--b", 1, "--tol", 1e-5,
                           "--budget", -1)
        assert r.returncode == 7
        assert "FAIL" in r.stdout


class TestNegativeValues:
    # argparse takes a negative number that its own pattern does not match,
    # such as -1e-3 or -inf, for an option: each float option must read it
    # as its value, as it reads --opt=value
    CASES = [
        (("variation", cpath("linear.json"), "--lo", "-1e-3", "--hi", 2), "--lo"),
        (("variation", cpath("linear.json"), "--lo", 0, "--hi", "-inf"), "--hi"),
        (("sum", cpath("harmonic.json"), "--a", "-1e3", "--b", 10), "--a"),
        (("sum", cpath("harmonic.json"), "--a", 0, "--b", "-1e1"), "--b"),
        (("sum", cpath("harmonic.json"), "--a", 0, "--b", 10, "--tol", "-1e-3"), "--tol"),
        (("verify", cpath("linear.json"), "--check", "pvv", "--a", "-1e-3", "--b", 2), "--a"),
        (("verify", cpath("linear.json"), "--check", "pvv", "--a", 0, "--b", "-inf"), "--b"),
        (("verify", cpath("linear.json"), "--check", "pvv", "--a", 0, "--b", 2,
          "--budget", "-inf", "--json"), "--budget"),
        (("verify", cpath("linear.json"), "--check", "pvv", "--a", 0, "--b", 2,
          "--tol", "-1E-3"), "--tol"),
        (("series", cpath("basel.json"), "--n", 10, "--oracle", "-1.5e-3"), "--oracle"),
        (("gamma", cpath("harmonic.json"), "--n", "10,100", "--csv", "--oracle", "-Inf"),
         "--oracle"),
    ]

    @pytest.mark.parametrize("argv,option", CASES, ids=[
        f"{argv[0]}{option}={argv[argv.index(option) + 1]}" for argv, option in CASES])
    def test_negative_value_reads_as_with_equals(self, capsys, argv, option):
        i = argv.index(option)
        joined = (*argv[:i], f"{option}={argv[i + 1]}", *argv[i + 2:])
        code, out, err = run_main(capsys, *argv)
        assert "expected one argument" not in err
        assert (code, out, err) == run_main(capsys, *joined)

    def test_answers_with_a_negative_exponent(self, capsys):
        code, out, _ = run_main(capsys, "variation", cpath("linear.json"),
                                "--lo", "-1e-3", "--hi", 2, "--json")
        assert code == 0
        assert strict_json(out)["inputs"]["lo"] == -1e-3


class TestJsonContract:
    def test_byte_identical_runs(self, capsys):
        a = run_in(capsys, "sum", cpath("harmonic.json"), "--a", 0, "--b", 10, "--json")
        b = run_in(capsys, "sum", cpath("harmonic.json"), "--a", 0, "--b", 10, "--json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_schema_keys_and_digits(self, capsys):
        r = run_in(capsys, "sum", cpath("harmonic.json"), "--a", 0, "--b", 10, "--json")
        doc = json.loads(r.stdout)
        assert set(doc) >= {"command", "inputs", "value", "radius", "bounds",
                            "exact"}
        assert set(doc["bounds"]) == {"remainder", "quadrature"}
        # every float is printed with 17 significant digits
        for m in re.finditer(r"-?\d\.(\d+)e[+-]\d+", r.stdout):
            assert len(m.group(1)) == 16
        assert doc["value"] == pytest.approx(2.8524407273438253, abs=1e-15)

    @pytest.mark.parametrize("argv,key", [
        (("variation", "basel.json", "--lo", 0, "--hi", "inf"), "hi"),
        (("verify", "exp_decay.json", "--check", "pvv", "--a", 0, "--b", "inf"), "b"),
        (("sum", "harmonic.json", "--a", 0, "--b", 10, "--tol", "inf"), "tol"),
        (("verify", "exp_decay.json", "--check", "pvv", "--a", 0, "--b", 5,
          "--budget", "inf"), None),
    ])
    def test_nonfinite_numbers_print_as_strings(self, capsys, argv, key):
        cmd, name, *rest = argv
        r = run_in(capsys, cmd, cpath(name), *rest, "--json")
        assert r.returncode == 0, r.stderr
        doc = strict_json(r.stdout)
        assert (doc["inputs"][key] if key else doc["radius"]) == "inf"

    def test_json_spells_each_nonfinite_number_as_the_spec_format(self):
        doc = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": np.float64(-math.inf),
               "e": [1.5, math.nan]}
        assert cli._json(doc) == ('{"a":"inf","b":"-inf","c":"nan","d":"-inf",'
                                  '"e":[1.5000000000000000e+00,"nan"]}')

    def test_verify_json_residual(self, capsys):
        r = run_in(capsys, "verify", cpath("floor_steps.json"), "--check", "midvalue",
                           "--a", 0, "--b", 3, "--json")
        doc = json.loads(r.stdout)
        assert doc["residual"] == 0.0
        assert doc["pass"] is True

    def test_gamma_json_carries_gamma_n(self, capsys):
        r = run_in(capsys, "gamma", cpath("harmonic.json"), "--n", 100, "--json")
        doc = json.loads(r.stdout)
        assert doc["gamma_n"] == pytest.approx(0.572257000798361, abs=1e-12)

    def test_human_numerics_appear_in_json(self, capsys):
        human = run_in(capsys, "sum", cpath("harmonic.json"), "--a", 0, "--b", 10)
        machine = run_in(capsys, "sum", cpath("harmonic.json"), "--a", 0, "--b", 10,
                                 "--json")
        human_numbers = set(re.findall(r"-?\d\.\d{16}e[+-]\d+", human.stdout))
        assert human_numbers <= set(
            re.findall(r"-?\d\.\d{16}e[+-]\d+", machine.stdout))


class TestCsv:
    def test_series_sweep(self, capsys):
        r = run_in(capsys, "series", cpath("basel.json"), "--n", "10,100", "--csv",
                           "--oracle", 1.6449340668482269)
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "n,estimate,radius,oracle,error"
        assert len(lines) == 3
        n, est, rad, oracle, err = lines[1].split(",")
        assert int(n) == 10
        assert float(err) <= float(rad)


class TestBatch:
    def test_batch_midvalue_over_corpus(self, capsys, tmp_path):
        # run on the files whose domain covers [0, 3]
        import shutil

        sub = tmp_path / "batch"
        sub.mkdir()
        for name in ("floor_steps.json", "step_quarter.json", "rho_int.json",
                     "harmonic.json", "mixed_jumps.json"):
            shutil.copy(cpath(name), sub / name)
        r = run_in(capsys, "verify", "--batch", sub, "--check", "midvalue",
                           "--a", 0, "--b", 3, "--tol", 1e-6)
        assert r.returncode == 0, r.stderr
        assert r.stdout.count("PASS") == 5
