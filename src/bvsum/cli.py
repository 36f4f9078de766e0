"""Command-line front end.

Subcommands: variation, sum, series, gamma, convergence, verify.
Exit codes are a stable contract:

    0 success        1 usage          2 validation     3 domain
    4 tolerance      5 divergent      6 missing/bad antiderivative
    7 identity violation

Machine output (--json) prints every float with 17 significant digits
and is byte-identical across runs for identical inputs.  JSON has no
token for a non-finite number, so it prints one as the string "inf",
"-inf" or "nan", as the spec format writes domain.hi.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import euler_maclaurin as em
from .bv import pointwise_variation, rho
from .errors import (
    BadAntiderivative,
    DomainError,
    MissingAntiderivative,
    NonIntegerBounds,
    SeriesDivergent,
    ToleranceUnreachable,
    ValidationError,
)
from .expr import EvalError
from .measure import DEFAULT_TOL, IntervalSpec, total_variation_measure
from .specfile import load_function

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4
EXIT_DIVERGENT = 5
EXIT_ANTIDERIVATIVE = 6
EXIT_IDENTITY = 7

PVV_BUDGET = 1e-10


def _fmt(v) -> str:
    """17-significant-digit rendering used in both human and JSON output."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".16e")


def _json(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(f'"{k}":{_json(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return f'"{float(obj)!r}"'
    return _fmt(obj)


def _emit(args, result: dict, human_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(_json(result))
    else:
        for line in human_lines:
            print(line)


_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in decimal or scientific notation, or -inf
        # (or nan), is an option's value, not an option; argparse's own
        # pattern, which reads only -1 and -0.5 as numbers, would take
        # -1e-3 for an option and leave --lo -1e-3 without its value
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # the exit-code table reserves 1 for usage errors (argparse uses 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _inputs(args, **extra) -> dict:
    d = {"spec": str(args.spec)}
    d.update(extra)
    return d


def _pv_identity(f, lo: float, hi: float) -> tuple[float, float, float, float]:
    """Both sides of pV(f, ]lo,hi[) = |mu_f|(]lo,hi[) + sum of rho over the
    interior breakpoints: (pV open, |mu_f|, rho sum, residual)."""
    pv_open = pointwise_variation(f, lo, hi, False, False)
    tvm = total_variation_measure(f, IntervalSpec.open(lo, hi))
    rho_sum = math.fsum(rho(f, bp.x) for bp in f.breakpoints if lo < bp.x < hi)
    return pv_open, tvm, rho_sum, abs(pv_open - (tvm + rho_sum))


def cmd_variation(args) -> int:
    f = load_function(args.spec)
    lo, hi = args.lo, args.hi
    closed_lo, closed_hi = not args.open_lo, not args.open_hi
    pv = pointwise_variation(f, lo, hi, closed_lo, closed_hi)
    pv_open, tvm, rho_sum, residual = _pv_identity(f, lo, hi)
    endpoint = pv - pv_open
    result = {
        "command": "variation",
        "inputs": _inputs(args, lo=lo, hi=hi, closed_lo=closed_lo, closed_hi=closed_hi),
        "value": pv,
        "radius": 0.0,
        "bounds": {"remainder": 0.0, "quadrature": 0.0},
        "residual": residual,
        "budget": PVV_BUDGET,
        "open_variation": pv_open,
        "variation_measure": tvm,
        "rho_sum": rho_sum,
        "endpoint_terms": endpoint,
    }
    flags = f"{'[' if closed_lo else ']'}{_fmt(lo)}, {_fmt(hi)}{']' if closed_hi else '['}"
    _emit(args, result, [
        f"interval          {flags}",
        f"pV                = {_fmt(pv)}",
        f"pV (open)         = {_fmt(pv_open)}",
        f"|mu_f| (open)     = {_fmt(tvm)}",
        f"sum rho           = {_fmt(rho_sum)}",
        f"endpoint terms    = {_fmt(endpoint)}",
        f"identity residual = {_fmt(residual)} (budget {_fmt(PVV_BUDGET)})",
    ])
    if residual > PVV_BUDGET:
        print("identity violated", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_sum(args) -> int:
    f = load_function(args.spec)
    if args.b <= args.a:
        print("error: need a < b", file=sys.stderr)
        return EXIT_USAGE
    rep = em.em_finite_sum(f, args.a, args.b, args.tol)
    result = {
        "command": "sum",
        "inputs": _inputs(args, a=args.a, b=args.b, tol=args.tol),
        "value": rep.approx.value,
        "radius": rep.approx.radius,
        "bounds": {"remainder": rep.remainder_bound,
                   "quadrature": rep.integral_term.radius},
        "exact": rep.exact_sum,
        "integral": rep.integral_term.value,
        "boundary": rep.boundary_term,
    }
    _emit(args, result, [
        f"exact sum        = {_fmt(rep.exact_sum)}",
        f"integral term    = {_fmt(rep.integral_term.value)} "
        f"(radius {_fmt(rep.integral_term.radius)})",
        f"boundary term    = {_fmt(rep.boundary_term)}",
        f"approx           = {_fmt(rep.approx.value)} (radius {_fmt(rep.approx.radius)})",
        f"remainder bound  = {_fmt(rep.remainder_bound)}  (pV(f,[a,b])/2)",
    ])
    return EXIT_OK


def _sweep_ns(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _csv_sweep(args, f, enclose) -> int:
    """CSV rows n,estimate,radius,oracle,error of enclose(f, n, tol) over the n list."""
    print("n,estimate,radius,oracle,error")
    for n in args.n:
        enc = enclose(f, n, args.tol)
        oracle = args.oracle
        err = abs(enc.value - oracle) if oracle is not None else None
        print(f"{n},{_fmt(enc.value)},{_fmt(enc.radius)},"
              f"{_fmt(oracle) if oracle is not None else ''},"
              f"{_fmt(err) if err is not None else ''}")
    return EXIT_OK


def _tail_command(args, enclose, describe) -> int:
    """series and gamma: enclose(f, n, tol) gives (a report, its
    Certified estimate).  With --csv the n values are swept over the
    estimate; else the one n value gives a result that holds the estimate
    and describe(report, remainder) -> (the result's further fields, the
    text lines), where remainder = pV(f, [n, inf))/2."""
    f = load_function(args.spec)
    if args.csv:
        return _csv_sweep(args, f, lambda f, n, tol: enclose(f, n, tol)[1])
    if len(args.n) != 1:
        print("error: a list of n values needs --csv", file=sys.stderr)
        return EXIT_USAGE
    n = args.n[0]
    report, estimate = enclose(f, n, args.tol)
    remainder = 0.5 * pointwise_variation(f, float(n), math.inf)
    fields, lines = describe(report, remainder)
    _emit(args, {"command": args.command, "inputs": _inputs(args, n=n, tol=args.tol),
                 "value": estimate.value, "radius": estimate.radius, **fields}, lines)
    return EXIT_OK


def cmd_series(args) -> int:
    def describe(enc, remainder):
        return {"bounds": {"remainder": remainder,
                           "quadrature": enc.radius - remainder}}, [
            f"series enclosure = {_fmt(enc.value)} (radius {_fmt(enc.radius)})",
            f"remainder bound  = {_fmt(remainder)}  (pV(f,[n,inf))/2)",
            f"quadrature part  = {_fmt(enc.radius - remainder)}",
        ]

    return _tail_command(args, lambda f, n, tol: (em.series_sum(f, n, tol),) * 2,
                         describe)


def cmd_gamma(args) -> int:
    def enclose(f, n, tol):
        rep = em.euler_constant(f, n, tol)
        return rep, rep.gamma_estimate

    def describe(rep, remainder):
        return {"bounds": {"remainder": remainder, "quadrature": rep.gamma_n.radius},
                "gamma_n": rep.gamma_n.value}, [
            f"gamma_n          = {_fmt(rep.gamma_n.value)} "
            f"(radius {_fmt(rep.gamma_n.radius)})",
            f"gamma enclosure  = {_fmt(rep.gamma_estimate.value)} "
            f"(radius {_fmt(rep.gamma_estimate.radius)})",
            f"remainder bound  = {_fmt(remainder)}  (pV(f,[n,inf))/2)",
        ]

    return _tail_command(args, enclose, describe)


def cmd_convergence(args) -> int:
    f = load_function(args.spec)
    cls = em.classify_convergence(f)
    result = {
        "command": "convergence",
        "inputs": _inputs(args),
        "value": None,
        "radius": None,
        "classification": cls.value,
    }
    _emit(args, result, [f"classification: {cls.value}"])
    return EXIT_OK


def _verify_one(args, f, g, path) -> tuple[dict, list[str], bool]:
    if args.check == "midvalue":
        rep = em.em_midvalue_check(f, args.a, args.b, args.tol)
        quad = rep.budget - em.IDENTITY_SLACK
        remainder = 0.0
    elif args.check == "parts":
        rep = em.parts_check(f, g, args.a, args.b, args.tol)
        quad = rep.budget - em.IDENTITY_SLACK
        remainder = 0.0
    else:  # pvv
        pv_open, tvm, rho_sum, residual = _pv_identity(f, args.a, args.b)
        rep = em.CheckReport(pv_open, tvm + rho_sum, residual, PVV_BUDGET)
        quad = 0.0
        remainder = 0.0
    budget = rep.budget if args.budget is None else args.budget
    ok = rep.residual <= budget
    result = {
        "command": "verify",
        "inputs": _inputs(args, check=args.check, a=args.a, b=args.b, tol=args.tol),
        "value": rep.lhs,
        "radius": budget,
        "bounds": {"remainder": remainder, "quadrature": quad},
        "residual": rep.residual,
        "rhs": rep.rhs,
        "pass": ok,
    }
    if path is not None:
        result["inputs"]["spec"] = str(path)
    lines = [
        f"check            {args.check} on {path if path is not None else args.spec}",
        f"lhs              = {_fmt(rep.lhs)}",
        f"rhs              = {_fmt(rep.rhs)}",
        f"residual         = {_fmt(rep.residual)}",
        f"allowed budget   = {_fmt(budget)}",
        "PASS" if ok else "FAIL",
    ]
    return result, lines, ok


def cmd_verify(args) -> int:
    if args.b <= args.a:
        print("error: need a < b", file=sys.stderr)
        return EXIT_USAGE
    if args.batch is not None:
        paths = sorted(Path(args.batch).glob("*.json"))
        all_ok = True
        results = []
        for p in paths:
            f = load_function(p)
            g = f if args.check == "parts" else None
            result, lines, ok = _verify_one(args, f, g, p)
            results.append(result)
            all_ok &= ok
            if not args.json:
                for line in lines:
                    print(line)
        if args.json:
            print(_json({"command": "verify", "batch": str(args.batch),
                         "results": results}))
        return EXIT_OK if all_ok else EXIT_IDENTITY
    if args.spec is None:
        print("error: need a spec file or --batch", file=sys.stderr)
        return EXIT_USAGE
    f = load_function(args.spec)
    if args.check == "parts":
        g = load_function(args.spec2) if args.spec2 is not None else f
    else:
        g = None
    result, lines, ok = _verify_one(args, f, g, args.spec)
    _emit(args, result, lines)
    return EXIT_OK if ok else EXIT_IDENTITY


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="bvsum",
                  description="Certified sums, series and Euler constants for "
                              "piecewise-monotone BV functions.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="function spec file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="quadrature tolerance (default 1e-10)")

    p = sub.add_parser("variation", help="pointwise variation and the "
                                         "variation-measure identity")
    p.add_argument("spec")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--open-lo", action="store_true")
    p.add_argument("--open-hi", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("sum", help="certified finite sum")
    add_common(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("series", help="certified series sum")
    add_common(p)
    p.add_argument("--n", type=_sweep_ns, required=True,
                   help="tail start; a comma list with --csv")
    p.add_argument("--csv", action="store_true", help="CSV sweep over the n list")
    p.add_argument("--oracle", type=float, default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("gamma", help="certified Euler constant")
    add_common(p)
    p.add_argument("--n", type=_sweep_ns, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--oracle", type=float, default=None)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("convergence", help="integral criterion classification")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("verify", help="numeric identity checks")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("spec2", nargs="?", default=None,
                   help="second function for --check parts")
    p.add_argument("--check", choices=("midvalue", "parts", "pvv"), required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    def budget(text: str) -> float:
        # argparse names this function in its message on a bad number
        v = float(text)
        if math.isnan(v):
            raise argparse.ArgumentTypeError("the budget must be a number, not nan")
        return v

    p.add_argument("--budget", type=budget, default=None,
                   help="override the allowed residual")
    p.add_argument("--batch", default=None, help="run on every *.json in a directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return top


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        if args.command == "verify" and args.check == "midvalue":
            for name in ("a", "b"):
                if not float(getattr(args, name)).is_integer():
                    print(f"error: --{name} must be an integer for "
                          f"--check midvalue", file=sys.stderr)
                    return EXIT_USAGE
            args.a, args.b = int(args.a), int(args.b)
        return args.func(args)
    except ValidationError as e:
        for v in e.violations:
            print(str(v), file=sys.stderr)
        return EXIT_VALIDATION
    except EvalError as e:  # as validate's "evaluator failed"
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ToleranceUnreachable as e:
        print(f"tolerance unreachable: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except SeriesDivergent as e:
        print(f"divergent: {e}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (MissingAntiderivative, BadAntiderivative) as e:
        print(f"antiderivative problem: {e}", file=sys.stderr)
        return EXIT_ANTIDERIVATIVE
    except (NonIntegerBounds, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
