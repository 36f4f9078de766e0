#!/usr/bin/env python3
"""Check that two git revisions of bvsum give the same result to every
query of benchmark workloads, bit for bit.

    python3 tools/same_results.py PARENT CHANGE \\
        --workload em_sums quadrature cli_batch --seed 1

Each revision is exported and imported under its own package name, and
each workload built by the parent's ``perfbench/generate.py``, as
tools/ab_passes.py does, so both run in this one process.  Every query of
each workload runs once on each side.  A query differs when the ``repr``
of its results differs (a float's repr names its bits, the sign of zero
among them), when one side raises and the other does not, or when the
errors' types or messages differ.  Each query that differs is printed
with both outcomes, and the script exits 1 if any does.  A CLI query's
result is its exit code and standard output.  Naming one revision twice
gives an A/A control.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_passes import import_package, make_call  # noqa: E402
from bench_pairs import export  # noqa: E402

WORKLOADS = ("em_sums", "quadrature", "cli_batch")


def outcome(call, q) -> str:
    """What call(q) gives: the repr of its result, or its error's type
    and message."""
    try:
        return repr(call(q))
    except Exception as err:  # noqa: BLE001 - a refusal is an outcome too
        return f"{type(err).__name__}: {err}"


def describe(q: dict) -> str:
    if "argv" in q:
        return "bvsum " + " ".join(q["argv"])
    g = f" {q['g']}" if "g" in q else ""
    return f"{q['kind']} {q['spec']}{g} {q['args']} tol={q['tol']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--workload", required=True, nargs="+", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    sides = ("parent", "change")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_results-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in sides}
        commits = {side: export(getattr(args, side), dirs[side]) for side in sides}
        sys.path.insert(0, os.path.join(dirs["parent"], "perfbench"))
        import generate as gen

        packages = {side: import_package(os.path.join(dirs[side], "src", "bvsum"),
                                         f"bvsum_{side}") for side in sides}
        for name in args.workload:
            w = gen.build(name, args.seed, gen.Path(dirs["parent"]))
            paths = gen.write_specs(w, gen.Path(tmp) / "specs" / name)
            paths.update((spec, os.path.join(dirs["parent"], rel))
                         for spec, rel in w.corpus.items())
            for q in w.queries:
                if "argv" in q:
                    q["full_argv"] = gen.expand_argv(q["argv"], paths.get(q["spec"]), paths)
            calls = {side: make_call(packages[side], gen, paths, w) for side in sides}
            changed = 0
            for i, q in enumerate(w.queries):
                got = {side: outcome(calls[side], q) for side in sides}
                if got["parent"] != got["change"]:
                    changed += 1
                    print(f"{name} query {i}: {describe(q)}")
                    for side in sides:
                        print(f"  {side:7s} {got[side]}")
            print(f"{name}: {changed} of {len(w.queries)} queries differ "
                  f"(seed {args.seed})")
            differ += changed

    print(f"parent {commits['parent'][:12]}, change {commits['change'][:12]}: "
          + ("same results" if not differ else f"{differ} queries differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
