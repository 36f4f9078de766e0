#!/usr/bin/env python3
"""Compare two git revisions of bvsum in one process, alternating whole
passes over a benchmark workload.

    python3 tools/ab_passes.py PARENT CHANGE --workload cli_batch \\
        --rounds 12 --seed 1

Each revision is exported with ``git archive`` into its own temporary
directory (under $TMPDIR), as tools/bench_pairs.py does, and its
``src/bvsum`` is imported under its own package name, so both run in this
one process on the same numpy.  The workload is built by the parent's
exported ``perfbench/generate.py``, which is only read: its spec files are
written to the temporary directory.  A round runs one pass of the queries
on each side, the parent first in even rounds.  The script prints each
side's best-latency queries per second (the queries answered per second of
the sum of each query's best latency over the rounds, as perfbench/run.py
reports it) and median pass time, and the ratios of the change over the
parent.  Naming one revision twice gives an A/A control.

Separate runs of the benchmark drift with the load of a shared machine;
passes that alternate within one process see the same load, so a small
difference shows in fewer passes.  Read the best-latency ratio: it is
the one perfbench/run.py's queries_per_s follows, and the steadier.  A
pass's time takes every stall of the machine, so the median pass ratio
spreads more: on a shared 2-vCPU machine an A/A run of one revision over
30 rounds of quadrature read x1.005 best-latency but x0.949 median pass,
and over 20 rounds of cli_batch x0.968 and x0.909.  Results are not
checked against the oracles: perfbench/run.py does that.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export  # noqa: E402


def import_package(src: str, name: str):
    """The package in directory src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def make_call(bvsum, gen, paths: dict, w):
    """A function that runs a query of w on this side, as perfbench/run.py
    does."""
    funcs = {name: bvsum.load_function(paths[name]) for name in w.spec_names()}

    def call(q):
        kind = q["kind"]
        if kind.startswith("cli_"):
            return gen.cli_call(bvsum.cli.main, q["full_argv"])
        f = funcs[q["spec"]]
        fn = getattr(bvsum, kind)
        if kind == "parts_check":
            return fn(f, funcs[q["g"]], *q["args"], q["tol"])
        return fn(f, *q["args"], q["tol"])

    return call


def run_pass(call, queries: list, best: list) -> float:
    """One pass; lowers best[i] to query i's latency when it is lower.
    Returns the pass's wall time."""
    t_pass = time.perf_counter()
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        try:
            call(q)
        except Exception:  # noqa: BLE001 - a refusal is timed like an answer
            pass
        best[i] = min(best[i], time.perf_counter() - t0)
    return time.perf_counter() - t_pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--workload", required=True,
                    choices=("em_sums", "quadrature", "cli_batch"))
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sides = ("parent", "change")
    with tempfile.TemporaryDirectory(prefix="ab_passes-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in sides}
        commits = {side: export(getattr(args, side), dirs[side]) for side in sides}
        sys.path.insert(0, os.path.join(dirs["parent"], "perfbench"))
        import generate as gen

        w = gen.build(args.workload, args.seed, gen.Path(dirs["parent"]))
        paths = gen.write_specs(w, gen.Path(tmp) / "specs")
        paths.update((name, os.path.join(dirs["parent"], rel)) for name, rel in w.corpus.items())
        for q in w.queries:
            if "argv" in q:
                q["full_argv"] = gen.expand_argv(q["argv"], paths.get(q["spec"]), paths)
        calls = {}
        for side in sides:
            bvsum = import_package(os.path.join(dirs[side], "src", "bvsum"), f"bvsum_{side}")
            calls[side] = make_call(bvsum, gen, paths, w)
            for q in w.queries:  # an untimed pass fills the caches
                try:
                    calls[side](q)
                except Exception:  # noqa: BLE001
                    pass

        best = {side: [float("inf")] * len(w.queries) for side in sides}
        pass_s = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                pass_s[side].append(run_pass(calls[side], w.queries, best[side]))

    qps = {side: len(w.queries) / sum(best[side]) for side in sides}
    med = {side: statistics.median(pass_s[side]) for side in sides}
    for side in sides:
        print(f"{side:7s} {commits[side][:12]}  best-latency {qps[side]:9.1f} q/s  "
              f"median pass {med[side] * 1e3:9.2f} ms")
    print(f"change/parent: best-latency q/s x{qps['change'] / qps['parent']:.3f}, "
          f"median pass time x{med['change'] / med['parent']:.3f} "
          f"({args.workload}, seed {args.seed}, {args.rounds} rounds, "
          f"{len(w.queries)} queries a pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
