#!/usr/bin/env python3
"""Compare what loading a spec file costs in two git revisions of bvsum.

    python3 tools/load_costs.py PARENT CHANGE --reps 9

Each revision is exported and imported under its own package name, as
tools/ab_passes.py does, so both run in this one process on the same
numpy.  The specs are those of the ``cli_batch`` workload: its fixed pool
(written from the parent's ``perfbench/generate.py``) and the corpus.
Each side first loads every spec once, untimed, which fills the caches
that a long-lived process keeps (expression templates and compiled
functions).  Then each spec is loaded ``--reps`` times on each side,
alternating sides, and the script prints per spec:

- the best-of-reps ``load_function`` time of each side, and their ratio,
  the parent's over the change's (above 1 when the change loads faster);
- that time per piece, in microseconds;
- the gc-tracked objects that one load keeps alive, counted after a full
  collection with the loaded function held and then released;
- how many of its pieces each side proved monotone and how many it
  sampled (``BvFunction.columns.proved``; a revision without that column
  samples every piece).

Naming one revision twice gives an A/A control.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_passes import import_package  # noqa: E402
from bench_pairs import export  # noqa: E402


def best_time(load, path: str, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        load(path)
        best = min(best, time.perf_counter() - t0)
    return best


def objects_kept(load, path: str) -> int:
    """The gc-tracked objects a loaded function holds: the count with it
    alive less the count after it is gone."""
    f = load(path)
    gc.collect()
    held = len(gc.get_objects())
    del f
    gc.collect()
    return held - len(gc.get_objects())


def proved(load, path: str) -> tuple[int, int]:
    """(pieces proved monotone, pieces sampled) by one load of the spec."""
    c = load(path).columns
    n = int(getattr(c, "proved", c.lo < c.lo).sum())
    return n, len(c.lo) - n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--reps", type=int, default=9, help="timed loads of each spec per side")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sides = ("parent", "change")
    with tempfile.TemporaryDirectory(prefix="load_costs-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in sides}
        commits = {side: export(getattr(args, side), dirs[side]) for side in sides}
        sys.path.insert(0, os.path.join(dirs["parent"], "perfbench"))
        import generate as gen

        w = gen.build("cli_batch", 1, gen.Path(dirs["parent"]))
        paths = gen.write_specs(w, gen.Path(tmp) / "specs")
        paths.update((name, os.path.join(dirs["parent"], rel)) for name, rel in w.corpus.items())
        names = sorted(w.spec_names(), key=lambda n: (n in w.corpus, n))
        pieces = {n: len(json.loads(gen.Path(paths[n]).read_text())["pieces"]) for n in names}
        loads = {}
        for side in sides:
            bvsum = import_package(os.path.join(dirs[side], "src", "bvsum"), f"bvsum_{side}")
            loads[side] = bvsum.load_function
            for n in names:  # untimed: fills the caches
                loads[side](paths[n])

        best = {side: {} for side in sides}
        for k, n in enumerate(names):
            for side in sides if k % 2 == 0 else sides[::-1]:
                best[side][n] = best_time(loads[side], paths[n], args.reps)
        kept = {side: {n: objects_kept(loads[side], paths[n]) for n in names} for side in sides}
        checks = {side: {n: proved(loads[side], paths[n]) for n in names} for side in sides}

    for side in sides:
        print(f"{side:7s} {commits[side][:12]}")
    print(f"{'spec':16s} {'pieces':>6s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s} "
          f"{'parent us/pc':>12s} {'change us/pc':>12s} {'parent objs':>11s} "
          f"{'change objs':>11s} {'parent prv/smp':>14s} {'change prv/smp':>14s}")
    for n in names:
        p, c = best["parent"][n], best["change"][n]
        print(f"{n:16s} {pieces[n]:6d} {p * 1e3:10.3f} {c * 1e3:10.3f} {p / c:7.2f} "
              f"{p * 1e6 / pieces[n]:12.1f} {c * 1e6 / pieces[n]:12.1f} "
              f"{kept['parent'][n]:11d} {kept['change'][n]:11d} "
              + " ".join(f"{'%d/%d' % checks[side][n]:>14s}" for side in sides))
    total = {side: sum(best[side].values()) for side in sides}
    print(f"all specs: parent {total['parent'] * 1e3:.2f} ms, change "
          f"{total['change'] * 1e3:.2f} ms, x{total['parent'] / total['change']:.3f} "
          f"(best of {args.reps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
