#!/usr/bin/env python3
"""Compare what a direct partial sum costs in two git revisions of bvsum.

    python3 tools/sum_costs.py PARENT CHANGE --reps 9

Each revision is exported and imported under its own package name, as
tools/ab_passes.py does, so both run in this one process on the same
numpy.  The specs are those of the ``em_sums`` workload (seed 1, written
from the parent's ``perfbench/generate.py``): the corpus files and the
seeded family variants.  For each spec and each fixed range [a, b) of
RANGES, clipped to its domain, ``euler_maclaurin._direct_sum(f, a, b)``,
the exact sum sum_{a<=k<b} f(k) behind every ``em_sums`` query, runs
once untimed on each side, which compiles the spec's kernels, and the
two sides' sums must have the same bits.  Then it runs ``--reps`` times
on each side, alternating sides, and the script prints per spec and
range:

- the best-of-reps time of each side, and their ratio, the parent's over
  the change's (above 1 when the change sums faster);
- that time per term, in nanoseconds.

Naming one revision twice gives an A/A control.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_passes import import_package  # noqa: E402
from bench_pairs import export  # noqa: E402

# a short run, one block's fixed cost, and a long one of 13 blocks, which
# reaches past the underflow of the exp family
RANGES = ((0, 100), (0, 50_000))


def best_time(fn, f, a: int, b: int, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(f, a, b)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--reps", type=int, default=9, help="timed sums of each range per side")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sides = ("parent", "change")
    with tempfile.TemporaryDirectory(prefix="sum_costs-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in sides}
        commits = {side: export(getattr(args, side), dirs[side]) for side in sides}
        sys.path.insert(0, os.path.join(dirs["parent"], "perfbench"))
        import generate as gen

        w = gen.build("em_sums", 1, gen.Path(dirs["parent"]))
        paths = gen.write_specs(w, gen.Path(tmp) / "specs")
        paths.update((name, os.path.join(dirs["parent"], rel)) for name, rel in w.corpus.items())
        names = sorted(w.spec_names(), key=lambda n: (n in w.corpus, n))
        sums, funcs = {}, {}
        for side in sides:
            bvsum = import_package(os.path.join(dirs[side], "src", "bvsum"), f"bvsum_{side}")
            sums[side] = sys.modules[f"bvsum_{side}.euler_maclaurin"]._direct_sum
            funcs[side] = {n: bvsum.load_function(paths[n]) for n in names}

        cases = []
        for n in names:
            f = funcs["parent"][n]
            for a, b in RANGES:
                a = max(a, math.ceil(f.domain_lo))
                b = b if f.domain_hi >= b else math.floor(f.domain_hi)
                if a < b:
                    cases.append((n, a, b))
        best = {side: {} for side in sides}
        for k, case in enumerate(cases):
            n, a, b = case
            bits = {struct.pack("<d", sums[side](funcs[side][n], a, b)) for side in sides}
            if len(bits) != 1:
                raise SystemExit(f"{n} [{a}, {b}): the two sides' sums differ")
            for side in sides if k % 2 == 0 else sides[::-1]:
                best[side][case] = best_time(sums[side], funcs[side][n], a, b, args.reps)

    for side in sides:
        print(f"{side:7s} {commits[side][:12]}")
    print(f"{'spec':16s} {'range':>12s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s} "
          f"{'parent ns/term':>14s} {'change ns/term':>14s}")
    for case in cases:
        n, a, b = case
        p, c = best["parent"][case], best["change"][case]
        print(f"{n:16s} {f'[{a}, {b})':>12s} {p * 1e3:10.3f} {c * 1e3:10.3f} {p / c:7.2f} "
              f"{p * 1e9 / (b - a):14.1f} {c * 1e9 / (b - a):14.1f}")
    total = {side: sum(best[side].values()) for side in sides}
    print(f"all ranges: parent {total['parent'] * 1e3:.2f} ms, change "
          f"{total['change'] * 1e3:.2f} ms, x{total['parent'] / total['change']:.3f} "
          f"(best of {args.reps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
