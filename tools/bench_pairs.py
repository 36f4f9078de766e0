#!/usr/bin/env python3
"""Run the benchmark on two git revisions in alternating pairs and
summarise every end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload em_sums \\
        --pairs 10 --seconds 30 --seed 11 --out BENCH_N.json

Each revision is exported with ``git archive`` into its own temporary
directory (under $TMPDIR), and the benchmark command of BENCHMARK.json
(``python3 perfbench/run.py``) runs there with ``--trace 0``.  Pair i runs
the parent first when i is even and the change first when it is odd.
Every run must report ``correct``; the first that does not stops the
script with exit code 1.

For each end-to-end metric of BENCHMARK.json the summary holds the runs
of both sides, their medians and quartiles, the change over the parent,
the pairs the change won and tied, how much worse the change's median is
(a share of the parent's) against the metric's bound, and the gap between
the medians in units of the parent's interquartile range.  ``gain_shown``
is true when the change won at least nine tenths of the pairs and its
median is better by more than that range.  The script reads only
BENCHMARK.json and runs only perfbench/, from the exported revisions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def export(rev: str, dest: str) -> str:
    """Extract the files of rev into dest; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def run_once(command: list, cwd: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: the JSON object of its last line of output, with
    its exit code."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{cwd}: no result line (exit code {proc.returncode})") from None
    result["exit_code"] = proc.returncode
    return result


def quartiles(runs: list) -> list:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return [q1, q3]


def summarise(parent: list, change: list, better: str, bound: float) -> dict:
    """The summary of one metric over pairs (parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q = quartiles(parent)
    iqr = q[1] - q[0]
    ratio = cm / pm if pm else None
    worse_by = None if ratio is None else sign * (1.0 - ratio)
    gap = abs(cm - pm) / iqr if iqr else None
    return {
        "parent_median": pm, "parent_quartiles": q,
        "change_median": cm, "change_quartiles": quartiles(change),
        "change_over_parent": ratio,
        "change_better_pairs": f"{wins}/{len(parent)}", "ties": ties,
        "worse_by": worse_by, "bound": bound,
        "within_bound": worse_by is None or worse_by <= bound,
        "median_gap_over_parent_iqr": gap,
        "gain_shown": bool(10 * wins >= 9 * len(parent) and sign * (cm - pm) > iqr),
        "parent_runs": parent, "change_runs": change,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="file for the JSON summary (default: stdout)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), dirs[side]) for side in dirs}
        with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
        out = {
            "command": " ".join(bench["command"]) + f" --workload W --seed {args.seed}"
                       f" --seconds {args.seconds:g} --trace 0",
            "method": f"{args.pairs} pairs per workload, parent and change alternating "
                      "which runs first (parent first in even pairs), each from a "
                      "clean copy of its commit (git archive)",
            "revisions": commits,
            "machine": {"python": platform.python_version(),
                        "numpy": importlib.metadata.version("numpy"),
                        "cpus": os.cpu_count()},
            "workloads": {},
        }
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    r = run_once(bench["command"], dirs[side], workload, args.seed,
                                 args.seconds)
                    if not r.get("correct"):
                        raise SystemExit(f"{workload} pair {i}: the {side} run is not correct")
                    runs[side].append(r)
                    print(f"{workload} pair {i} {side}: "
                          f"{r['metrics']['queries_per_s']['value']:.1f} q/s",
                          file=sys.stderr, flush=True)
            summary = {}
            for name, better, bound in metrics:
                if all(name in r["metrics"] for side in runs for r in runs[side]):
                    summary[name] = summarise(
                        *([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change")), better, bound)
            out["workloads"][workload] = {
                "pairs": args.pairs, "all_correct": True,
                "failed_queries": [sum(r["failed"] for r in runs[side])
                                   for side in ("parent", "change")],
                "exit_codes": sorted({r["exit_code"] for side in runs for r in runs[side]}),
                "summary": summary,
            }
    text = json.dumps(out, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
