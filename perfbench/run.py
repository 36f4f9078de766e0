#!/usr/bin/env python3
"""The bvsum benchmark: certified-query throughput, latency, radius and set-up.

Run from the repository root:

    python3 perfbench/run.py --workload em_sums --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A workload is one process with one thread: a closed loop with a single
client that sends its next query when the previous one has returned.
``--trace 0`` runs whole passes over the seeded query list until
``--seconds`` have passed and reports the end-to-end metrics; ``--trace 1``
runs two untraced passes and one traced pass and reports per-layer metrics.
Every result is checked against its oracle or golden output.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("em_sums", "quadrature", "cli_batch")
SETUP_REPS = 7
WARMUP_QUERIES = 3
UNTRACED_PASSES = 2  # --trace 1: the overhead is over the best of these
ROUNDING_ULPS = 16  # containment allowance for floating-point rounding
EXACT_REL = 1e-10  # uncertified values (direct sums, mid-value sums)
LATENCY_CAP_MS = 1e9  # reported when a percentile falls on a failed query
OUT_DIR = Path(".bench_build") / "perfbench"

END_TO_END = {  # name -> (unit, better)
    "queries_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "radius_ratio_gmean": ("ratio", "lower"),
    "answered_frac": ("ratio", "higher"),
}


def fail(msg: str) -> SystemExit:
    print(f"perfbench: {msg}", file=sys.stderr)
    return SystemExit(2)


def import_bvsum(root: Path):
    """Import bvsum from this checkout's src/ and prove that it did."""
    src = (root / "src").resolve()
    if not (src / "bvsum" / "__init__.py").is_file():
        raise fail(f"no bvsum sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import bvsum
    import bvsum.cli

    if Path(bvsum.__file__).resolve().parent != src / "bvsum":
        raise fail(f"bvsum was imported from {bvsum.__file__}, not from {src}")
    return bvsum


def setup_only(list_file: str) -> int:
    """Body of one set-up measurement: a fresh process imports bvsum
    (with numpy) and loads and validates every spec file of a workload."""
    bvsum = import_bvsum(Path.cwd())
    for path in Path(list_file).read_text().split("\n"):
        if path:
            bvsum.load_function(path)
    return 0


def measure_setup(list_file: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", str(list_file)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Checking results


class Checker:
    def __init__(self, gen, oracles: list[dict], golden: dict, run_dir: str):
        import mpmath as mp

        self.mp, self.gen = mp, gen
        self.oracles, self.golden, self.run_dir = oracles, golden, run_dir
        self.rounding_misses = 0

    def contains(self, value, radius, exact) -> bool:
        diff = abs(self.mp.mpf(value) - exact)
        if diff <= radius:
            return True
        allowance = ROUNDING_ULPS * sys.float_info.epsilon * max(abs(value), abs(exact))
        if diff <= radius + allowance:
            self.rounding_misses += 1
            return True
        return False

    def close(self, value, exact) -> bool:
        return abs(self.mp.mpf(value) - exact) <= EXACT_REL * max(1, abs(exact))

    def __call__(self, i: int, q: dict, out, err) -> tuple[str, float | None, str]:
        """(status, radius, note) with status one of ok, refused, failed."""
        if err is not None:
            if q.get("may_refuse") and type(err).__name__ == "ToleranceUnreachable":
                return "refused", None, str(err)
            return "failed", None, f"{type(err).__name__}: {err}"
        o = self.oracles[i]
        kind = q["kind"]
        try:
            ok, radius = self._check(kind, q, out, o)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            return "failed", None, f"unreadable result: {type(e).__name__}: {e}"
        return ("ok" if ok else "failed"), radius, "" if ok else f"check failed: {out!r}"[:400]

    def _check(self, kind, q, out, o):
        if kind == "em_finite_sum":
            return (self.contains(out.approx.value, out.approx.radius, o["value"])
                    and self.close(out.exact_sum, o["value"])), out.approx.radius
        if kind == "euler_constant":
            est = out.gamma_estimate
            return self.contains(est.value, est.radius, o["value"]), est.radius
        if kind in ("approx_from_partial", "series_sum", "asymptotic_sum", "integrate"):
            return self.contains(out.value, out.radius, o["value"]), out.radius
        if kind == "em_midvalue_check":
            return out.passed and self.close(out.lhs, o["mid"]), out.budget
        if kind == "parts_check":
            return out.passed, out.budget
        code, stdout = out
        if kind == "cli_exact":
            key = self.gen.golden_key(q["full_argv"], self.run_dir)
            want = self.golden.get(key)
            got = [code, stdout.replace(self.run_dir, self.gen.RUN_TOKEN)]
            radius = json.loads(stdout)["radius"] if code == 0 else None
            return got == want, radius
        d = json.loads(stdout) if code == 0 else None
        if d is None:
            return False, None
        if kind == "cli_sum":
            return (self.contains(d["value"], d["radius"], o["value"])
                    and self.close(d["exact"], o["value"])), d["radius"]
        if kind == "cli_series":
            return self.contains(d["value"], d["radius"], o["value"]), d["radius"]
        if kind == "cli_midvalue":
            return d["pass"] and self.close(d["value"], o["mid"]), d["radius"]
        if kind == "cli_batch_midvalue":
            res = d["results"]
            ok = len(res) == len(o["mids"]) and all(
                r["pass"] and self.close(r["value"], m) for r, m in zip(res, o["mids"]))
            return ok, sum(r["radius"] for r in res)
        raise ValueError(f"unknown query kind {kind}")


# ---------------------------------------------------------------------------
# Running


def make_call(bvsum, gen, funcs):
    def call(q):
        kind = q["kind"]
        if kind.startswith("cli_"):
            return gen.cli_call(bvsum.cli.main, q["full_argv"])
        fn = getattr(bvsum, kind)  # looked up per call so the tracer sees it
        f = funcs[q["spec"]]
        if kind == "parts_check":
            return fn(f, funcs[q["g"]], *q["args"], q["tol"])
        return fn(f, *q["args"], q["tol"])

    return call


def run_pass(queries, call) -> tuple[float, list]:
    """One pass over the queries: (wall seconds, [(latency_s, out, err)])."""
    results = []
    t_pass = time.perf_counter()
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        try:
            out, err = call(i, q), None
        except Exception as e:  # a raising query is a failed query, not a crash
            out, err = None, e
        results.append((time.perf_counter() - t0, out, err))
    return time.perf_counter() - t_pass, results


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; inf marks a failure."""
    k = (len(sorted_vals) - 1) * p
    lo, hi = math.floor(k), math.ceil(k)
    a, b = sorted_vals[lo], sorted_vals[hi]
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return a + (b - a) * (k - lo)


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "bvsum").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() or None


def run_workload(args, root: Path) -> int:
    bvsum = import_bvsum(root)
    import numpy as np

    import generate as gen
    from tracing import Tracer

    w = gen.build(args.workload, args.seed, root)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        paths = gen.write_specs(w, run_dir)
        for q in w.queries:
            if "argv" in q:
                q["full_argv"] = gen.expand_argv(q["argv"], paths.get(q["spec"]), paths)
        list_file = run_dir / "specs.txt"
        list_file.write_text("\n".join(paths[n] for n in w.spec_names()) + "\n")

        tracer = Tracer() if args.trace else None
        setup_times = [] if args.trace else measure_setup(list_file)
        if tracer:
            tracer.install()
            funcs = tracer.run("bench.setup", -1, lambda: {
                n: bvsum.load_function(paths[n]) for n in w.spec_names()})
            tracer.uninstall()
        else:
            funcs = {n: bvsum.load_function(paths[n]) for n in w.spec_names()}

        orc = gen.Oracles(w, root)
        oracles = [orc(q) for q in w.queries]
        golden = gen.load_golden() if args.workload == "cli_batch" else {}
        check = Checker(gen, oracles, golden, str(run_dir))
        plain = make_call(bvsum, gen, funcs)
        call = lambda i, q: plain(q)  # noqa: E731

        for q in w.queries[:WARMUP_QUERIES]:
            try:
                plain(q)
            except Exception:  # checked when the passes run it again
                pass
        passes = []
        if tracer:
            passes += [run_pass(w.queries, call) for _ in range(UNTRACED_PASSES)]
            tracer.install()
            try:
                passes.append(run_pass(w.queries, lambda i, q: tracer.run(
                    "bench.query", i, lambda: plain(q))))
            finally:
                tracer.uninstall()
        else:
            t_start = time.perf_counter()
            while not passes or time.perf_counter() - t_start < args.seconds:
                passes.append(run_pass(w.queries, call))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        statuses, failures, refused, ratios = [], [], [], []
        per_query = [[] for _ in w.queries]  # latency in ms of every pass
        answered_all = [True] * len(w.queries)
        for p, (_, results) in enumerate(passes):
            for i, (lat, out, err) in enumerate(results):
                q = w.queries[i]
                status, radius, note = check(i, q, out, err)
                statuses.append(status)
                per_query[i].append(lat * 1e3)
                if status == "ok":
                    ref = oracles[i].get("ref")
                    if p == 0 and radius and ref:
                        ratios.append(math.log(radius / float(ref)))
                else:
                    answered_all[i] = False
                    item = {"index": i, **{k: q[k] for k in ("kind", "spec", "args", "tol")
                                           if k in q}, "error": note}
                    if p == 0:
                        (refused if status == "refused" else failures).append(item)
            if p == 0:
                rounding_misses = check.rounding_misses
        attempted = len(statuses)
        failed = statuses.count("failed")
        # Load from other tenants of the shared cores only ever adds time,
        # in bursts that last up to seconds, so a query's latency is its
        # best over the passes (as timeit reports).  A query that failed or
        # was refused in any pass has infinite latency.
        best = [min(v) for v in per_query]
        latencies = sorted(b if ok else math.inf for b, ok in zip(best, answered_all))

        if tracer:
            metrics = tracer.layer_metrics()
            untraced_s = min(p[0] for p in passes[:-1])
            metrics["trace.overhead"] = passes[-1][0] / untraced_s
            metrics["bench.rounding_misses"] = rounding_misses
            print(tracer.table(metrics))
            print(f"tracing overhead: {metrics['trace.overhead']:.2f}x "
                  f"({passes[-1][0]:.3f} s traced / {untraced_s:.3f} s untraced, best of "
                  f"{UNTRACED_PASSES})")
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file, workload=args.workload, seed=args.seed)
            print(f"spans written to {trace_file}")
        else:
            p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
            metrics = {
                # a single client's closed-loop rate: answers per second of
                # the time the queries of one pass take at their best
                "queries_per_s": statuses.count("ok") / len(passes) / (math.fsum(best) / 1e3),
                "latency_p50_ms": min(p50, LATENCY_CAP_MS),
                "latency_p90_ms": min(p90, LATENCY_CAP_MS),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                "radius_ratio_gmean": math.exp(statistics.fmean(ratios)) if ratios else 1.0,
                "answered_frac": statuses.count("ok") / attempted,
            }
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "commit": git_commit(root), "src_sha256": src_digest(root),
            "bvsum_file": bvsum.__file__, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "machine": platform.machine(),
            "input_digest": w.digest(root), "queries_per_pass": len(w.queries),
            "passes": len(passes), "pass_seconds": [round(p[0], 4) for p in passes],
            "latency_samples": attempted, "latency_queries": len(latencies),
            "radius_samples": len(ratios),
            "setup_runs_s": [round(t, 4) for t in setup_times],
            "wall_queries_per_s": [round(statuses.count("ok") / len(passes) / p[0], 3)
                                   for p in passes],
            "rounding_misses_per_pass": rounding_misses,
            "refused": refused, "failures": failures[:20],
        }
        (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**record, "best_latency_ms": best}, indent=1) + "\n")
        print_metrics(args.workload, metrics)
        print("record: " + json.dumps(record))
        for item in failures[:20]:
            print(f"FAILED query {item}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    last = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "points_per_call": "points/call", "per_antiderivative": "ratio",
            "self_share": "ratio", "inclusive_share": "ratio",
            "overhead": "ratio"}.get(last, "count")


def print_metrics(workload: str, metrics: dict) -> None:
    for k, v in metrics.items():
        print(f"{workload:12s} {k:48s} {v:16.6g} {unit_of(k)}")


def run_all(args) -> int:
    """Each workload in its own process; one table, one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for wl in WORKLOADS:
        r = subprocess.run([sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True)
        lines = r.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"perfbench: workload {wl} printed no result", file=sys.stderr)
            return r.returncode or 1
        code = code or r.returncode
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{wl}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="SPEC_LIST", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args.setup_only)
    if args.workload is None:
        ap.error("--workload is required")
    root = Path.cwd()
    if args.workload == "all":
        import_bvsum(root)
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
