"""Outside-in tracing of bvsum for the benchmark's traced run.

``Tracer.install()`` replaces each public function listed in ``TRACED``
with a wrapper, at the module that defines it and at every ``bvsum``
module (the package included) that imported it by name, because a
``from .x import f`` binding is a separate name.  Nothing in ``src/``
changes.

Most wrappers record a span: name, start, end, parent span, query id and
self time (duration minus the time of traced calls made inside it).
The per-point functions ``expr.eval_expr`` and ``bv.evaluate`` are
called up to ~10^5 times per query, so their calls are aggregated per
parent span (calls, self time, points) instead of kept one by one.
Spans stay in memory until ``write`` dumps them as JSON.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function, aggregated)
TRACED = (
    ("cli", "main", False),
    ("specfile", "load_function", False),
    ("expr", "parse", False),
    ("expr", "eval_expr", True),
    ("bv", "validate", False),
    ("bv", "check_antiderivative", False),
    ("bv", "evaluate", True),
    ("bv", "pointwise_variation", False),
    ("measure", "integrate", False),
    ("measure", "stieltjes_beta1", False),
    ("measure", "stieltjes_midvalue", False),
    ("measure", "tail_integral", False),
    ("euler_maclaurin", "em_finite_sum", False),
    ("euler_maclaurin", "approx_from_partial", False),
    ("euler_maclaurin", "series_sum", False),
    ("euler_maclaurin", "euler_constant", False),
    ("euler_maclaurin", "asymptotic_sum", False),
    ("euler_maclaurin", "gamma_partial", False),
    ("euler_maclaurin", "classify_convergence", False),
    ("euler_maclaurin", "em_midvalue_check", False),
    ("euler_maclaurin", "parts_check", False),
)
MODULES = ("cli", "specfile", "expr", "bv", "measure", "euler_maclaurin")
EM_ENTRIES = tuple(f for m, f, _ in TRACED if m == "euler_maclaurin")


def _antiderivatives(spec) -> int:
    """Antiderivative expressions that validate() checks in a raw spec."""
    n = sum(1 for p in spec.get("pieces", ()) if p.get("antiderivative") is not None)
    tail = spec.get("tail") or {}
    return n + (tail.get("antiderivative") is not None)


def _span_of(stack) -> int:
    """Id of the innermost span on the stack (-1 outside any span)."""
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return -1


class Tracer:
    def __init__(self):
        # frame: [child_s, points, span_id]; the bottom frame is "untraced"
        self.stack = [[0.0, 0, -1]]
        self.spans = []  # [id, parent, query, name, start, end, self_s, points]
        self.agg = defaultdict(lambda: [0, 0.0, 0, 0, 0])  # calls, self_s, points, scalar, array
        self.counters = defaultdict(int)
        self.query = None
        self.sites = []
        self.wall_s = 1.0
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        stack, spans, counters = self.stack, self.spans, self.counters
        is_measure = name.startswith("measure.")

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = stack[-1]
            sid = len(spans)
            rec = [sid, _span_of(stack), self.query, name, 0.0, 0.0, 0.0, 0]
            spans.append(rec)
            frame = [0.0, 0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if is_measure and type(e).__name__ == "ToleranceUnreachable" and not (
                        rec[1] >= 0 and spans[rec[1]][3].startswith("measure.")):
                    counters["measure.tolerance_unreachable"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                rec[4], rec[5], rec[6], rec[7] = t0, t1, dur - frame[0], frame[1]
                parent[0] += dur
                parent[1] += frame[1]

        return wrapper

    def _aggregate(self, name, fn):
        stack, agg = self.stack, self.agg
        count_points = name == "expr.eval_expr"
        ndarray = np.ndarray

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                a = agg[(_span_of(stack), name)]
                a[0] += 1
                a[1] += dur - frame[0]
                pts = frame[1]
                if count_points:
                    x = args[1] if len(args) > 1 else kwargs["x"]
                    if isinstance(x, ndarray):
                        a[4] += 1
                        n = x.size
                    else:
                        a[3] += 1
                        n = 1
                    a[2] += n
                    pts += n
                parent[1] += pts

        return wrapper

    def run(self, name: str, query, f):
        """Call ``f()`` inside a benchmark-side span (a query or the set-up)."""
        self.query = query
        try:
            return self._span(name, f)()
        finally:
            self.query = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import bvsum
        import bvsum.cli  # noqa: F401  (a submodule the package does not import)

        def count_antis(args):
            self.counters["antiderivatives_validated"] += _antiderivatives(args[0])

        mods = [m for n, m in sys.modules.items() if n == "bvsum" or n.startswith("bvsum.")]
        for modname, fname, aggregated in TRACED:
            home = getattr(bvsum, modname)
            orig = getattr(home, fname)
            name = f"{modname}.{fname}"
            if aggregated:
                wrapped = self._aggregate(name, orig)
            else:
                wrapped = self._span(name, orig,
                                     count_antis if name == "bv.validate" else None)
            patched = []
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._saved.append((m, attr, orig))
                        patched.append(f"{m.__name__}.{attr}")
            if f"bvsum.{name}" not in patched:
                raise RuntimeError(f"{name} was not wrapped where it is defined")
            self.sites.append([name, patched])

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times; a module's self_share is its
        self time over the time spent inside benchmark spans."""
        wall_s = self.wall_s = sum(end - start for _, _, _, name, start, end, _, _ in self.spans
                                   if name.startswith("bench.")) or 1.0
        calls, self_s, points = defaultdict(int), defaultdict(float), defaultdict(int)
        for _, _, _, name, _, _, s, p in self.spans:
            calls[name] += 1
            self_s[name] += s
            points[name] += p
        ev = [0, 0, 0]  # scalar calls, array calls, points
        em_evaluate = 0
        for (sid, name), (c, s, p, sc, ar) in self.agg.items():
            calls[name] += c
            self_s[name] += s
            if name == "expr.eval_expr":
                ev[0] += sc
                ev[1] += ar
                ev[2] += p
            elif sid >= 0 and self.spans[sid][3].startswith("euler_maclaurin."):
                em_evaluate += c
        m = {}
        for key in ("cli.main", "specfile.load_function", "expr.parse", "bv.validate",
                    "bv.check_antiderivative", "bv.evaluate", "bv.pointwise_variation",
                    "measure.tail_integral"):
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
        for key in ("measure.integrate", "measure.stieltjes_beta1", "measure.stieltjes_midvalue"):
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.eval_points"] = points[key]
        for f in EM_ENTRIES:
            m[f"euler_maclaurin.{f}.calls"] = calls[f"euler_maclaurin.{f}"]
            m[f"euler_maclaurin.{f}.self_s"] = self_s[f"euler_maclaurin.{f}"]
        m["expr.eval_expr.scalar_calls"] = ev[0]
        m["expr.eval_expr.array_calls"] = ev[1]
        m["expr.eval_expr.points"] = ev[2]
        m["expr.eval_expr.self_s"] = self_s["expr.eval_expr"]
        m["expr.eval_expr.points_per_call"] = ev[2] / max(1, ev[0] + ev[1])
        m["bv.check_antiderivative.per_antiderivative"] = (
            calls["bv.check_antiderivative"]
            / max(1, self.counters["antiderivatives_validated"]))
        m["euler_maclaurin.evaluate_calls"] = em_evaluate
        m["measure.tolerance_unreachable"] = self.counters["measure.tolerance_unreachable"]
        for mod in MODULES + ("bench",):
            m[f"{mod}.self_share"] = sum(
                s for n, s in self_s.items() if n.split(".")[0] == mod) / wall_s
        # measure's refinement loops call expr.eval_expr for the array work
        m["measure.inclusive_share"] = sum(
            end - start for _, parent, _, name, start, end, _, _ in self.spans
            if name.startswith("measure.")
            and not (parent >= 0 and self.spans[parent][3].startswith("measure."))
        ) / wall_s
        return m

    def table(self, metrics: dict[str, float]) -> str:
        rows = []
        names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")})
        total = self.wall_s
        rows.append(f"{'layer':42s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
        for n in sorted(names, key=lambda n: -metrics[f"{n}.self_s"]):
            c = metrics.get(f"{n}.calls", metrics.get(f"{n}.scalar_calls", 0)
                            + metrics.get(f"{n}.array_calls", 0))
            rows.append(f"{n:42s} {c:10d} {metrics[f'{n}.self_s']:10.4f} "
                        f"{100 * metrics[f'{n}.self_s'] / total:6.1f}%")
        rows.append("module self-time shares: " + ", ".join(
            f"{mod} {100 * metrics[f'{mod}.self_share']:.1f}%" for mod in MODULES + ("bench",)))
        rows.append(f"measure spans including their evaluations: "
                    f"{100 * metrics['measure.inclusive_share']:.1f}%")
        return "\n".join(rows)

    def write(self, path, **meta) -> None:
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent", "query", "name", "start", "end", "self_s",
                              "eval_points"]
        doc["spans"] = self.spans
        doc["aggregates"] = [[sid, name, *v] for (sid, name), v in self.agg.items()]
        doc["aggregate_fields"] = ["span", "name", "calls", "self_s", "eval_points",
                                   "scalar_calls", "array_calls"]
        doc["counters"] = dict(self.counters)
        doc["sites"] = self.sites
        with open(path, "w") as fh:
            json.dump(doc, fh)
