"""Seeded inputs, mpmath oracles and golden CLI output for the bvsum benchmark.

``build(workload, seed, root)`` returns a ``Workload``: the spec files the
workload loads and one pass of queries, both a pure function of the seed.
``Oracles`` gives the reference value of every query at 40 significant
digits, from closed forms or from the spec text through ``mpexpr``; no
oracle calls bvsum.  The exact ``cli_batch`` requests (``variation``,
``verify --check pvv`` and ``convergence``) are compared byte for byte with
``golden_cli.json``, which this module writes:

    python3 perfbench/generate.py --record-golden

run from the repository root, records it from the program in ``src/``.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp

from mpexpr import compile_text

mp.mp.dps = 40

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
RUN_TOKEN = "$RUN"
WORKLOADS = ("em_sums", "quadrature", "cli_batch")

DEFAULT_TOL = 1e-10  # the CLI default; the quadrature workload keeps a few
TOL_LADDER = (1e-4, 1e-5, 1e-6, 1e-7)  # quadrature: four rungs spanning these
PVV_BUDGET = 1e-10
IDENTITY_SLACK = 1e-9  # fixed allowance the program adds to identity-check budgets
POOL_SEED = 20161227  # the cli_batch spec pool is fixed so golden bytes exist
POOL_SIZES = (16, 32, 64, 128, 256, 512)


@dataclass
class Workload:
    name: str
    seed: int
    corpus: dict[str, str] = field(default_factory=dict)  # spec name -> corpus file
    specs: dict[str, dict] = field(default_factory=dict)  # spec name -> generated spec
    batch: list[str] = field(default_factory=list)  # spec names in the batch dir
    oracle_antis: dict[str, list[str]] = field(default_factory=dict)
    families: dict[str, tuple] = field(default_factory=dict)  # em_sums closed forms
    queries: list[dict] = field(default_factory=list)

    def spec_names(self) -> list[str]:
        return list(self.corpus) + list(self.specs)

    def digest(self, root: Path) -> str:
        h = hashlib.sha256()
        for name, rel in sorted(self.corpus.items()):
            h.update(name.encode() + b"\0" + (root / rel).read_bytes())
        h.update(json.dumps([self.specs, self.batch, self.queries],
                            sort_keys=True).encode())
        return h.hexdigest()


def num(v: float) -> str:
    """Expression text for a double, parenthesised when negative."""
    return repr(float(v)) if v >= 0 else f"({float(v)!r})"


def _q(v: float) -> float:
    """Round to a multiple of 1/1024 so widths and cuts are exact doubles."""
    return round(v * 1024) / 1024


# ---------------------------------------------------------------------------
# em_sums: closed-form families on a half-line or a long interval

CORPUS_FAMILIES = {  # corpus file -> (family, c, d)
    "harmonic": ("H", 1.0, 1.0), "basel": ("B", 1.0, 1.0),
    "exp_decay": ("E", 1.0, 1.0), "atan_bounded": ("A", 1.0, 1.0),
    "sqrt": ("S", 1.0, 0.0), "linear": ("L", 1.0, 0.0),
}
LONG_HI = 200_000  # domain end of the seeded sqrt and linear variants


def family_spec(fam: str, c: float, d: float, name: str) -> dict:
    C, D = num(c), num(d)
    if fam == "H":
        e, a = f"{C}/(1+{D}*x)", f"{C}/{D}*log(1+{D}*x)"
        return _half_line(name, 0, e, "dec", c, 0.0, a, "inf", bp0=c)
    if fam == "B":
        e, a = f"{C}/(1+{D}*x)^2", f"-{C}/{D}/(1+{D}*x)"
        return _half_line(name, 0, e, "dec", c, 0.0, a, 0.0, bp0=c)
    if fam == "E":
        e, a = f"{C}*exp(-{D}*x)", f"-{C}/{D}*exp(-{D}*x)"
        return _half_line(name, -1, e, "dec", c * math.exp(d), 0.0, a, 0.0)
    if fam == "A":
        e = f"{C}*atan({D}*x)"
        a = f"{C}*(x*atan({D}*x)-log(1+({D}*x)^2)/(2*{D}))"
        return _half_line(name, -1, e, "inc", c * math.atan(-d), c * math.pi / 2, a, "inf")
    if fam == "S":
        e, a = f"{C}*sqrt(x)", f"{C}*2/3*x^(3/2)"
        return _spec(name, 0, LONG_HI, [_piece(0, LONG_HI, e, "inc", a)],
                     [{"x": 0, "left": 0.0, "value": 0.0, "right": 0.0}])
    if fam == "L":
        e, a = f"{C}*x+{D}", f"{C}*x^2/2+{D}*x"
        return _spec(name, -1, LONG_HI, [_piece(-1, LONG_HI, e, "inc", a)], [])
    raise ValueError(fam)


def _half_line(name, lo, e, direction, left, limit, anti, anti_limit, bp0=None) -> dict:
    piece = {"interval": [lo, "inf"], "expr": e, "direction": direction,
             "left_limit": left, "right_limit": limit, "antiderivative": anti}
    bps = [] if bp0 is None else [{"x": lo, "left": bp0, "value": bp0, "right": bp0}]
    d = _spec(name, lo, "inf", [piece], bps)
    d["tail"] = {"limit": limit, "antiderivative": anti, "antiderivative_limit": anti_limit}
    return d


def _piece(lo, hi, e, direction, anti=None) -> dict:
    fn = compile_text(e)
    d = {"interval": [lo, hi], "expr": e, "direction": direction,
         "left_limit": float(fn(mp.mpf(lo))), "right_limit": float(fn(mp.mpf(hi)))}
    if anti is not None:
        d["antiderivative"] = anti
    return d


def _spec(name, lo, hi, pieces, bps) -> dict:
    return {"format": 1, "name": name, "domain": {"lo": lo, "hi": hi},
            "pieces": pieces, "breakpoints": bps}


class Family:
    """Closed forms for sums, series and Euler constants of one family."""

    def __init__(self, fam: str, c: float, d: float):
        self.fam, self.c, self.d = fam, mp.mpf(c), mp.mpf(d)

    def f(self, x):
        c, d, x = self.c, self.d, mp.mpf(x)
        return {"H": lambda: c / (1 + d * x), "B": lambda: c / (1 + d * x) ** 2,
                "E": lambda: c * mp.exp(-d * x), "A": lambda: c * mp.atan(d * x),
                "S": lambda: c * mp.sqrt(x), "L": lambda: c * x + d}[self.fam]()

    def finite(self, a: int, b: int):
        """sum_{a <= k < b} f(k)."""
        c, d, fam = self.c, self.d, self.fam
        if fam == "H":
            return c / d * (mp.psi(0, b + 1 / d) - mp.psi(0, a + 1 / d))
        if fam == "B":
            return c / d**2 * (mp.psi(1, a + 1 / d) - mp.psi(1, b + 1 / d))
        if fam == "E":
            return c * (mp.exp(-d * a) - mp.exp(-d * b)) / -mp.expm1(-d)
        if fam == "L":
            return c * (mp.mpf(b) * (b - 1) - mp.mpf(a) * (a - 1)) / 2 + d * (b - a)
        return _em_sum(self, a, b)

    def series(self):
        c, d = self.c, self.d
        if self.fam == "B":
            return c / d**2 * mp.psi(1, 1 / d)
        if self.fam == "E":
            return c / -mp.expm1(-d)
        raise ValueError(f"family {self.fam} has no convergent series")

    def gamma(self):
        """lim_n (sum_{k<n} f(k) - integral_0^n f)."""
        c, d = self.c, self.d
        if self.fam == "H":
            return c / d * (-mp.psi(0, 1 / d) - mp.log(d))
        if self.fam in ("B", "E"):
            return self.series() - c / d
        raise ValueError(f"no closed-form Euler constant for family {self.fam}")

    def F(self, x):
        """An antiderivative, for the oracle and for rounding scales."""
        c, d, x = self.c, self.d, mp.mpf(x)
        return {"H": lambda: c / d * mp.log(1 + d * x), "B": lambda: -c / d / (1 + d * x),
                "E": lambda: -c / d * mp.exp(-d * x),
                "A": lambda: c * (x * mp.atan(d * x) - mp.log(1 + (d * x) ** 2) / (2 * d)),
                "S": lambda: 2 * c / 3 * x ** mp.mpf(1.5), "L": lambda: c * x**2 / 2 + d * x,
                }[self.fam]()

    def deriv(self, m: int, x):
        """m-th derivative, for the Euler-Maclaurin oracle (families S, A)."""
        c, d, x = self.c, self.d, mp.mpf(x)
        if self.fam == "S":
            coef = mp.fprod(mp.mpf(0.5) - i for i in range(m))
            return c * coef * x ** (mp.mpf(0.5) - m)
        return c * d**m * (-1) ** (m - 1) * mp.factorial(m - 1) * mp.im(mp.mpc(d * x, -1) ** -m)


def _em_sum(fam: Family, a: int, b: int, head: int = 40):
    """sum_{a<=k<b} f(k): the first terms directly, the rest by the
    Euler-Maclaurin expansion with exact derivatives."""
    m = min(b, a + head)
    s = mp.fsum(fam.f(k) for k in range(a, m))
    if m == b:
        return s
    s += fam.F(b) - fam.F(m) - (fam.f(b) - fam.f(m)) / 2
    eps = mp.mpf(10) ** (-mp.mp.dps - 2)
    for j in range(1, 60):
        t = mp.bernoulli(2 * j) / mp.factorial(2 * j) * (
            fam.deriv(2 * j - 1, b) - fam.deriv(2 * j - 1, m))
        s += t
        if abs(t) < eps * (1 + abs(s)):
            return s
    raise ArithmeticError("Euler-Maclaurin oracle did not converge")


# entry point -> families it accepts
EM_ENTRIES = {
    "em_finite_sum": "HBEASL",
    "approx_from_partial": "HBEASL",
    "series_sum": "BE",
    "euler_constant": "HBE",
    "asymptotic_sum": "HBEA",
}
EM_SINGLES_PER_ENTRY = 10
EM_SWEEPS = 15
EM_SWEEP_STEPS = 5
EM_MAX_N = 100_000
ROUNDING = 16 * sys.float_info.epsilon


def em_rounding_scale(fam: Family, entry: str, args: list[int]):
    """|F| at the ends of the integrals an entry point computes: the
    closed-form quadrature carries a rounding radius of a few ulps of it."""
    if entry in ("em_finite_sum", "approx_from_partial"):
        lo, hi = args
    elif entry == "series_sum":
        lo = hi = args[0]
    else:  # euler_constant, asymptotic_sum (whose Euler constant may reach further)
        lo, hi = 0, max(args[0], EM_MAX_N) if entry == "asymptotic_sum" else args[0]
    return abs(fam.F(lo)) + abs(fam.F(hi))


def em_tol(w: "Workload", name: str, entry: str, args: list[int]) -> float:
    """The CLI default tolerance, raised where the rounding radius of the
    antiderivative route alone would exceed it (large |F|): see README."""
    scale = em_rounding_scale(Family(*w.families[name]), entry, args)
    return max(DEFAULT_TOL, float(1e-13 * scale))


def _stratified(rng: random.Random, items: list, k: int, lo: float, hi: float) -> list:
    """Cut [lo, hi] into k * len(items) equal slices, draw once from the
    middle quarter of each, and deal the slices to the items in turn, so
    each item gets one draw per block of len(items) slices.  The work of a
    pass (which the largest draws dominate) and its latency percentiles
    then hardly depend on the seed."""
    m = len(items)
    return [(items[i % m], lo + (hi - lo) * (i + 0.375 + 0.25 * rng.random()) / (k * m))
            for i in range(k * m)]


def build_em_sums(seed: int) -> Workload:
    rng = random.Random(f"em_sums/{seed}")
    w = Workload("em_sums", seed)
    for name, (fam, c, d) in CORPUS_FAMILIES.items():
        w.corpus[name] = f"corpus/{name}.json"
        w.families[name] = (fam, c, d)
    for fam in "HBEASL":
        for j in range(2):
            c = round(rng.uniform(0.5, 2.0), 3)
            d = round(rng.uniform(0.5, 2.0), 3)
            name = f"{fam}{j}"
            w.specs[name] = family_spec(fam, c, d, name)
            w.families[name] = (fam, c, d)

    def hi_of(name):
        return 1100 if name in ("sqrt", "linear") else LONG_HI if w.families[name][0] in "SL" \
            else math.inf

    def query(entry, name, n):
        if entry == "em_finite_sum":
            a = rng.randrange(0, 8)
            args = [a, a + n]
        elif entry == "approx_from_partial":
            args = [n, n + max(1, int(n * rng.uniform(0.5, 3.0)))]
        else:
            args = [n]
        return {"kind": entry, "spec": name, "args": args, "tol": em_tol(w, name, entry, args)}

    def fits(entry, name, n):
        need = 4 * n + 8 if entry == "approx_from_partial" else n + 8
        return w.families[name][0] in EM_ENTRIES[entry] and hi_of(name) > need

    # Families differ 2.7-fold in cost per term, and a corpus spec from its
    # variants by a multiplication, so each entry point deals families,
    # and each family its specs, in a fixed cycle.  The seed sets the
    # variants' coefficients and where each n falls in its slice.
    dealt = collections.Counter()

    def pick(entry, n):
        fams = EM_ENTRIES[entry]
        for _ in range(len(fams)):
            fam = fams[dealt[entry] % len(fams)]
            dealt[entry] += 1
            names = [s for s in w.families if w.families[s][0] == fam and fits(entry, s, n)]
            if names:
                dealt[entry, fam] += 1
                return names[dealt[entry, fam] % len(names)]
        raise AssertionError(f"no spec fits {entry} at n={n}")

    singles = []
    for entry, lg in _stratified(rng, list(EM_ENTRIES), EM_SINGLES_PER_ENTRY, 0.0,
                              math.log10(EM_MAX_N)):
        n = max(1, int(10**lg))
        singles.append([query(entry, pick(entry, n), n)])
    sweeps = []
    for i, (entry, lg) in enumerate(_stratified(rng, ["euler_constant", "euler_constant",
                                                      "series_sum"], EM_SWEEPS // 3, 3.0,
                                                math.log10(EM_MAX_N))):
        n_max = int(10**lg)
        name = pick(entry, n_max)
        ns = sorted({max(1, int(n_max * 10 ** (-0.75 * j))) for j in range(EM_SWEEP_STEPS)})
        sweeps.append([{"kind": entry, "spec": name, "args": [n], "sweep": i,
                        "tol": em_tol(w, name, entry, [n])} for n in ns])
    groups = singles + sweeps
    rng.shuffle(groups)
    w.queries = [q for g in groups for q in g]
    return w


# ---------------------------------------------------------------------------
# Piecewise-monotone specs with jumps and misplaced values

SHAPES = ("exp_inc", "exp_dec", "recip", "sqrt", "atan", "sin_inc", "sin_dec")


def shape_piece(kind: str, p: float, q: float, spread: float, base: float,
                rng: random.Random) -> tuple[str, str, str]:
    """(expression, antiderivative, direction) of a monotone piece on
    [p, q] that moves by ``spread`` starting near ``base``."""
    w = q - p
    B, X = num(base), f"(x-{num(p)})"
    if kind == "lin":
        a = spread / w
        return f"{B}+{num(a)}*{X}", f"{B}*x+{num(a / 2)}*{X}^2", "inc"
    if kind in ("exp_inc", "exp_dec"):
        kap = rng.uniform(0.5, 2.0)
        k = kap / w
        if kind == "exp_inc":
            a = spread / math.expm1(kap)
            return (f"{B}+{num(a)}*exp({num(k)}*{X})",
                    f"{B}*x+{num(a / k)}*exp({num(k)}*{X})", "inc")
        a = spread / -math.expm1(-kap)
        return (f"{B}+{num(a)}*exp(-{num(k)}*{X})",
                f"{B}*x-{num(a / k)}*exp(-{num(k)}*{X})", "dec")
    if kind == "recip":
        kap = rng.uniform(0.5, 4.0)
        k = kap / w
        a = spread * (1 + kap) / kap
        return (f"{B}+{num(a)}/(1+{num(k)}*{X})",
                f"{B}*x+{num(a / k)}*log(1+{num(k)}*{X})", "dec")
    if kind == "sqrt":
        c = rng.uniform(0.05, 1.0) * w
        a = spread / (math.sqrt(w + c) - math.sqrt(c))
        return (f"{B}+{num(a)}*sqrt({X}+{num(c)})",
                f"{B}*x+{num(2 * a / 3)}*({X}+{num(c)})^(3/2)", "inc")
    if kind == "atan":
        k = rng.uniform(1.0, 8.0) / w
        a = spread / (2 * math.atan(k * w / 2))
        M = f"(x-{num(p + w / 2)})"
        return (f"{B}+{num(a)}*atan({num(k)}*{M})",
                f"{B}*x+{num(a)}*({M}*atan({num(k)}*{M})-log(1+({num(k)}*{M})^2)/{num(2 * k)})",
                "inc")
    if kind in ("sin_inc", "sin_dec"):
        s, a = math.pi / w, spread / 2
        arg = f"{num(s)}*{X}{'-' if kind == 'sin_inc' else '+'}{num(math.pi / 2)}"
        return (f"{B}+{num(a)}*sin({arg})", f"{B}*x-{num(a / s)}*cos({arg})",
                "inc" if kind == "sin_inc" else "dec")
    raise ValueError(kind)


def piecewise_spec(name: str, length: int, n_pieces: int, kinds: list[str],
                   variation: float, with_anti: bool,
                   rng: random.Random) -> tuple[dict, list[str]]:
    """A spec on [0, length] with ``n_pieces`` monotone pieces whose
    sum of width * |increment| is ``variation``.  Breakpoints carry jumps,
    some misplaced values, and one at 0 with an exterior left value.
    Returns the spec and each piece's antiderivative text."""
    cuts = [0.0]
    for i in range(1, n_pieces):
        x = _q(length * (i + rng.uniform(-0.3, 0.3)) / n_pieces)
        if rng.random() < 0.25 and abs(round(x) - x) < 0.1 * length / n_pieces:
            x = float(round(x))
        cuts.append(x)
    cuts.append(float(length))
    if any(b - a < 0.2 * length / n_pieces for a, b in zip(cuts, cuts[1:])):
        raise AssertionError("cut spacing")
    weights = [rng.uniform(0.5, 1.5) for _ in range(n_pieces)]
    scale = variation / math.fsum((b - a) * r for (a, b), r in zip(zip(cuts, cuts[1:]), weights))
    pieces, antis = [], []
    for i, (p, q) in enumerate(zip(cuts, cuts[1:])):
        spread = scale * weights[i]
        kind = kinds[i % len(kinds)]
        base = 0.0 if kind == "lin" else round(rng.uniform(-0.5, 0.5), 3)
        e, anti, direction = shape_piece(kind, p, q, spread, base, rng)
        pieces.append(_piece(p, q, e, direction, anti if with_anti else None))
        antis.append(anti)
    bps = []
    for i, x in enumerate(cuts[:-1]):
        right = pieces[i]["left_limit"]
        left = pieces[i - 1]["right_limit"] if i else right + round(rng.uniform(-0.3, 0.3), 3)
        mode = rng.random()
        if mode < 0.2:
            value = max(left, right) + round(rng.uniform(0.05, 0.3), 3)  # misplaced
        elif mode < 0.5:
            value = 0.5 * (left + right)
        else:
            value = left if mode < 0.75 else right
        bps.append({"x": x, "left": left, "value": value, "right": right})
    return _spec(name, 0, length, pieces, bps), antis


# ---------------------------------------------------------------------------
# quadrature: no antiderivatives, so Darboux and Riemann-Stieltjes refinement

QUAD_SPECS = (  # (pieces, kinds); two seeded specs of each
    (3, SHAPES), (4, SHAPES), (6, SHAPES), (8, SHAPES), (12, SHAPES),
    (16, ("lin",)), (32, ("lin",)), (48, ("lin",)),
)
QUAD_VARIATION = 0.15  # n_pieces * sum over a spec of width * |increment|
# The default-tol queries go to specs whose Darboux route needs more than
# the 2^24-cell cap at 1e-10, so the program refuses them at once; on the
# many-piece sawtooths the cap would not bind and a pass would take minutes.
QUAD_DEFAULT_TOL_SPECS = 6
QUAD_ENTRIES = ("integrate", "em_finite_sum", "em_midvalue_check", "parts_check")


def build_quadrature(seed: int) -> Workload:
    rng = random.Random(f"quadrature/{seed}")
    w = Workload("quadrature", seed)
    for j, (n_pieces, kinds) in enumerate(QUAD_SPECS):
        length = max(2, n_pieces // 4)
        for k in range(2):
            name = f"q{j}{'ab'[k]}"
            ks = list(kinds)
            rng.shuffle(ks)
            spec, antis = piecewise_spec(name, length, n_pieces, ks,
                                         QUAD_VARIATION / n_pieces, False, rng)
            w.specs[name] = spec
            w.oracle_antis[name] = antis
    # Every entry point meets every spec size once on each rung of the
    # tolerance ladder, so the work of a pass hardly depends on the seed.
    # Each rung is a slice of log10 tol, drawn from the middle quarter, so
    # that the latencies spread evenly rather than in four clusters.
    rungs = len(TOL_LADDER)
    queries = []
    for entry in QUAD_ENTRIES:
        for j in range(len(QUAD_SPECS)):
            for r in range(rungs):
                lg = math.log10(TOL_LADDER[0]) + (math.log10(TOL_LADDER[-1]) - math.log10(
                    TOL_LADDER[0])) * (r + 0.375 + 0.25 * rng.random()) / rungs
                queries.append(_quad_query(entry, f"q{j}{rng.choice('ab')}",
                                           float(f"{10**lg:.3g}"), w))
    for j in range(QUAD_DEFAULT_TOL_SPECS):
        q = _quad_query("integrate", f"q{j}{rng.choice('ab')}", DEFAULT_TOL, w)
        q["may_refuse"] = True
        queries.append(q)
    rng.shuffle(queries)
    w.queries = queries
    return w


def _quad_query(entry: str, name: str, tol: float, w: Workload) -> dict:
    """A query over the whole domain [0, L] (L <= 12, so sums are short)."""
    length = w.specs[name]["domain"]["hi"]
    q = {"kind": entry, "spec": name, "tol": tol}
    if entry in ("integrate", "parts_check"):
        q["args"] = [0.0, float(length)]
    else:
        q["args"] = [0, length]
    if entry == "parts_check":  # against the sibling spec on the same domain
        q["g"] = name[:-1] + ("b" if name.endswith("a") else "a")
    return q


# ---------------------------------------------------------------------------
# cli_batch: many short in-process CLI requests on spec files

CORPUS_ALL = ("atan_bounded", "basel", "constant", "exp_decay", "floor_steps",
              "frac_sawtooth", "harmonic", "linear", "mixed_jumps", "rho_int",
              "rho_nonint", "sin_arches", "sqrt", "step_half", "step_quarter", "vshape")
HALF_LINE = ("atan_bounded", "basel", "constant", "exp_decay", "harmonic")
CONVERGENT = ("basel", "exp_decay")
CLI_NOANTI_TOL = 1e-6
POOL_VARIATION_PER_UNIT = 0.01


def pool_specs() -> tuple[dict[str, dict], list[str]]:
    """The fixed cli_batch pool: spec files of 16 to 512 pieces, every
    other one with antiderivatives, plus three small specs for --batch."""
    rng = random.Random(POOL_SEED)
    specs = {}
    for i, n in enumerate(POOL_SIZES):
        anti = i % 2 == 0
        name = f"pool{n:03d}{'a' if anti else 'n'}"
        length = n // 8
        kinds = list(SHAPES)
        rng.shuffle(kinds)
        specs[name], _ = piecewise_spec(name, length, n, kinds,
                                        POOL_VARIATION_PER_UNIT * length, anti, rng)
    batch = []
    for i in range(3):
        name = f"batch{i}"
        specs[name], _ = piecewise_spec(name, 4, 16, list(SHAPES), 0.04, True, rng)
        batch.append(name)
    return specs, batch


def domain_of(spec: dict) -> tuple[float, float]:
    d = spec["domain"]
    return float(d["lo"]), math.inf if d["hi"] == "inf" else float(d["hi"])


def golden_requests(name: str, spec: dict) -> list[list[str]]:
    """Every exact request the benchmark may send for one spec, as argv
    with ``{spec}`` standing for the spec path."""
    lo, hi = domain_of(spec)
    top = min(hi, lo + 50)
    xs = [float(b["x"]) for b in spec["breakpoints"] if lo < b["x"] < top]
    inner_lo = xs[0] if xs else lo + 0.5
    inner_hi = xs[-1] if len(xs) > 1 else top - 0.25
    out = [
        ["variation", "{spec}", "--lo", repr(lo), "--hi", repr(top), "--json"],
        ["variation", "{spec}", "--lo", repr(inner_lo), "--hi", repr(inner_hi),
         "--open-hi", "--json"],
        ["verify", "{spec}", "--check", "pvv", "--a", repr(lo), "--b", repr(top), "--json"],
    ]
    if name in HALF_LINE:
        out.append(["convergence", "{spec}", "--json"])
    return out


def build_cli_batch(seed: int, root: Path) -> Workload:
    rng = random.Random(f"cli_batch/{seed}")
    w = Workload("cli_batch", seed)
    for name in CORPUS_ALL:
        w.corpus[name] = f"corpus/{name}.json"
    w.specs, w.batch = pool_specs()
    queries = []
    for k, name in enumerate(n for n in w.spec_names() if n not in w.batch):
        spec = w.specs.get(name)
        if spec is None:
            spec = json.loads((root / w.corpus[name]).read_text())
        no_anti = spec["pieces"][0].get("antiderivative") is None and \
            spec["pieces"][0]["direction"] != "const"
        # Kinds are dealt, not drawn, so every pass has the same mix: corpus
        # specs get an exact and an enclosure request, pool specs (whose
        # load and validation dominate) one request each.
        if name in w.corpus:
            kinds = ["exact", "series" if name in CONVERGENT else ("midvalue", "sum")[k % 2]]
        else:
            kinds = [("exact", "sum", "midvalue")[k % 3]]
        for kind in kinds:
            tol = CLI_NOANTI_TOL if no_anti else DEFAULT_TOL
            if kind == "exact":
                queries.append({"kind": "cli_exact", "spec": name,
                                "argv": rng.choice(golden_requests(name, spec))})
                continue
            lo, hi = domain_of(spec)
            starts_at_bp = lo.is_integer() and any(b["x"] == lo for b in spec["breakpoints"])
            first = int(lo) if starts_at_bp else math.floor(lo) + 1
            last = math.floor(min(hi, lo + 40))
            span = rng.randint(1, min(3, last - first))
            a = rng.randint(first, last - span)
            if kind == "series":
                n = rng.randint(0, 200)
                queries.append({"kind": "cli_series", "spec": name, "tol": tol, "args": [n],
                                "argv": ["series", "{spec}", "--n", str(n), "--tol", repr(tol),
                                         "--json"]})
            elif kind == "sum":
                queries.append({"kind": "cli_sum", "spec": name, "tol": tol,
                                "args": [a, a + span],
                                "argv": ["sum", "{spec}", "--a", str(a), "--b", str(a + span),
                                         "--tol", repr(tol), "--json"]})
            else:
                queries.append({"kind": "cli_midvalue", "spec": name, "tol": tol,
                                "args": [a, a + span],
                                "argv": ["verify", "{spec}", "--check", "midvalue", "--a", str(a),
                                         "--b", str(a + span), "--tol", repr(tol), "--json"]})
    a = rng.randint(0, 2)
    b = rng.randint(a + 1, 3)
    queries.append({"kind": "cli_batch_midvalue", "spec": None, "tol": DEFAULT_TOL,
                    "args": [a, b],
                    "argv": ["verify", "--batch", "{batch}", "--check", "midvalue",
                             "--a", str(a), "--b", str(b), "--json"]})
    rng.shuffle(queries)
    w.queries = queries
    return w


def build(workload: str, seed: int, root: Path) -> Workload:
    if workload == "cli_batch":
        return build_cli_batch(seed, root)
    return {"em_sums": build_em_sums, "quadrature": build_quadrature}[workload](seed)


# ---------------------------------------------------------------------------
# Oracles


class SpecOracle:
    """Pointwise values, one-sided limits, sums, integrals and pointwise
    variation of a spec, evaluated from its text with mpmath."""

    def __init__(self, spec: dict, antis: list[str] | None = None):
        self.lo, self.hi = domain_of(spec)
        self.pieces = []
        for i, p in enumerate(spec["pieces"]):
            plo = float(p["interval"][0])
            phi = math.inf if p["interval"][1] == "inf" else float(p["interval"][1])
            anti = antis[i] if antis else p.get("antiderivative")
            self.pieces.append((plo, phi, compile_text(p["expr"]),
                                compile_text(anti) if anti else None,
                                mp.mpf(p["left_limit"]), mp.mpf(p["right_limit"])))
        self.bps = {float(b["x"]): tuple(mp.mpf(b[k]) for k in ("left", "value", "right"))
                    for b in spec["breakpoints"]}

    def _piece_at(self, x: float):
        for p in self.pieces:
            if p[0] < x < p[1]:
                return p
        return None

    def value(self, x: float):
        if x in self.bps:
            return self.bps[x][1]
        p = self._piece_at(x)
        if p is not None:
            return p[2](mp.mpf(x))
        return self.pieces[0][4] if x == self.lo else self.pieces[-1][5]

    def left(self, x: float):
        if x in self.bps:
            return self.bps[x][0]
        p = self._piece_at(x)
        if p is not None:
            return p[2](mp.mpf(x))
        if x == self.lo:
            raise ValueError(f"no exterior left limit at {x}")
        return self.pieces[-1][5]

    def right(self, x: float):
        if x in self.bps:
            return self.bps[x][2]
        p = self._piece_at(x)
        if p is not None:
            return p[2](mp.mpf(x))
        return self.pieces[0][4]

    def finite_sum(self, a: int, b: int):
        return mp.fsum(self.value(float(k)) for k in range(a, b))

    def mid_sum(self, a: int, b: int):
        return mp.fsum((self.left(float(k)) + self.right(float(k))) / 2 for k in range(a, b))

    def integral(self, a: float, b: float):
        terms = []
        for plo, phi, _, anti, _, _ in self.pieces:
            s, t = max(a, plo), min(b, phi)
            if s < t:
                terms.append(anti(mp.mpf(t)) - anti(mp.mpf(s)))
        return mp.fsum(terms)

    def variation(self, a: float, b: float):
        """Pointwise variation over the closed interval [a, b] (b may be inf)."""
        terms = []
        for plo, phi, fn, _, ll, rl in self.pieces:
            s, t = max(a, plo), min(b, phi)
            if s < t:
                vs = ll if s == plo else fn(mp.mpf(s))
                vt = rl if t == phi else fn(mp.mpf(t))
                terms.append(abs(vt - vs))
        for x, (l, v, r) in self.bps.items():
            if a < x < b:
                terms += [abs(v - l), abs(r - v)]
            elif x == a:
                terms.append(abs(v - r))
            elif x == b:
                terms.append(abs(v - l))
        return mp.fsum(terms)


def _sum_ref(remainder, tol: float):
    """Reference radius of a CLI sum: remainder bound plus tolerance, or
    none where the remainder is below the tolerance, because then the
    radius is the quadrature's, tiny on the closed-form route."""
    return remainder + tol if remainder > tol else None


class Oracles:
    """Reference value and reference radius of each query of a workload.

    The reference radius normalises radius_ratio_gmean: the tolerance for
    quadrature, the tolerance plus the fixed slack for identity checks,
    and for sums the remainder bound of the theorem (half the pointwise
    variation) plus the tolerance or a rounding scale."""

    def __init__(self, w: Workload, root: Path):
        self.w = w
        self.spec = {}
        for name, rel in w.corpus.items():
            self.spec[name] = SpecOracle(json.loads((root / rel).read_text()))
        for name, spec in w.specs.items():
            self.spec[name] = SpecOracle(spec, w.oracle_antis.get(name))
        self.family = {name: Family(*f) for name, f in w.families.items()}

    @staticmethod
    def _em(kind: str, fam: Family, so: SpecOracle, args: list[int]) -> dict:
        if kind == "em_finite_sum":
            value, remainder = fam.finite(*args), so.variation(*args) / 2
        elif kind == "approx_from_partial":
            value, remainder = fam.finite(0, args[1]), so.variation(*args) / 2
        else:
            tail = so.variation(args[0], math.inf)
            value, remainder = {
                "series_sum": lambda: (fam.series(), tail / 2),
                "euler_constant": lambda: (fam.gamma(), tail / 2),
                "asymptotic_sum": lambda: (fam.finite(0, args[0]), tail),
            }[kind]()
        rounding = ROUNDING * (abs(value) + em_rounding_scale(fam, kind, args))
        # below the rounding scale a radius measures nothing but rounding
        return {"value": value, "ref": remainder + rounding if remainder > rounding else None}

    def __call__(self, q: dict) -> dict:
        """{'value': exact quantity or None, 'ref': reference radius or None,
        and 'mid': the mid-value sum of identity checks}."""
        kind, args, tol = q["kind"], q.get("args", []), q.get("tol")
        name = q.get("spec")
        if name in self.family:
            return self._em(kind, self.family[name], self.spec[name], args)
        so = self.spec.get(name)
        if kind == "integrate":
            return {"value": so.integral(*args), "ref": tol}
        if kind == "em_finite_sum":
            return {"value": so.finite_sum(*args), "ref": tol + so.variation(*args) / 2}
        if kind == "cli_sum":
            return {"value": so.finite_sum(*args), "ref": _sum_ref(so.variation(*args) / 2, tol)}
        if kind in ("em_midvalue_check", "cli_midvalue"):
            return {"mid": so.mid_sum(*args), "ref": tol + IDENTITY_SLACK}
        if kind == "parts_check":
            return {"ref": tol + IDENTITY_SLACK}
        if kind == "cli_series":
            fam = Family(*CORPUS_FAMILIES[name])
            return {"value": fam.series(),
                    "ref": _sum_ref(so.variation(args[0], math.inf) / 2, tol)}
        if kind == "cli_batch_midvalue":
            a, b = args
            return {"mids": [self.spec[s].mid_sum(a, b) for s in self.w.batch],
                    "ref": (tol + IDENTITY_SLACK) * len(self.w.batch)}
        if kind == "cli_exact":
            return {"ref": PVV_BUDGET if "pvv" in q["argv"] else None}
        raise ValueError(kind)


# ---------------------------------------------------------------------------
# CLI requests and golden output


def cli_call(main, argv: list[str]) -> tuple[int, str]:
    """Run ``main(argv)`` in this process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def golden_key(argv: list[str], run_dir: str) -> str:
    return " ".join(argv).replace(run_dir, RUN_TOKEN)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_specs(w: Workload, run_dir: Path) -> dict[str, str]:
    """Write the generated specs under run_dir; return spec name -> path
    relative to the checkout root."""
    paths = dict(w.corpus)
    run_dir.mkdir(parents=True, exist_ok=True)
    batch_dir = run_dir / "batch"
    batch_dir.mkdir(exist_ok=True)
    for name, spec in w.specs.items():
        path = (batch_dir if name in w.batch else run_dir) / f"{name}.json"
        path.write_text(json.dumps(spec, indent=1))
        paths[name] = str(path)
    paths["{batch}"] = str(batch_dir)
    return paths


def expand_argv(argv: list[str], spec_path: str | None, paths: dict) -> list[str]:
    return [spec_path if a == "{spec}" else paths["{batch}"] if a == "{batch}" else a
            for a in argv]


def record_golden(root: Path) -> int:
    """Record stdout and exit code of every exact cli_batch request."""
    import shutil

    sys.path.insert(0, str(root / "src"))
    from bvsum import cli

    w = build_cli_batch(0, root)
    run_dir = Path(".bench_build") / "perfbench" / "golden"
    shutil.rmtree(run_dir, ignore_errors=True)
    paths = write_specs(w, run_dir)
    golden = {}
    try:
        for name in w.spec_names():
            if name in w.batch:
                continue
            spec = w.specs.get(name) or json.loads((root / w.corpus[name]).read_text())
            for argv in golden_requests(name, spec):
                full = expand_argv(argv, paths[name], paths)
                code, out = cli_call(cli.main, full)
                golden[golden_key(full, str(run_dir))] = [code, out.replace(str(run_dir),
                                                                             RUN_TOKEN)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} requests into {GOLDEN}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-golden"]:
        sys.exit("usage: python3 perfbench/generate.py --record-golden")
    sys.exit(record_golden(Path(".")))
