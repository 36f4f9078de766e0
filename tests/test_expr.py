import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsum import expr as ex
from bvsum.expr import (
    Bin,
    Call,
    Const,
    EvalError,
    FUNCTIONS,
    Neg,
    Num,
    ParseError,
    Var,
    eval_expr,
    parse,
    render,
)


class TestGoldenPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert eval_expr(parse("1+2*3"), 0.0) == 7.0

    def test_pow_right_associative(self):
        assert eval_expr(parse("2^3^2"), 0.0) == 512.0

    def test_unary_minus_binds_looser_than_pow(self):
        assert eval_expr(parse("-2^2"), 0.0) == -4.0
        assert eval_expr(parse("(-2)^2"), 0.0) == 4.0

    def test_unary_minus_after_operator(self):
        assert parse("2*-x") == Bin("*", Num(2.0), Neg(Var()))

    def test_nested_structure(self):
        assert parse("1/(1+x)^2") == Bin(
            "/", Num(1.0), Bin("^", Bin("+", Num(1.0), Var()), Num(2.0)))

    def test_constants_and_calls(self):
        assert eval_expr(parse("cos(pi)"), 0.0) == -1.0
        assert eval_expr(parse("log(e)"), 0.0) == pytest.approx(1.0)
        assert eval_expr(parse("pow(2,10)"), 0.0) == 1024.0

    def test_scientific_literals(self):
        assert eval_expr(parse("1e-3 + 2.5E+1"), 0.0) == 1e-3 + 25.0
        assert eval_expr(parse(".5"), 0.0) == 0.5


MALFORMED = [
    ("log(", 4),
    ("1+", 2),
    ("(1+2", 4),
    ("2**3", 2),
    (")", 0),
    ("1 + * 2", 4),
    ("foo(2)", 0),
    ("pow(2)", 5),
    ("sin 2", 4),
    ("", 0),
]


@pytest.mark.parametrize("text,offset", MALFORMED)
def test_malformed_inputs_report_position(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert exc.value.offset <= len(text) + 1


class TestEvalErrors:
    def test_log_of_zero(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(parse("log(x)"), 0.0)
        assert exc.value.kind == "log_domain"
        assert exc.value.x == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_expr(parse("1/x"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            eval_expr(parse("x^-1"), 0.0)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvalError):
            eval_expr(parse("exp(x)"), 1000.0)

    def test_array_eval_reports_offending_point(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(parse("sqrt(x)"), np.array([1.0, 4.0, -9.0]))
        assert exc.value.x == -9.0

    def test_array_matches_scalar(self):
        e = parse("1/(1+x)^2 + sin(x)")
        xs = np.linspace(0.0, 5.0, 11)
        arr = eval_expr(e, xs)
        for x, v in zip(xs, arr):
            assert eval_expr(e, float(x)) == pytest.approx(float(v), abs=1e-15)


class TestConstantFailures:
    # a non-finite constant subexpression fails at every point; the first
    # point is reported
    @pytest.mark.parametrize("text,kind", [("exp(1000)*x", "overflow"),
                                           ("10^400*x", "overflow")])
    def test_array_reports_first_point(self, text, kind):
        xs = np.array([0.5, 1.0, 2.0])
        with pytest.raises(EvalError) as exc:
            eval_expr(parse(text), xs)
        assert (exc.value.kind, exc.value.x) == (kind, 0.5)

    def test_scalar_still_raises(self):
        with pytest.raises(EvalError):
            eval_expr(parse("exp(1000)*x"), 0.5)


def test_determinism():
    e = parse("exp(-x)*sin(x) + x^2/7")
    vals = {eval_expr(e, 1.2345) for _ in range(50)}
    assert len(vals) == 1


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.just(Var()),
    st.sampled_from([Const("pi"), Const("e")]),
)


def _node(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["exp", "log", "sqrt", "abs", "sin", "cos",
                                   "atan", "floor"]), children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


_ast = st.recursive(_leaf, _node, max_leaves=25)


@settings(max_examples=150, deadline=None)
@given(_ast)
def test_render_parse_round_trip(tree):
    assert parse(render(tree)) == tree


def test_round_trip_corpus_of_100():
    # deterministic corpus drawn from the same grammar shapes
    seeds = [
        "x", "pi", "e", "1.5", "2e10", "-x", "x+1", "x-1", "2*x", "x/3",
        "x^2", "x^-2", "-x^2", "(x+1)^2", "1/(1+x)", "1/(1+x)^2",
        "sqrt(x)", "log(1+x)", "exp(-x)", "abs(x-1)", "sin(x)", "cos(x)",
        "atan(x)", "floor(x)", "pow(x,3)", "x*atan(x)-log(1+x^2)/2",
        "2/3*x^(3/2)", "x-floor(x)", "1-(2-3)", "2^3^2",
    ]
    trees = [parse(s) for s in seeds]
    # grow the corpus to 100 by combining pairs
    i = 0
    while len(trees) < 100:
        a = trees[i % len(seeds)]
        b = trees[(i * 7 + 3) % len(seeds)]
        trees.append(Bin("+-*/^"[i % 5], a, b))
        i += 1
    assert len(trees) >= 100
    for t in trees:
        assert parse(render(t)) == t


# ---------------------------------------------------------------------------
# The array evaluator tests finiteness only at the root and at the operands
# of the ops that can hide a non-finite value; it must agree with the walk
# that tests every node.

_POISON = [0.0, -0.0, 1.0, -1.0, -2.5, 1e3, -1e3, 710.0, 1e-300, 1e308,
           math.inf, -math.inf, math.nan]

_masking_leaf = st.sampled_from([
    parse("1/(1/x)"), parse("pow(1, log(x))"), parse("exp(-1/x)"),
    parse("atan(1/x)"), parse("2^(-1/x)"), parse("x/exp(-log(x))"),
    Num(0.0), Num(1.0), Num(1e3), parse("1e400"),
])

_poison_ast = st.recursive(st.one_of(_leaf, _masking_leaf), _node,
                           max_leaves=12)

_points = st.lists(
    st.one_of(st.sampled_from(_POISON),
              st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)),
    min_size=1, max_size=12).map(lambda v: np.array(v, dtype=np.float64))


def _outcome(fn):
    try:
        r = fn()
    except EvalError as e:
        return ("error", e.kind, e.x)
    return ("value", np.asarray(r, dtype=np.float64).tobytes())


def _strict(e, xs):
    with np.errstate(all="ignore"):
        r = ex._eval_array(e, xs, True)
    return np.full_like(xs, float(r)) if np.ndim(r) == 0 else r


@settings(max_examples=600, deadline=None)
@given(_poison_ast, _points)
def test_array_eval_matches_strict_walk(tree, xs):
    x_before = xs.tobytes()
    got = _outcome(lambda: eval_expr(tree, xs))
    want = _outcome(lambda: _strict(tree, xs))
    assert got[:2] == want[:2]
    if got[0] == "error":
        assert got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))
    else:
        assert got[1] == want[1]
    assert xs.tobytes() == x_before  # never written into


@settings(max_examples=300, deadline=None)
@given(_poison_ast, _points)
def test_unchecked_walk_passing_means_strict_walk_passes(tree, xs):
    with np.errstate(all="ignore"):
        try:
            r = ex._eval_array(tree, xs, False)
            ex._guard(r)
        except ex._Recheck:
            return
    assert _outcome(lambda: _strict(tree, xs)) == (
        "value", np.broadcast_to(r, xs.shape).tobytes())


_NONFINITE = (math.inf, -math.inf, math.nan)
_ANY = _NONFINITE + (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300)


@pytest.mark.parametrize("op", sorted(set(ex._UFUNCS) - ex._MASKING) + ["neg"])
def test_unmasked_ops_keep_nonfinite_values_nonfinite(op):
    """Only the _MASKING ops may turn a non-finite operand finite; a new
    entry in FUNCTIONS that can must join them."""
    fn = np.negative if op == "neg" else ex._UFUNCS[op][0]
    bad = np.array(_NONFINITE)
    with np.errstate(all="ignore"):
        if fn.nin == 1:
            outs = [fn(bad)]
        else:
            other = np.array(_ANY)
            outs = [fn(a, b) for v in _NONFINITE
                    for a, b in ((v, other), (other, v))]
    for r in outs:
        assert not np.isfinite(r).any(), (op, r)


def test_every_function_has_an_array_ufunc():
    assert set(FUNCTIONS) | {"pow"} <= set(ex._UFUNCS)


# ---------------------------------------------------------------------------
# A float is evaluated by a closure compiled once per expression; it must
# agree with the tree walk it replaced, kept here as the reference.

def _ref_scalar_pow(a, b, x):
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("overflow", x) from None
    except ValueError:
        raise EvalError("pow_domain", x) from None
    except ZeroDivisionError:
        raise EvalError("pow_domain", x) from None


def ref_eval_scalar(e, x):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return ex.CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -ref_eval_scalar(e.arg, x)
    if isinstance(e, Bin):
        a = ref_eval_scalar(e.left, x)
        b = ref_eval_scalar(e.right, x)
        if e.op == "+":
            r = a + b
        elif e.op == "-":
            r = a - b
        elif e.op == "*":
            r = a * b
        elif e.op == "/":
            if b == 0.0:
                raise EvalError("division_by_zero", x)
            r = a / b
        else:
            r = _ref_scalar_pow(a, b, x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    assert isinstance(e, Call)
    if e.fn == "pow":
        a = ref_eval_scalar(e.args[0], x)
        b = ref_eval_scalar(e.args[1], x)
        r = _ref_scalar_pow(a, b, x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    v = ref_eval_scalar(e.args[0], x)
    if e.fn == "log":
        if v <= 0.0:
            raise EvalError("log_domain", x)
        return math.log(v)
    if e.fn == "sqrt":
        if v < 0.0:
            raise EvalError("sqrt_domain", x)
        return math.sqrt(v)
    if e.fn == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise EvalError("overflow", x) from None
    if e.fn == "abs":
        return abs(v)
    if e.fn == "floor":
        return float(math.floor(v))
    if e.fn == "sin":
        return math.sin(v)
    if e.fn == "cos":
        return math.cos(v)
    if e.fn == "atan":
        return math.atan(v)
    raise EvalError("unknown_function", x)


def _scalar_outcome(fn, x):
    # bits of the value, or the exception: EvalError kind and x, or the
    # type of a libm error (floor(inf), sin(inf)) that escapes both
    try:
        r = fn(x)
    except EvalError as e:
        return ("error", e.kind, repr(e.x))
    except (ValueError, OverflowError) as e:
        return ("raised", type(e).__name__)
    return ("value", struct.pack("<d", r))


_SCALAR_POISON = [0.0, -0.0, 1.0, -1.0, 710.0, -710.0, 1e308, -1e308,
                  -2.5, -1e3, 1e3, 1e-300, 0.5, math.inf, -math.inf, math.nan]

_scalar_points = st.lists(
    st.one_of(st.sampled_from(_SCALAR_POISON),
              st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)),
    min_size=1, max_size=8)


@settings(max_examples=800, deadline=None)
@given(_poison_ast, _scalar_points)
def test_compiled_matches_tree_walk(tree, xs):
    for x in xs:
        got = _scalar_outcome(lambda v: eval_expr(tree, v), x)
        assert got == _scalar_outcome(lambda v: ref_eval_scalar(tree, v), x), x


@pytest.mark.parametrize("text", ["1/x", "x+x", "x*x", "x-(-x)", "2^x",
                                  "pow(x,x)", "log(x)", "sqrt(x)", "exp(x)",
                                  "log(0)*x", "1/(x-x)", "(1/0)+log(x)"])
def test_compiled_matches_tree_walk_at_poison_points(text):
    e = parse(text)
    for x in _SCALAR_POISON:
        assert _scalar_outcome(lambda v: eval_expr(e, v), x) == \
            _scalar_outcome(lambda v: ref_eval_scalar(e, v), x), (text, x)


def test_compiled_once_per_node_and_outside_the_fields():
    import pickle

    e = parse("1/(1+x)")
    assert "compiled" not in vars(e)
    eval_expr(e, 1.0)
    fn = vars(e)["compiled"]
    eval_expr(e, 2.0)
    assert e.compiled is fn
    assert e == parse("1/(1+x)") and hash(e) == hash(parse("1/(1+x)"))
    assert repr(e) == repr(parse("1/(1+x)"))
    assert eval_expr(pickle.loads(pickle.dumps(e)), 3.0) == 0.25


# a constant power fails at every point, so the first one is reported
_POW_CASES = [("10^400*x", 0.5, [0.5, 2.0]), ("pow(x,400)", 1e3, [2.0, 1e3]),
              ("(-10)^401*x", 0.5, [0.5, 2.0]), ("x^(-1)", 0.0, [2.0, 0.0]),
              ("pow(x,0.5)", -1.0, [2.0, -1.0]),
              ("(-8)^(1/3)*x", 0.5, [0.5, 2.0]), ("1e400^x", 0.5, [0.5, 2.0]),
              ("pow(x,1e400)", 2.0, [0.5, 2.0])]


@pytest.mark.parametrize("text,x,points", _POW_CASES)
def test_pow_errors_agree_between_float_and_array(text, x, points):
    e = parse(text)
    with pytest.raises(EvalError) as scalar:
        eval_expr(e, x)
    with pytest.raises(EvalError) as array:
        eval_expr(e, np.array(points))
    assert (array.value.kind, array.value.x) == (scalar.value.kind, x)
