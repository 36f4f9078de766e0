import math
import pickle
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
# An array is evaluated by a flat program compiled once per expression and
# run in two modes.  It must agree with the tree walk it replaced, kept here
# as the reference in both of its modes: the strict walk that tests every
# node, and the unchecked walk that tests only the operands of the ops that
# can hide a non-finite value, writing into temporaries it made.

_REF_UFUNCS = {"+": (np.add, "overflow"), "-": (np.subtract, "overflow"),
               "*": (np.multiply, "overflow"),
               "/": (np.true_divide, "division_by_zero"),
               "^": (np.power, "pow_domain"), "pow": (np.power, "pow_domain"),
               "exp": (np.exp, "overflow"), "log": (np.log, "log_domain"),
               "sqrt": (np.sqrt, "sqrt_domain"), "abs": (np.abs, "overflow"),
               "sin": (np.sin, "overflow"), "cos": (np.cos, "overflow"),
               "atan": (np.arctan, "overflow"), "floor": (np.floor, "overflow")}
_REF_MASKING = frozenset({"/", "^", "pow", "exp", "atan"})


class _RefRecheck(Exception):
    pass


def _ref_guard(*vals):
    for v in vals:
        if not math.isfinite(np.add.reduce(v, axis=None)):
            raise _RefRecheck


def _ref_temp(vals, x):
    for v in vals:
        if type(v) is np.ndarray and v is not x:
            return v
    return None


def ref_eval_array(e, x, strict):
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return np.float64(ex.CONSTANTS[e.name])
    if isinstance(e, Neg):
        v = ref_eval_array(e.arg, x, strict)
        return np.negative(v, out=None if strict else _ref_temp((v,), x))
    if isinstance(e, Bin):
        op, args = e.op, (e.left, e.right)
    else:
        op, args = e.fn, e.args
    fn, kind = _REF_UFUNCS[op]
    vals = [ref_eval_array(a, x, strict) for a in args]
    if strict:
        r = fn(*vals)
        if not np.all(np.isfinite(r)):
            i = 0 if np.ndim(r) == 0 else int(np.flatnonzero(~np.isfinite(r))[0])
            xi = float(x.flat[i]) if x.size else math.nan
            if kind == "pow_domain":
                a, b = (float(v if np.ndim(v) == 0 else v.flat[i]) for v in vals)
                try:
                    if not math.isfinite(_ref_scalar_pow(a, b, xi)):
                        kind = "overflow"
                except EvalError as err:
                    kind = err.kind
            raise EvalError(kind, xi)
        return r
    if op in _REF_MASKING:
        _ref_guard(*vals)
    return fn(*vals, out=_ref_temp(vals, x))


def ref_eval_points(e, x):
    """eval_expr over an array, as it was built on the walk."""
    with np.errstate(all="ignore"):
        r = None
        if x.dtype == np.float64 and x.size:
            try:
                r = ref_eval_array(e, x, False)
                _ref_guard(r)
            except _RefRecheck:
                r = None
        if r is None:
            r = ref_eval_array(e, x, True)
    if np.ndim(r) == 0:
        return np.full_like(x, float(r), dtype=np.float64)
    return np.asarray(r, dtype=np.float64)


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

# points only the strict mode runs on: empty, integer or zero-dimensional
_strict_points = st.one_of(
    st.just(np.array([], dtype=np.float64)),
    st.lists(st.integers(min_value=-3, max_value=1000), max_size=8).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.sampled_from(_POISON).map(lambda v: np.array(v, dtype=np.float64)))


def _outcome(fn):
    # bits of the value, the EvalError kind and x, a tripped unchecked
    # test, or the type of a numpy error (integers to negative powers)
    try:
        r = fn()
    except EvalError as e:
        return ("error", e.kind, repr(e.x))
    except (ex._Recheck, _RefRecheck):
        return ("recheck",)
    except ValueError as e:
        return ("raised", type(e).__name__)
    return ("value", np.asarray(r).dtype.str, np.asarray(r).tobytes())


def _run(tree, xs, strict):
    with np.errstate(all="ignore"):
        return ex._run(tree.program, xs, strict)


def _ref(tree, xs, strict):
    with np.errstate(all="ignore"):
        return ref_eval_array(tree, xs, strict)


def _assert_same_in_both_modes(tree, xs):
    x_before = xs.tobytes()
    modes = (True, False) if xs.dtype == np.float64 and xs.size and xs.ndim \
        else (True,)
    for strict in modes:
        assert _outcome(lambda: _run(tree, xs, strict)) == \
            _outcome(lambda: _ref(tree, xs, strict)), (render(tree), strict)
    assert _outcome(lambda: eval_expr(tree, xs)) == \
        _outcome(lambda: ref_eval_points(tree, xs)), render(tree)
    assert xs.tobytes() == x_before  # never written into


@settings(max_examples=600, deadline=None)
@given(_poison_ast, _points)
def test_program_matches_tree_walk(tree, xs):
    _assert_same_in_both_modes(tree, xs)


@settings(max_examples=200, deadline=None)
@given(_poison_ast, _strict_points)
def test_program_matches_tree_walk_off_the_unchecked_path(tree, xs):
    _assert_same_in_both_modes(tree, xs)


_FIXED_POINTS = {
    "empty": np.array([]), "one": np.array([0.5]),
    "poison": np.array([2.0, 0.0, -1.0, math.nan]),
    "2d": np.array([[1.0, 2.0], [3.0, math.inf]]), "int": np.arange(-2, 4),
    "0d": np.array(0.25), "strided": np.linspace(0.0, 5.0, 17)[::2]}


@pytest.mark.parametrize("text", [
    "2", "pi*e", "-1e400", "exp(1000)", "1/(2-2)", "log(-1)+1", "2^(1/3)",
    "x", "-x", "-x+0.5", "abs(x)*0.5", "floor(-x)/2", "(x+1)*(1+x)",
    "1/(1+x)^2", "x^(3/2)", "1-(2-x)", "exp(-x)*sin(x)+x^2/7"])
@pytest.mark.parametrize("points", sorted(_FIXED_POINTS))
def test_program_matches_tree_walk_on_fixed_cases(text, points):
    _assert_same_in_both_modes(parse(text), _FIXED_POINTS[points])


@settings(max_examples=300, deadline=None)
@given(_poison_ast, _points)
def test_unchecked_run_passing_means_strict_run_passes(tree, xs):
    with np.errstate(all="ignore"):
        try:
            r = ex._run(tree.program, xs, False)
            if not ex._finite(r):
                return
        except ex._Recheck:
            return
    assert _outcome(lambda: np.broadcast_to(_run(tree, xs, True), xs.shape)) \
        == _outcome(lambda: np.broadcast_to(r, xs.shape))


def test_program_built_once_per_node_and_outside_the_fields():
    import pickle

    e = parse("exp(-x)*sin(x)")
    assert "program" not in vars(e)
    eval_expr(e, np.array([1.0, 2.0]))
    prog = vars(e)["program"]
    eval_expr(e, np.array([3.0]))
    assert e.program is prog and "compiled" not in vars(e)
    assert e == parse("exp(-x)*sin(x)")
    assert hash(e) == hash(parse("exp(-x)*sin(x)"))
    assert repr(e) == repr(parse("exp(-x)*sin(x)"))
    copy = pickle.loads(pickle.dumps(e))
    assert "program" not in vars(copy)
    assert np.array_equal(eval_expr(copy, np.array([1.0, 2.0])),
                          eval_expr(e, np.array([1.0, 2.0])))


def test_program_never_overwrites_x_or_a_constant():
    # the only register an op may overwrite holds a value computed from x
    for text in ["-x", "x+x", "2*x", "(1+2)*x", "x*(1+2)", "exp(x)*x",
                 "x/(1-x)", "pow(2, x)", "sin(x)+cos(1)"]:
        init, code = parse(text).program
        from_x = {0}
        for _, a, b, dst, tmp, _, _ in code:
            assert tmp is None or (tmp != 0 and tmp in from_x and tmp in (a, b))
            if a in from_x or b in from_x:
                from_x.add(dst)
            assert init[dst - 1] is None


_NONFINITE = (math.inf, -math.inf, math.nan)
_ANY = _NONFINITE + (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300)


@pytest.mark.parametrize("op", sorted(op for op, spec in ex._OPS.items()
                                      if not spec[3]))
def test_unmasked_ops_keep_nonfinite_values_nonfinite(op):
    """Only the masking ops may turn a non-finite operand finite; a new
    entry in FUNCTIONS that can must be marked masking in _OPS."""
    fn = ex._OPS[op][1]
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
    assert set(FUNCTIONS) | {"pow"} <= set(ex._OPS)


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
    r = _ref_call(e.fn, ref_eval_scalar(e.args[0], x), x)
    if not math.isfinite(r):
        # a non-finite result of a function, as the array path reports it
        raise EvalError({"log": "log_domain", "sqrt": "sqrt_domain"}.get(
            e.fn, "overflow"), x)
    return r


def _ref_call(fn, v, x):
    if fn == "log":
        if v <= 0.0:
            raise EvalError("log_domain", x)
        return math.log(v)
    if fn == "sqrt":
        if v < 0.0:
            raise EvalError("sqrt_domain", x)
        return math.sqrt(v)
    if fn == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise EvalError("overflow", x) from None
    if fn == "abs":
        return abs(v)
    if fn in ("floor", "sin", "cos"):
        try:
            return float(math.floor(v)) if fn == "floor" else \
                getattr(math, fn)(v)
        except (ValueError, OverflowError):
            raise EvalError("overflow", x) from None
    if fn == "atan":
        return math.atan(v)
    raise EvalError("unknown_function", x)


def _scalar_outcome(fn, x):
    # bits of the value, or the EvalError kind and x; any other exception,
    # such as a libm error of floor(inf) or sin(inf), fails the test
    try:
        r = fn(x)
    except EvalError as e:
        return ("error", e.kind, repr(e.x))
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


# a libm error at a single point is the "overflow" the array reports there
_LIBM_CASES = [("sin(1e400)", 0.5, [0.5, 2.0]), ("cos(1e400)*x", 0.5, [0.5, 2.0]),
               ("floor(1e400)+x", 0.5, [0.5, 2.0]),
               ("sin(x)", math.inf, [2.0, math.inf]),
               ("sin(x)", -math.inf, [-math.inf, 2.0]),
               ("cos(x)", math.inf, [2.0, math.inf]),
               ("floor(x)", math.nan, [2.0, math.nan]),
               ("floor(x)", -math.inf, [-math.inf])]


@pytest.mark.parametrize("text,x,points", _LIBM_CASES)
def test_libm_errors_agree_between_float_and_array(text, x, points):
    e = parse(text)
    with pytest.raises(EvalError) as scalar:
        eval_expr(e, x)
    with pytest.raises(EvalError) as array:
        eval_expr(e, np.array(points))
    assert scalar.value.kind == array.value.kind == "overflow"
    assert repr(scalar.value.x) == repr(array.value.x) == repr(x)


# a non-finite libm result is the op's EvalError on both paths
_NONFINITE_CASES = [("abs(1e400)", 0.5, [0.5, 2.0], "overflow"),
                    ("sqrt(1e400)", 0.5, [0.5, 2.0], "sqrt_domain"),
                    ("log(1e400)", 0.5, [0.5, 2.0], "log_domain"),
                    ("exp(1e400)", 0.5, [0.5, 2.0], "overflow"),
                    ("sin(x)", math.nan, [2.0, math.nan], "overflow"),
                    ("atan(x)+1", math.nan, [math.nan], "overflow"),
                    ("sqrt(x)*2", math.inf, [2.0, math.inf], "sqrt_domain")]


@pytest.mark.parametrize("text,x,points,kind", _NONFINITE_CASES)
def test_nonfinite_results_agree_between_float_and_array(text, x, points, kind):
    e = parse(text)
    with pytest.raises(EvalError) as scalar:
        eval_expr(e, x)
    with pytest.raises(EvalError) as array:
        eval_expr(e, np.array(points))
    assert scalar.value.kind == array.value.kind == kind
    assert repr(scalar.value.x) == repr(array.value.x) == repr(x)


# ---------------------------------------------------------------------------
# Many small rows are evaluated in one batched run; each row must come out
# as eval_expr gives it, values and errors alike.


def _with_constants(tree, value):
    """tree with each Num leaf replaced by value(): a program of the same
    ops with other constants."""
    if isinstance(tree, Num):
        return Num(value())
    if isinstance(tree, Neg):
        return Neg(_with_constants(tree.arg, value))
    if isinstance(tree, Bin):
        return Bin(tree.op, _with_constants(tree.left, value),
                   _with_constants(tree.right, value))
    if isinstance(tree, Call):
        return Call(tree.fn, tuple(_with_constants(a, value) for a in tree.args))
    return tree


# numpy's power has fast paths for a scalar exponent of -1, 0, 0.5, 1 and 2
_constants = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 19.0,
                                        710.0, math.inf, math.nan]),
                       st.floats(min_value=-1e3, max_value=1e3))
_point = st.one_of(st.sampled_from(_POISON + [0.1, 0.3, 19.0]),
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


_row_shapes = st.one_of(_poison_ast, st.sampled_from([
    Var(), Num(2.0), parse("x^2"), parse("x^0.5"), parse("2^x"),
    parse("exp(1)*x"), parse("1/(1+x)^2"), parse("3+2*exp(-1.5*(x-0.5))")]))


@st.composite
def _batches(draw):
    shapes = draw(st.lists(_row_shapes, min_size=1, max_size=3))
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    exprs = []
    for _ in range(m):
        e = draw(st.sampled_from(shapes))
        if draw(st.booleans()):
            e = _with_constants(e, lambda: draw(_constants))
        exprs.append(e)
    rows = draw(st.lists(st.lists(_point, min_size=k, max_size=k),
                         min_size=m, max_size=m))
    return exprs, np.array(rows, dtype=np.float64)


def _assert_rows_as_eval_expr(exprs, xs):
    x_before = xs.tobytes()
    values, errors = ex.eval_rows(exprs, xs)
    assert values.shape == xs.shape
    for i, e in enumerate(exprs):
        want = _outcome(lambda: eval_expr(e, xs[i]))
        if i in errors:
            got = ("error", errors[i].kind, repr(errors[i].x))
        else:
            got = ("value", values[i].dtype.str, values[i].tobytes())
        assert got == want, (i, render(e))
    assert xs.tobytes() == x_before  # never written into


@settings(max_examples=400, deadline=None)
@given(_batches())
def test_rows_match_eval_expr(batch):
    _assert_rows_as_eval_expr(*batch)


@pytest.mark.parametrize("texts,rows", [
    # a power of constants alone keeps numpy's scalar-exponent fast path
    (["19^0.5*x", "51^0.5*x", "63^0.5*x"], [[1.0, 2.0]] * 3),
    # a row of one point keeps it too: its constants are not stacked
    (["x^2", "x^2"], [[0.1], [0.1]]),
    (["x^2", "x^2", "x^0.5"], [[0.1, 0.3], [0.1, 0.7], [19.0, 51.0]]),
    # one failing row; the others keep their values
    (["log(x)", "log(x+1)", "1/x"], [[1.0, 2.0], [-2.0, 1.0], [0.0, 1.0]]),
    (["x", "exp(1)*x", "2"], [[0.5, 1.5], [0.5, 1.5], [0.5, 1.5]]),
])
def test_rows_match_eval_expr_on_fixed_cases(texts, rows):
    _assert_rows_as_eval_expr([parse(t) for t in texts],
                              np.array(rows, dtype=np.float64))


def test_rows_run_once_per_shape(monkeypatch):
    runs = []
    real = ex._run
    monkeypatch.setattr(ex, "_run", lambda prog, x, strict: runs.append(x.shape)
                        or real(prog, x, strict))
    exprs = [parse(f"{c}+{2 * c}*exp(-{c}*(x-0.25))") for c in (0.5, 1.5, 2.5)]
    exprs += [parse("sin(x)")] * 2
    values, errors = ex.eval_rows(exprs, np.linspace(0.0, 1.0, 5 * 16).reshape(5, 16))
    assert not errors and sorted(runs) == [(2, 16), (3, 16)]
    # the shape is cached beside the program, outside the fields
    assert exprs[0].shape == exprs[1].shape and parse("x^2").shape is None
    copy = pickle.loads(pickle.dumps(exprs[0]))
    assert copy == exprs[0] and "shape" not in vars(copy)
