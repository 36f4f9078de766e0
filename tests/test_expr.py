import gc
import math
import pickle
import struct
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsum import expr as ex
from bvsum.bv import BvFunction, MonotonePiece
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
from conftest import DEEP


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


@pytest.mark.parametrize("kind", sorted(DEEP))
def test_deepest_accepted_expression_works_and_one_more_level_is_refused(kind):
    text = DEEP[kind](ex._MAX_DEPTH)
    e, same = parse(text), parse(text)
    assert e == same and hash(e) == hash(same) and repr(e) == repr(same)
    assert parse(render(e)) == e
    copy = pickle.loads(pickle.dumps(e))
    xs = np.array([0.5, 0.25])
    for x in xs:
        assert eval_expr(e, x) == eval_expr(copy, x) == ref_eval_scalar(e, x)
    assert eval_expr(e, xs).tolist() == [eval_expr(e, x) for x in xs]
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(DEEP[kind](ex._MAX_DEPTH + 1))


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

    # the parser leaves the program to the first array evaluation
    e = ex._Parser("exp(-x)*sin(x)").parse()
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
# A float is evaluated by a function generated once per expression; it must
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
    e = parse("1/(1+x)")
    assert "compiled" not in vars(e) and "block" not in vars(e)
    eval_expr(e, 1.0)
    # one call of the shape's factory makes both functions
    fn, block = vars(e)["compiled"], vars(e)["block"]
    eval_expr(e, 2.0)
    assert e.compiled is fn and fn.__code__.co_filename == "<bvsum.expr>"
    assert e.block is block and block.__code__.co_filename == "<bvsum.expr>"
    assert e == parse("1/(1+x)") and hash(e) == hash(parse("1/(1+x)"))
    assert repr(e) == repr(parse("1/(1+x)"))
    copy = pickle.loads(pickle.dumps(e))
    assert "compiled" not in vars(copy) and "block" not in vars(copy)
    assert eval_expr(copy, 3.0) == 0.25
    # the kernel asked for first makes both as well
    assert copy.block(3, 4) == [0.25] and vars(copy)["compiled"] is copy.compiled


# The float function is generated from fixed text alone, the op templates
# of _OPS and register names, and its factory is compiled once per shape.

def _bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("node", [
    Call("__import__('os').getpid", (Var(),)),
    Bin("+ 0 or exit(1) +", Var(), Num(1.0)),
    Bin("+", Var(), Call("sinh", (Var(),))),
])
def test_unknown_op_raises_key_error_and_compiles_nothing(node):
    before = ex._factory.cache_info()
    with pytest.raises(KeyError):
        eval_expr(node, 1.0)
    after = ex._factory.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_one_shape_shares_one_code_object_over_its_constants():
    a, b = parse("2/(1+3*x)^0.5"), parse("pi/(1e-3+7*x)^2")
    assert ex._source(a.program) == ex._source(b.program)
    assert a.compiled.__code__ is b.compiled.__code__
    for x in (0.5, 2.0, 1e3):
        assert _bits(a.compiled(x)) == _bits(ref_eval_scalar(a, x))
        assert _bits(b.compiled(x)) == _bits(ref_eval_scalar(b, x))
    assert a.compiled(2.0) != b.compiled(2.0)


def test_factory_cache_stays_at_its_bound():
    # nested sin and cos calls, one shape per bit pattern: twice as many
    # shapes as the cache keeps
    n = 2 * ex._FACTORIES
    levels = (n - 1).bit_length()
    for i in range(n):
        e = parse("".join("sin(" if i >> k & 1 else "cos("
                          for k in range(levels)) + "x" + ")" * levels)
        assert _bits(eval_expr(e, 0.5)) == _bits(ref_eval_scalar(e, 0.5))
    assert ex._factory.cache_info().currsize == ex._FACTORIES


@settings(max_examples=200, deadline=None)
@given(_poison_ast, _scalar_points)
def test_pickled_node_compiles_again_to_the_same_bits(tree, xs):
    copy = pickle.loads(pickle.dumps(tree))
    assert "compiled" not in vars(copy)
    for x in xs:
        assert _scalar_outcome(copy.compiled, x) == \
            _scalar_outcome(tree.compiled, x), x


# The block kernel maps an integer run s <= k < t: ops on constants alone
# once, the exact ops as ufuncs over the run, the others in one
# comprehension, falling back to the float function.  Its summands must
# be the values of the float function called at each k in turn, or that
# zero once on a run where it is one zero, and its first error that of
# the float function.

_ZEROS = (_bits(0.0), _bits(-0.0))


def _summed(bits):
    # a run of one zero adds the same to a sum as that zero once
    if bits and bits[0] in _ZEROS and bits.count(bits[0]) == len(bits):
        return bits[:1]
    return bits


def _block_outcome(e, s, t):
    # the bits of the summands, or the first EvalError's kind and x
    try:
        return ("values", _summed([_bits(v) for v in e.block(s, t)]))
    except EvalError as err:
        return ("error", err.kind, repr(err.x))


def _pointwise_outcome(e, s, t):
    try:
        return ("values", _summed([_bits(e.compiled(float(k))) for k in range(s, t)]))
    except EvalError as err:
        return ("error", err.kind, repr(err.x))


# starts next to the integers where the poison trees fail: 0, exp's
# overflow past 709, and the floats' integer limit 2^53
_starts = st.one_of(st.sampled_from([-3, -1, 0, 1, 700, 706, 2**53 - 8]),
                    st.integers(-1000, 1000))


@settings(max_examples=600, deadline=None)
@given(_poison_ast, _starts, st.integers(0, 9))
def test_block_matches_the_float_function(tree, s, n):
    assert _block_outcome(tree, s, s + n) == _pointwise_outcome(tree, s, s + n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ast, _poison_ast), st.integers(-10**6, 10**6), st.integers(0, 300))
def test_block_matches_the_float_function_over_long_runs(tree, s, n):
    assert _block_outcome(tree, s, s + n) == _pointwise_outcome(tree, s, s + n)


# runs around the failing integers of the cases below, and the empty runs
_RUNS = [(0, 5), (-3, 3), (2, 3), (1, 2), (0, 0), (5, 3), (-712, -700),
         (705, 712), (0, 100), (30, 70), (45, 56), (49, 52), (50, 51), (51, 100),
         (2**53 - 3, 2**53 + 1), (-2**53, -2**53 + 2)]


@pytest.mark.parametrize("text", [
    # a masking op hides an overflow from the total
    "atan(x*1e308)", "1/(x*1e308)", "exp(-x*1e308)", "pow(1, x*1e308)",
    "2^(x*1e308-x*1e308)", "x/exp(x*1e3)",
    # a domain error, and finite values whose total overflows
    "1/(x-2)", "log(x-0.5)", "sqrt(1-x)", "1e308+0*x", "-1e400",
    # the roots and ops without a test
    "x", "-x", "pi", "floor(x)*x", "abs(x)-sin(x)*cos(x)",
    # a masked operand non-finite, or a power's base changing sign, only
    # strictly inside a run: a monotone claim that does not hold shows here
    "atan(1/(x-50))", "exp(1/(x-50))", "1/(x-50)^2", "1/(x-50.5)^(-1)",
    "atan((x-40)*(x-60)*1e306)", "atan(1e308/(x-50.5)^2)",
    "atan(1e308/atan(x-50.5))", "exp(-1e308/atan(x-50.5)^2)",
    # a monotone operand, or the root, overflows at one end of a run only
    "atan(exp(x)*1e307)", "atan(exp(-x)*1e307)", "exp(x)*1e307",
    # monotone operands tested at the ends; floor's zero has no sign
    "1/(1+x)^2", "2*exp(-0.5*x)", "3*atan(0.25*x)", "atan(floor(-x))",
    "exp(log(x+1)*2)/(x+1)^0.5",
    # one zero throughout, as one summand, or 0.0 on one side of 0 and
    # -0.0 on the other
    "0*x", "-0*x", "x*0-0", "0/(x+0.5)", "-exp(-x)", "2*exp(-3*x)", "-1e-300/(x+3)",
    # zero at both ends, a base or divisor 0 inside
    "1e-300/(x+3)^60", "5e-324/(x-7)", "pow(x-7, -60)*1e-300",
    # a masked operand that overflows where the root is 0
    "exp(-x*1e306)", "atan(exp(-x)*1e307)*0"])
def test_block_matches_the_float_function_on_fixed_cases(text):
    e = parse(text)
    for s, t in _RUNS:
        assert _block_outcome(e, s, t) == _pointwise_outcome(e, s, t), (text, s, t)


def test_block_tests_monotone_operands_at_the_ends():
    # a power of a base of one sign is tested at the run's ends, also with
    # an exponent made of constants alone, which must be finite, and a
    # power whose exponent reads x term by term
    ends, negated, terms = (ex._kernel(parse(t).program)
                            for t in ("1/(1+x)^2", "1/(1+x)^(-2)", "1/(1+x)^(0*x-2)"))
    assert "x_0" in ends and "recheck()" not in ends
    assert "x_0" in negated and "recheck()" not in negated and "isfinite(t1) and" in negated
    assert "x_0" not in terms and "recheck()" in terms
    # an exact expression runs as ufuncs alone
    assert "for " not in ex._kernel(parse("3/(1+0.5*x)").program)


def test_block_tests_branch_operands_term_by_term():
    # a masked operand that needs a branch test is tested term by term, as
    # the test would fail on most runs longer than a branch, not at the
    # run's ends; a root that needs one takes it in the zero stage
    for text in ("atan(sin(x))", "exp(cos(0.5*x))", "1/(2+sin(x))"):
        source = ex._kernel(parse(text).program)
        assert "recheck()" in source and "x_0, x_1 =" not in source, text
        assert "branch(" in source, text
    assert "branch(x_0, x_1, 0.5)" in ex._kernel(parse("0*sin(x)").program)
    assert "branch(t0_0, t0_1, 0.0)" in ex._kernel(parse("1e-300*cos(x+1)").program)


# The monotonicity rule (_monotone) proves a program monotone between two
# points from its registers there (Rows.monotone): abs needs an operand of
# one strict sign, sin and cos an argument within one branch, widened by
# _DELTA past its extremum.  A proved program evaluates between the two
# points without error, to values that are monotone and lie between its
# values at the two.

_small = st.sampled_from([0.0, 1.0, -2.5, 0.001, 3.0, -1e-300])
_rates = st.sampled_from([1.0, -0.5, 2.0, 1e-3, 30.0])
_tested_texts = st.one_of(
    st.builds("{}+{}*{}({}*x+{})".format, _small, _small, st.sampled_from(["sin", "cos"]),
              _rates, _small),
    st.builds("{}*abs(x+{})".format, _small, _small),
    st.builds("{}({}*abs(x+{}))".format, st.sampled_from(["sin", "cos", "exp", "sqrt"]),
              _rates, _small),
    st.sampled_from(["abs(sin(x))", "sin(cos(x))", "cos(sin(x))^2", "1/(2+sin(x))",
                     "sqrt(abs(x-1))", "exp(-abs(x))*2", "atan(sin(x)/(x+30))",
                     "sin(x)^2", "pow(abs(x-3), -1)", "1/sin(x)", "log(abs(x))"]))


def _proved(e, a, b):
    values, proved = ex.rows_of([e]).monotone(np.array([[a, b]]), np.array([0]))
    return values[0], bool(proved[0])


@settings(max_examples=400, deadline=None)
@given(_tested_texts, st.floats(-8.0, 8.0), st.floats(1e-9, 6.0))
@example("sin(x)", -math.pi / 2 - 5e-9, math.pi + 1e-8)
@example("cos(x)", -5e-9, math.pi + 5e-9)
@example("abs(x+0.0)", -1e-300, 1.0)
def test_rule_proves_only_monotone_programs(text, a, width):
    e = parse(text)
    b = a + width
    values, proved = _proved(e, a, b)
    if not proved:
        return
    dense = eval_expr(e, np.clip(np.linspace(a, b, 4001), a, b))  # raises nothing
    assert values.tobytes() == eval_expr(e, np.array([a, b])).tobytes()
    v0, v1 = values
    steps = np.diff(dense)
    assert (steps >= 0).all() if v0 <= v1 else (steps <= 0).all(), text
    assert (min(v0, v1) <= dense).all() and (dense <= max(v0, v1)).all(), text


@pytest.mark.parametrize("text,a,b,want", [
    ("sin(x)", -1.5, 1.5, True), ("sin(x)", -1.6, 1.6, False), ("sin(x)", 1.6, 4.7, True),
    ("cos(x)", 0.1, 3.1, True), ("cos(x)", -0.1, 3.1, False), ("cos(2*x)", 0.0, 1.5, True),
    ("sin(x)", -math.pi / 2 - 9e-9, math.pi / 2 + 9e-9, True),
    ("sin(x)", -math.pi / 2 - 2e-8, math.pi / 2, False),
    ("abs(x-1)", 2.0, 3.0, True), ("abs(x-1)", 0.0, 2.0, False), ("abs(x-1)", 1.0, 2.0, False),
    ("1/sin(x)", 0.5, 1.0, True), ("1/sin(x)", -0.5, 1.0, False),
    ("sin(1e10*x)", 1.0, 1.0 + 1e-12, False),  # past the range of the branch test
    ("sin(x)*cos(x)", 0.1, 0.2, False),  # a product of two monotone registers
])
def test_rule_on_fixed_cases(text, a, b, want):
    assert _proved(parse(text), a, b)[1] is want


def _float_at_most(v) -> float:
    """The greatest float at most the mpmath number v."""
    f = float(v)
    return f if mpmath.mpf(f) <= v else math.nextafter(f, -math.inf)


def _float_at_least(v) -> float:
    """The least float at least the mpmath number v."""
    f = float(v)
    return f if mpmath.mpf(f) >= v else math.nextafter(f, math.inf)


@pytest.mark.parametrize("phase", [0.5, 0.0])
@pytest.mark.parametrize("n", [-7, -1, 0, 1, 2, 1000, -31_415, 10**6, 300_000_000])
def test_branch_ends_are_exact_against_mpmath(phase, n):
    # the floats on either side of each widened end, at 50 digits
    with mpmath.workdps(50):
        pi, delta = mpmath.pi, mpmath.mpf(ex._DELTA)
        lower = (n + phase) * pi - delta
        upper = (n + 1 + phase) * pi + delta
        mid = float((n + phase + 0.5) * pi)
        top, bottom = _float_at_most(upper), _float_at_least(lower)
    below, above = math.nextafter(bottom, -math.inf), math.nextafter(top, math.inf)

    def inside(u0, u1):
        return bool(ex._in_branch(np.array([u0]), np.array([u1]), phase)[0])

    assert inside(mid, top) and inside(bottom, mid) and inside(bottom, top)
    assert not inside(mid, above) and not inside(below, mid)
    assert inside(top, top) and inside(bottom, bottom)
    assert ex._branch(top, mid, phase) and not ex._branch(above, mid, phase)


def test_pi_enclosure_holds_pi():
    with mpmath.workdps(90):
        assert mpmath.mpf(ex._PI_LO.numerator) / ex._PI_LO.denominator < mpmath.pi
        assert mpmath.pi < mpmath.mpf(ex._PI_HI.numerator) / ex._PI_HI.denominator


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 0.0]), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-3, 3), st.sampled_from([0.0, 1e-8, -1e-8, 1e-7, 1e-3]))
def test_branch_test_as_rationals(phase, k0, k1, branch, offset):
    # points a few ulps from the widened ends of a branch, and anywhere:
    # the float path decides each as the rationals do
    end = (branch + phase) * math.pi + offset
    u0, u1 = end + k0 * 2e-16, end + math.pi * (k1 / 40)
    lo, hi = min(u0, u1), max(u0, u1)
    got = ex._in_branch(np.array([u0]), np.array([u1]), phase)[0]
    assert got == ex._in_branch_exactly(lo, hi, phase)


def test_block_returns_the_list_unless_a_test_trips():
    e = parse("1/(1+x)")
    assert type(e.block(0, 2)) is list
    assert type(parse("1/(1+x)^2").block(0, 2)) is list
    # an operand test trips: the float function raises, lazily
    e = parse("1/(x*1e308)")
    values = e.block(1, 3)
    assert type(values) is not list and next(values) == 1 / 1e308
    with pytest.raises(EvalError):
        list(values)
    # the total overflows: the float function gives the same values
    assert list(parse("1e308+0*x").block(1, 3)) == [1e308, 1e308]


@pytest.mark.parametrize("text", [
    *(DEEP[kind](ex._MAX_DEPTH) for kind in sorted(DEEP)),
    "floor(" * ex._MAX_DEPTH + "x" + ")" * ex._MAX_DEPTH,
    "atan(" * ex._MAX_DEPTH + "x" + ")" * ex._MAX_DEPTH,
    "1/(" * (ex._MAX_DEPTH - 1) + "x" + ")" * (ex._MAX_DEPTH - 1)])
def test_block_of_the_deepest_expressions(text):
    # nested brackets are cut into clauses below the parser's limit
    e = parse(text)
    for s, t in ((0, 4), (1, 4)):
        assert _block_outcome(e, s, t) == _pointwise_outcome(e, s, t)


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


def _rows(exprs, xs):
    return ex.rows_of(exprs)(xs)


def _assert_rows_as_eval_expr(exprs, xs, run=_rows):
    """run(exprs, xs) gives the values and errors of eval_expr, and so
    does Rows.monotone at each row's first and last point, where the
    rule proves the row."""
    x_before = xs.tobytes()
    values, errors = run(exprs, xs)
    assert values.shape == xs.shape
    for i, e in enumerate(exprs):
        want = _outcome(lambda: eval_expr(e, xs[i]))
        if i in errors:
            got = ("error", errors[i].kind, repr(errors[i].x))
        else:
            got = ("value", values[i].dtype.str, values[i].tobytes())
        assert got == want, (i, render(e))
    assert xs.tobytes() == x_before  # never written into
    ends = np.sort(xs[:, [0, -1]], axis=1)
    if np.isfinite(ends).all():
        ends, proved = ex.rows_of(exprs).monotone(ends, np.arange(len(exprs)))
        for i in proved.nonzero()[0]:
            assert ends[i].tobytes() == eval_expr(exprs[i], np.sort(xs[i, [0, -1]])).tobytes()


@settings(max_examples=400, deadline=None)
@given(_batches())
def test_rows_match_eval_expr(batch):
    _assert_rows_as_eval_expr(*batch)


def _pieces_of(exprs):
    """A function whose pieces, on ]k, k + 1[, have the evaluators exprs;
    not validated, since only its layout is read."""
    return BvFunction(0.0, float(len(exprs)), (), tuple(
        MonotonePiece(float(k), k + 1.0, e, "inc", 0.0, 0.0) for k, e in enumerate(exprs)))


# The plan of two functions' pieces (measure.Layout.joined) evaluates the
# rows of both, in any order: a group of shapes met in both functions
# takes constant columns when its expressions differ, also where one
# function held one expression of it.
@settings(max_examples=200, deadline=None)
@given(_batches(), st.data())
def test_joined_rows_match_eval_expr(batch, data):
    exprs, xs = batch
    cut = data.draw(st.integers(0, len(exprs) - 1))
    first = exprs[:cut] or exprs[:1]
    second = exprs[cut:] + data.draw(st.lists(st.sampled_from(exprs), max_size=2))
    f, g = _pieces_of(first), _pieces_of(second)
    joined = f.layout.joined(g.layout)
    assert f.layout.joined(g.layout) is joined  # made once per pair
    both = first + second
    xs = xs[np.arange(len(both)) % len(xs)]
    order = np.array(data.draw(st.permutations(range(len(both)))), dtype=np.intp)

    def run(exprs, xs):
        assert exprs == both
        values, errors = joined(xs[order], order)
        out = np.empty(xs.shape)
        out[order] = values
        return out, {int(order[j]): err for j, err in errors.items()}

    _assert_rows_as_eval_expr(both, xs, lambda exprs, xs: joined(xs))
    _assert_rows_as_eval_expr(both, xs, run)


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
    monkeypatch.setattr(ex, "_run", lambda prog, x, *rest: runs.append(x.shape)
                        or real(prog, x, *rest))

    def runs_of(exprs):
        runs.clear()
        xs = np.linspace(0.0, 1.0, len(exprs) * 16).reshape(len(exprs), 16)
        values, errors = _rows(exprs, xs)
        shapes = sorted(runs)
        assert not errors
        for e, x, v in zip(exprs, xs, values):
            assert eval_expr(e, x).tobytes() == v.tobytes(), e
        return shapes

    exprs = [parse(f"{c}+{2 * c}*exp(-{c}*(x-0.25))") for c in (0.5, 1.5, 2.5)]
    assert runs_of(exprs + [parse("sin(x)")] * 2) == [(2, 16), (3, 16)]
    # a constant that an inexact op reads, here through "/", is pinned: it
    # stays a scalar, and rows share a run only when its bits are equal
    assert runs_of([parse("(x-0.1)^2/2"), parse("(x-0.7)^2/2")]) == [(2, 16)]
    assert runs_of([parse("x^(3/2)"), parse("x^(3/4)")]) == [(1, 16), (1, 16)]
    assert runs_of([parse("19^0.5*x"), parse("51^0.5*x")]) == [(1, 16), (1, 16)]
    assert runs_of([Bin("*", Var(), Call("atan", (Num(z),))) for z in (0.0, -0.0)]) \
        == [(1, 16), (1, 16)]
    # roots that are x, or a constant, stack too
    assert runs_of([parse("0.5"), parse("pi"), parse("x"), parse("-3"), parse("x")]) \
        == [(1, 16), (2, 16), (2, 16)]
    # the shape is cached beside the program, outside the fields
    assert exprs[0].shape == exprs[1].shape != parse("sin(x)").shape
    copy = pickle.loads(pickle.dumps(exprs[0]))
    assert copy == exprs[0] and "shape" not in vars(copy)


def test_row_errors_do_not_keep_the_points_alive():
    # an error kept by the caller holds no frame of the evaluation, so the
    # caller's arrays are freed without waiting for a garbage collection
    gc.disable()
    try:
        xs = np.array([[-2.0, 1.0]])
        alive = weakref.ref(xs)
        _, errors = _rows([parse("log(x)")], xs)
        del xs
        assert errors[0].kind == "log_domain" and alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# parse_texts reads each text through the template of its key, the text with
# its numbers blanked, which the parser makes; parse is the parser, which
# makes every tree and every error.

_LITERALS = st.sampled_from(["0", "1", "2.", ".5", "1.5", "2e3", "2E+3", "1e-3",
                             "007", "1e400", "4.5e-310", "123456789012345678901"])
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
_STRAY = st.sampled_from(["x", ".", "e", "E", "1", ".5", "(", ")", "+", "-", "*",
                          "^", ",", "$", "pi", "pow", "exp", " ", "e5", "_"])


@st.composite
def _text_pairs(draw):
    """Two texts of the grammar, spaced at random, that differ only in
    their number literals, at times with one part inserted or removed."""
    tree = draw(_ast)
    parts = [draw(_GAPS)]
    for kind, text, _ in ex._tokenize(render(tree))[:-1]:
        parts += [None if kind == "num" else text, draw(_GAPS)]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(_STRAY))
    if draw(st.booleans()):
        del parts[draw(st.integers(0, len(parts) - 1))]
    return tuple("".join(draw(_LITERALS) if p is None else p for p in parts)
                 for _ in range(2))


def _parse_outcome(parse_text, text):
    try:
        return parse_text(text)
    except ParseError as e:
        return _error_outcome(e)


def _error_outcome(e: ParseError):
    return ("error", e.offset, e.message, e.expected)


def _block_of(p: ex.Parsed, item: int):
    """The Rows block of parsed texts p that holds their item-th text."""
    for block in p.blocks:
        if item < len(block[4]):
            return block
        item -= len(block[4])
    raise IndexError(item)


def _rows_outcome(plan, x):
    # the outcome of eval_expr over x, from a plan of one row
    values, errors = plan(x[None, :])
    if errors:
        return ("error", errors[0].kind, repr(errors[0].x))
    return ("value", values[0].dtype.str, values[0].tobytes())


def _assert_parse_texts_as_the_parser(texts):
    """parse_texts(texts) reads each text as the parser's tree: the same
    error, or Parsed.tree equal to it in eq, hash and repr, Parsed.kernels
    its scalar outcomes, and the plan's row its program, shape and array
    outcomes."""
    p = ex.parse_texts(texts)
    assert p.texts == tuple(texts)
    xs = np.array([0.5, -1.5, 3.0, 0.0, 1e3])
    for i, text in enumerate(texts):
        want = _parse_outcome(lambda t: ex._Parser(t).parse(), text)
        assert _parse_outcome(parse, text) == want, text
        if isinstance(want, tuple):
            assert p.item[i] == -1 and _error_outcome(p.errors[i]) == want, text
            continue
        got = p.tree(i)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want), text
        fn, block = p.kernels(i)
        for x in (0.5, -1.5, 3.0, 0.0):
            assert _scalar_outcome(fn, x) == _scalar_outcome(want.compiled, x), text
        assert _outcome(lambda: list(block(-2, 3))) == \
            _outcome(lambda: list(want.block(-2, 3))), text
        plan = p.plan(np.array([i]))
        (init, code), (want_init, want_code) = plan.program(0), ex._program(want)
        assert code == want_code and _block_of(p, p.item[i])[0] == want.shape, text
        assert [None if v is None else (type(v), _bits(v)) for v in init] == \
            [None if v is None else (type(v), _bits(v)) for v in want_init], text
        assert _rows_outcome(plan, xs) == _outcome(lambda: eval_expr(want, xs)), text


@settings(max_examples=600, deadline=None)
@given(_text_pairs())
def test_template_parse_is_the_parser(texts):
    # texts of one key share a template and its matrix of numbers
    _assert_parse_texts_as_the_parser(texts)


# A text per op of _OPS, each op reading a number, x and a named constant
# through its operands: the template tells each number from each named
# constant off the program's registers.
_OP_TEXTS = {"neg": "-(1.5*x)", "pow": "pow(1.5*x,e-x)",
             **{op: f"(1.5*x){op}(e-x)" for op in "+-*/^"},
             **{fn: f"{fn}(1.5*x+pi)" for fn in ex.FUNCTIONS}}


@pytest.mark.parametrize("text", [*(pytest.param(_OP_TEXTS[op], id=op) for op in ex._OPS),
                                  "x", "pi", "e", "2.5"])
def test_template_reads_each_op_and_root_as_the_parser(text):
    ex._template.cache_clear()
    _assert_parse_texts_as_the_parser([text])  # makes the template
    _assert_parse_texts_as_the_parser([text, text.replace("1.5", "2.5")])  # reads it
    assert ex.parse_texts([text]).key == [0]  # not the parser's tree


@pytest.mark.parametrize("text,offset", MALFORMED)
def test_malformed_inputs_report_position_on_a_known_key(text, offset):
    # the second call finds the key that has no template
    for _ in range(2):
        p = ex.parse_texts([text])
        assert p.item[0] == -1 and p.errors[0].offset == offset


def test_texts_of_one_template_share_their_ops():
    p = ex.parse_texts(["2*x + exp(-1.5*x)", "3*x + exp(-.25*x)", "2*x+exp(-1.5*x)"])
    plan = p.plan(np.arange(3))
    assert p.key[0] == p.key[1] != p.key[2]
    assert plan.program(0)[1] is plan.program(1)[1]
    assert plan.program(0)[0] != plan.program(1)[0]
    # other spacing, another template, the same tree and ops
    assert p.tree(2) == p.tree(0) and plan.program(2)[1] == plan.program(0)[1]
    # a later call takes the templates from the cache
    again = ex.parse_texts(["4*x + exp(-2*x)"])
    assert again.templates[0] is p.templates[p.key[0]]


def test_template_texts_reach_their_factory_without_its_source(monkeypatch):
    p = ex.parse_texts(["0.75+2*exp(-1.5*(x-0.5))^2", "0.25+3*exp(-2.5*(x-0.75))^2"])
    want = p.kernels(0)[0]
    made = []
    real = ex._source
    monkeypatch.setattr(ex, "_source", lambda e: made.append(e) or real(e))
    fn = p.kernels(1)[0]
    assert made == [] and fn.__code__ is want.__code__
    monkeypatch.undo()
    ref = ex._compile(ex._Parser("0.25+3*exp(-2.5*(x-0.75))^2").parse().program)[0]
    for x in (0.0, 0.5, 1e3, -1e3):
        assert _scalar_outcome(fn, x) == _scalar_outcome(ref, x)


def test_template_cache_stays_at_its_bound():
    # nested sin and cos calls, one template per bit pattern: twice as many
    # templates as the cache keeps
    n = 2 * ex._TEMPLATES
    levels = (n - 1).bit_length()
    for i in range(n):
        text = ("".join("sin(" if i >> k & 1 else "cos(" for k in range(levels))
                + f"{i}*x" + ")" * levels)
        _assert_parse_texts_as_the_parser([text])
    assert ex._template.cache_info().currsize == ex._TEMPLATES


def test_zero_block_makes_no_array(monkeypatch):
    # a block on which a monotone root is one zero returns it before the
    # array of its integers is made
    made = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            made.append(args)
            return np.arange(*args, **kwargs)

    monkeypatch.setitem(ex._NAMES, "np", Numpy())
    e = parse("1.75*exp(-1.375*x)")
    assert list(e.block(10000, 14096)) == [0.0] and made == []
    assert list(e.block(0, 3)) == [e.compiled(float(k)) for k in range(3)] and made


def test_templates_pinning_named_constants_alone_keep_their_shapes():
    # exp and sin pin pi and e, and no number: each key keeps its own shape
    texts = ["exp(pi)+x", "sin(e)+x", "exp(pi)+2*x"]
    for _ in range(2):  # the second call takes the cached templates
        p = ex.parse_texts(texts)
        values, errors = p.plan(np.arange(3))(np.zeros((3, 1)))
        assert not errors
        assert values[:, 0].tolist() == [eval_expr(parse(t), 0.0) for t in texts]
