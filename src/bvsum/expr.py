"""Small total expression language for piece evaluators and antiderivatives.

Grammar (EBNF, whitespace insignificant):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "x" | "pi" | "e"
           | FUNC "(" expr ")" | "pow" "(" expr "," expr ")"
           | "(" expr ")" ;
    FUNC   = "exp" | "log" | "sqrt" | "abs" | "sin" | "cos" | "atan" | "floor" ;
    NUMBER = decimal or scientific literal, e.g. 2, 0.5, .5, 1e-3, 2.5E+10 ;

"^" is right-associative and binds tighter than unary minus, so "-2^2"
is -(2^2) = -4 while "(-2)^2" is 4.  Evaluation is total: any domain
violation (log of a nonpositive number, division by zero, 0^negative)
or non-finite intermediate raises EvalError instead of propagating
NaN/inf into certified results.

Each node compiles itself once, on first use, and keeps the result
outside its fields, so eq, hash, repr and pickle ignore it.  A float is
evaluated by nested closures (Expr.compiled) that evaluate operands left
to right and check each result: a zero divisor before "/", finiteness
after every binary op, pow and function, and the libm errors of the
functions, each with the kind the array path gives it.

An array is evaluated by a flat postorder program of ufunc calls
(Expr.program), run by one interpreter in two modes.  The unchecked run
tests finiteness only at the root and at the operands of the masking ops
(/, ^, pow, exp, atan), the only ops that can turn a non-finite value
finite, and writes into arrays it made itself.  When a test trips, or x
is not a non-empty float64 array, the strict run tests every Bin and
Call result, so the error kind and the offending x are those of a fully
tested evaluation; a failing power takes there the kind the float path
gives it.  A test is a sum, so finite values whose sum overflows reach
the strict run, which returns them.  Both modes run the same ufuncs in
the same order, so their values are bit-identical.

Many small arrays are evaluated at once by eval_rows, one expression per
row of a 2-D array.  Rows whose programs have the same ops (Expr.shape)
share one unchecked run, each constant stacked into a column; a program
whose inexact op reads a constant runs only with rows of its own, since
numpy may round such an op differently over a column than over a
scalar.  If a test of the shared run trips, each of its rows falls back
to eval_expr, so every row's values and error are those of eval_expr.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("exp", "log", "sqrt", "abs", "sin", "cos", "atan", "floor")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, offset: int, expected: tuple[str, ...], message: str):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = expected
        self.message = message


class EvalError(ArithmeticError):
    """Domain violation or non-finite value during evaluation."""

    def __init__(self, kind: str, x: float):
        super().__init__(f"{kind} at x={x!r}")
        self.kind = kind
        self.x = x


class Expr:
    """Base class of AST nodes; all nodes are immutable and hashable."""

    @functools.cached_property
    def compiled(self):
        """The closure x -> e(x) for a float x."""
        return _compile(self)

    @functools.cached_property
    def program(self):
        """The program that evaluates e over an array (see _program)."""
        return _program(self)

    @functools.cached_property
    def shape(self):
        """The ops of the program if eval_rows may run it together with
        programs of the same ops (see _stackable), else None."""
        return self.program[1] if _stackable(self.program) else None

    def __getstate__(self):
        # closures do not pickle; the copy compiles again on first use
        return {k: v for k, v in vars(self).items()
                if k not in ("compiled", "program", "shape")}


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]


_TOKEN_RE = re.compile(
    r"""(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, (), f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ParseError(pos, (op,), f"expected {op!r}")

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, ("end of input",), f"unexpected token {text!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.advance()
                e = Bin(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.advance()
                e = Bin(text, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            if text in CONSTANTS:
                return Const(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, (arg,))
            if text == "pow":
                self.expect_op("(")
                a = self.expr()
                self.expect_op(",")
                b = self.expr()
                self.expect_op(")")
                return Call("pow", (a, b))
            raise ParseError(pos, ("x", "pi", "e") + FUNCTIONS + ("pow",),
                             f"unknown identifier {text!r}")
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError(pos, ("number", "x", "(", "function"),
                             "unexpected end of input")
        raise ParseError(pos, ("number", "x", "(", "function"),
                         f"unexpected token {text!r}")


def parse(text: str) -> Expr:
    """Parse expression text into an AST, raising ParseError on bad input."""
    return _Parser(text).parse()


def _scalar_pow(a: float, b: float, x: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("overflow", x) from None
    except (ValueError, ZeroDivisionError):
        raise EvalError("pow_domain", x) from None


def _op(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    """The _OPS name and the operands of a Neg, Bin or Call node."""
    if type(e) is Bin:
        return e.op, (e.left, e.right)
    if type(e) is Neg:
        return "neg", (e.arg,)
    return e.fn, e.args


def _compile(e: Expr):
    """The closure mapping a float x to e(x), with the checks of the
    scalar evaluation, in its order."""
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, (Num, Const)):
        v = e.value if isinstance(e, Num) else CONSTANTS[e.name]
        return lambda x: v
    op, args = _op(e)
    return _OPS[op][0](*map(_compile, args))


# One closure per operator, with the operator inline: operator.add and the
# like called from one shared closure cost about a fifth more per call.
def _neg(g):
    return lambda x: -g(x)


def _add(ga, gb):
    def f(x):
        r = ga(x) + gb(x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    return f


def _sub(ga, gb):
    def f(x):
        r = ga(x) - gb(x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    return f


def _mul(ga, gb):
    def f(x):
        r = ga(x) * gb(x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    return f


def _div(ga, gb):
    def f(x):
        a, b = ga(x), gb(x)
        if b == 0.0:
            raise EvalError("division_by_zero", x)
        r = a / b
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    return f


def _pow(ga, gb):
    def f(x):
        r = _scalar_pow(ga(x), gb(x), x)
        if not math.isfinite(r):
            raise EvalError("overflow", x)
        return r
    return f


def _applied(fn, kind: str):
    # a libm error or a non-finite result is the EvalError of the op: log
    # or sqrt outside its domain, exp's overflow, sin or cos of inf, floor
    # of inf, any of them of an inf or nan operand
    def build(g):
        def f(x):
            v = g(x)
            try:
                r = fn(v)
            except (ValueError, OverflowError):
                r = math.nan
            if not math.isfinite(r):
                raise EvalError(kind, x)
            return r
        return f
    return build


# op -> (float closure builder, ufunc, kind of a non-finite result (None:
# the strict run does not test it), masking).  The masking ops can map a
# non-finite operand to a finite value: x/inf = 0, 1^nan = 1, exp(-inf) =
# 0, atan(inf) = pi/2.  Every other op keeps a non-finite value non-finite
# at the same point, so it reaches the root unless a masking op's operand
# test sees it first.
_OPS = {
    "neg": (_neg, np.negative, None, False),
    "+": (_add, np.add, "overflow", False),
    "-": (_sub, np.subtract, "overflow", False),
    "*": (_mul, np.multiply, "overflow", False),
    "/": (_div, np.true_divide, "division_by_zero", True),
    "^": (_pow, np.power, "pow_domain", True),
    "pow": (_pow, np.power, "pow_domain", True),
    "exp": (_applied(math.exp, "overflow"), np.exp, "overflow", True),
    "log": (_applied(math.log, "log_domain"), np.log, "log_domain", False),
    "sqrt": (_applied(math.sqrt, "sqrt_domain"), np.sqrt, "sqrt_domain", False),
    "abs": (_applied(abs, "overflow"), np.abs, "overflow", False),
    "sin": (_applied(math.sin, "overflow"), np.sin, "overflow", False),
    "cos": (_applied(math.cos, "overflow"), np.cos, "overflow", False),
    "atan": (_applied(math.atan, "overflow"), np.arctan, "overflow", True),
    "floor": (_applied(lambda v: float(math.floor(v)), "overflow"), np.floor,
              "overflow", False),
}


def _program(e: Expr):
    """(the registers after x, ops): the flat program of e over points x.
    Register 0 holds x, the others each constant and op result in
    postorder.  An op is (ufunc, operand register a, b or None, result
    register, the operand it may overwrite or None, the operands the
    unchecked run tests first, kind).  It may overwrite only an operand
    computed from x in the same run: never x, never a constant-only value.
    Only masking ops test operands, and never a finite literal."""
    init, code = [], []
    sort = [0]  # per register: 0 from x, 1 a finite literal, 2 other constant

    def emit(e: Expr) -> int:
        # type(), not isinstance: each CLI request compiles all its pieces
        t = type(e)
        if t is Var:
            return 0
        if t is Num or t is Const:
            v = e.value if t is Num else CONSTANTS[e.name]
            init.append(np.float64(v))
            sort.append(1 if math.isfinite(v) else 2)
            return len(init)
        op, args = _op(e)
        _, fn, kind, masking = _OPS[op]
        a = emit(args[0])
        b = emit(args[1]) if len(args) > 1 else None
        ab = (a,) if b is None else (a, b)
        tmp = a if a and not sort[a] else b if b and not sort[b] else None
        guards = tuple(r for r in ab if sort[r] != 1) if masking else ()
        init.append(None)
        sort.append(0 if sort[a] == 0 or b is not None and sort[b] == 0 else 2)
        code.append((fn, a, b, len(init), tmp, guards, kind))
        return len(init)

    emit(e)
    del emit  # it refers to itself: a cycle would wait for the collector
    return tuple(init), tuple(code)


class _Recheck(Exception):
    """A non-finite value appeared in an unchecked run."""


def _finite(v) -> bool:
    # a finite sum means every term is finite
    return math.isfinite(np.add.reduce(v, axis=None))


def _fail(kind: str, x: np.ndarray, r, vals) -> EvalError:
    """The EvalError of the op that made r from vals, at r's first
    non-finite point (the first point, if r is a constant)."""
    i = 0 if np.ndim(r) == 0 else int(np.flatnonzero(~np.isfinite(r))[0])
    xi = float(x.flat[i]) if x.size else math.nan
    if kind == "pow_domain":
        # the kind the float path gives this power at that point
        a, b = (float(v if np.ndim(v) == 0 else v.flat[i]) for v in vals)
        try:
            if not math.isfinite(_scalar_pow(a, b, xi)):
                kind = "overflow"
        except EvalError as err:
            kind = err.kind
    return EvalError(kind, xi)


def _run(prog, x: np.ndarray, strict: bool):
    """The root's value over the points x.  Strict, every op but neg is
    tested and the first non-finite result raises its EvalError.
    Unchecked, only each op's guards are tested, a failed test raises
    _Recheck, and each op writes into the operand it may overwrite; x
    must then be a non-empty float64 array of at least one dimension."""
    init, code = prog
    regs = [x, *init]
    for fn, a, b, dst, tmp, guards, kind in code:
        va = regs[a]
        vb = None if b is None else regs[b]
        if strict:
            r = fn(va) if b is None else fn(va, vb)
            if kind is not None and not np.isfinite(r).all():
                raise _fail(kind, x, r, (va, vb))
        else:
            for g in guards:
                if not _finite(regs[g]):
                    raise _Recheck
            out = None if tmp is None else regs[tmp]
            r = fn(va, out=out) if b is None else fn(va, vb, out=out)
        regs[dst] = r
    return regs[-1]


@np.errstate(all="ignore")  # cheaper per call than a with block
def _eval_points(prog, x: np.ndarray):
    if x.ndim and x.size and x.dtype == np.float64:
        try:
            r = _run(prog, x, False)
            if _finite(r):
                return r
        except _Recheck:
            pass
    return _run(prog, x, True)


def eval_expr(e: Expr, x):
    """Evaluate at a float or a numpy array; raises EvalError when any
    point produces a domain violation or a non-finite value."""
    if isinstance(x, np.ndarray):
        r = _eval_points(e.program, x)
        if r.ndim == 0:
            return np.full_like(x, float(r), dtype=np.float64)
        return np.asarray(r, dtype=np.float64)
    return e.compiled(float(x))


# Ufuncs whose result is exact or correctly rounded on every loop numpy
# may pick.  The others may round differently when a constant operand is a
# column rather than a scalar: power takes its fast paths only for a
# scalar exponent, and the transcendentals may switch between SIMD and
# libm loops.
_EXACT = frozenset((np.negative, np.add, np.subtract, np.multiply,
                    np.true_divide, np.sqrt, np.abs, np.floor))


def _stackable(prog) -> bool:
    """Whether a program may run together with others of its ops, over
    constants stacked into columns: no inexact op reads a constant."""
    code = prog[1]
    if not code:
        return False  # the root is x or a constant: the ops do not tell
    from_x = {0}
    for fn, a, b, dst, _, _, _ in code:
        ab = (a,) if b is None else (a, b)
        if fn not in _EXACT and not from_x.issuperset(ab):
            return False
        if not from_x.isdisjoint(ab):
            from_x.add(dst)
    return True


@np.errstate(all="ignore")
def eval_rows(exprs, x: np.ndarray):
    """Evaluate exprs[i] over the points x[i] of a 2-D float64 array:
    (values, errors), where values[i] is eval_expr(exprs[i], x[i]) bit for
    bit and errors maps each row on which eval_expr raises to its
    EvalError; a failing row's values are NaN.

    Rows whose programs have the same Expr.shape run as one unchecked
    run, each constant register stacked into a column with one entry per
    row.  If any test of that run trips, each of its rows falls back to
    eval_expr, in row order, so error kinds and points are those of
    eval_expr."""
    if not exprs:
        return np.empty(x.shape), {}
    progs = [e.program for e in exprs]
    shapes = {}  # shape number -> its rows, in order
    if all(p is progs[0] for p in progs):
        shapes[0] = range(len(progs))
    else:
        numbers = {}  # op tuple (or program id, if it cannot stack) -> number
        shape_of = {}  # program id -> shape number
        for i, (e, p) in enumerate(zip(exprs, progs)):
            k = shape_of.get(id(p))
            if k is None:
                key = id(p) if e.shape is None else e.shape
                k = shape_of[id(p)] = numbers.setdefault(key, len(numbers))
            shapes.setdefault(k, []).append(i)
    values, errors = None, {}
    for rows in shapes.values():
        init, code = progs[rows[0]]
        if any(progs[i][0] is not init for i in rows):
            init = tuple(None if v is None else
                         np.array([progs[i][0][k] for i in rows])[:, None]
                         for k, v in enumerate(init))
        whole = len(rows) == len(x)
        r = None
        if x.size:
            try:
                r = _run((init, code), x if whole else x[rows], False)
                if not _finite(r):
                    r = None
            except _Recheck:
                pass
        if r is not None and whole and r is not x and r.shape == x.shape:
            return r, errors
        if values is None:
            values = np.empty(x.shape)
        if r is not None:
            values[rows] = r
            continue
        for i in rows:
            try:
                values[i] = eval_expr(exprs[i], x[i])
            except EvalError as err:
                values[i] = math.nan
                errors[i] = err
    return values, errors


_PREC_ATOM = 5
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Bin):
        return _PREC[e.op]
    return _PREC_ATOM


def render(e: Expr) -> str:
    """Render an AST back to text; parse(render(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Neg):
        inner = render(e.arg)
        return "-" + (inner if _prec(e.arg) >= 3 else f"({inner})")
    if isinstance(e, Bin):
        p = _PREC[e.op]
        ls, rs = render(e.left), render(e.right)
        if e.op == "^":
            if _prec(e.left) <= 4:
                ls = f"({ls})"
            if _prec(e.right) < 3:
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) <= p:
                rs = f"({rs})"
        return f"{ls}{e.op}{rs}"
    assert isinstance(e, Call)
    return f"{e.fn}({','.join(render(a) for a in e.args)})"
