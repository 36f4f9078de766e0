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

A float is evaluated by a closure compiled from the AST once, on the
first scalar evaluation, and kept on the node (Expr.compiled).  The
operands are evaluated left to right, and each closure checks what it
computed: a zero divisor before "/", finiteness after every binary
operation and pow, the log and sqrt domains, and exp's overflow.

Where finiteness is checked: a float is checked after every binary
operation and pow, as above.  An array is first walked with tests only
at the result and at the operands of the _MASKING ops (/, ^, pow, exp,
atan), the only ops that can turn a non-finite value finite; each node
of that walk writes into a temporary one of its operands owns.  When a
test trips, the strict walk that tests every node runs instead, so the
error kind and the offending x are those of that walk; a failing power
takes there the kind the float path gives it at that point.  Finite
values whose sum overflows the test are still returned.  Both walks run
the same ufuncs in the same order, so their values are bit-identical.
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
        """The closure x -> e(x) for a float x, built on first use and kept
        on the node (outside the fields, so eq, hash and repr ignore it)."""
        return _compile(self)

    def __getstate__(self):
        # closures do not pickle; the copy compiles again on first use
        return {k: v for k, v in vars(self).items() if k != "compiled"}


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
    except ValueError:
        raise EvalError("pow_domain", x) from None
    except ZeroDivisionError:
        raise EvalError("pow_domain", x) from None


def _compile(e: Expr):
    """The closure mapping a float x to e(x), with the checks of the
    scalar evaluation, in its order."""
    if isinstance(e, Num):
        v = e.value
        return lambda x: v
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, Const):
        v = CONSTANTS[e.name]
        return lambda x: v
    if isinstance(e, Neg):
        g = _compile(e.arg)
        return lambda x: -g(x)
    if isinstance(e, Bin):
        return _BINARY.get(e.op, _pow)(_compile(e.left), _compile(e.right))
    assert isinstance(e, Call)
    if e.fn == "pow":
        return _pow(_compile(e.args[0]), _compile(e.args[1]))
    return _UNARY.get(e.fn, _unknown)(_compile(e.args[0]))


# One closure per operator, with the operator inline: calling
# operator.add and the like from one shared closure costs about a fifth
# more per evaluation.
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
        a = ga(x)
        b = gb(x)
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


def _log(g):
    def f(x):
        v = g(x)
        if v <= 0.0:
            raise EvalError("log_domain", x)
        return math.log(v)
    return f


def _sqrt(g):
    def f(x):
        v = g(x)
        if v < 0.0:
            raise EvalError("sqrt_domain", x)
        return math.sqrt(v)
    return f


def _exp(g):
    def f(x):
        try:
            return math.exp(g(x))
        except OverflowError:
            raise EvalError("overflow", x) from None
    return f


def _floor(g):
    return lambda x: float(math.floor(g(x)))


def _unknown(g):
    def f(x):
        g(x)
        raise EvalError("unknown_function", x)
    return f


def _applied(fn):
    return lambda g: lambda x: fn(g(x))


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}
_UNARY = {"log": _log, "sqrt": _sqrt, "exp": _exp, "floor": _floor,
          "abs": _applied(abs), "sin": _applied(math.sin),
          "cos": _applied(math.cos), "atan": _applied(math.atan)}


def _first_bad(r) -> int:
    """The index of the first point at which r is not finite.  A constant
    r fails at every point, so the first point stands for it."""
    return 0 if np.ndim(r) == 0 else int(np.flatnonzero(~np.isfinite(r))[0])


_UFUNCS = {"+": (np.add, "overflow"), "-": (np.subtract, "overflow"),
           "*": (np.multiply, "overflow"),
           "/": (np.true_divide, "division_by_zero"),
           "^": (np.power, "pow_domain"), "pow": (np.power, "pow_domain"),
           "exp": (np.exp, "overflow"), "log": (np.log, "log_domain"),
           "sqrt": (np.sqrt, "sqrt_domain"), "abs": (np.abs, "overflow"),
           "sin": (np.sin, "overflow"), "cos": (np.cos, "overflow"),
           "atan": (np.atan if hasattr(np, "atan") else np.arctan, "overflow"),
           "floor": (np.floor, "overflow")}

# The ops that can map a non-finite operand to a finite value: x/inf = 0,
# 1^nan = 1, exp(-inf) = 0, atan(inf) = pi/2.  Every other op keeps a
# non-finite value non-finite at the same point, so it reaches the root
# unless one of these ops' operand tests sees it first.
_MASKING = frozenset({"/", "^", "pow", "exp", "atan"})


class _Recheck(Exception):
    """A non-finite value appeared in an unchecked walk."""


def _guard(*vals) -> None:
    for v in vals:
        # a finite sum means every term is finite
        if not math.isfinite(np.add.reduce(v, axis=None)):
            raise _Recheck


def _temp(vals, x: np.ndarray):
    """An operand array this walk made, which the op may overwrite."""
    for v in vals:
        if type(v) is np.ndarray and v is not x:
            return v
    return None


def _eval_array(e: Expr, x: np.ndarray, strict: bool):
    """Walk e over the points x.  With strict, every Bin and Call node is
    tested for finiteness and the first failure raises its EvalError.
    Without it, only the operands of the _MASKING ops are tested, a failed
    test raises _Recheck, and each node writes into a temporary that one
    of its operands owns; x must then be a non-empty float64 array."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return np.float64(CONSTANTS[e.name])
    if isinstance(e, Neg):
        v = _eval_array(e.arg, x, strict)
        return np.negative(v, out=None if strict else _temp((v,), x))
    if isinstance(e, Bin):
        op, args = e.op, (e.left, e.right)
    else:
        assert isinstance(e, Call)
        op, args = e.fn, e.args
    fn, kind = _UFUNCS[op]
    vals = [_eval_array(a, x, strict) for a in args]
    if strict:
        r = fn(*vals)
        if not np.all(np.isfinite(r)):
            i = _first_bad(r)
            xi = float(x.flat[i]) if x.size else math.nan
            if kind == "pow_domain":
                # the kind the float path gives this power at that point
                a, b = (float(v if np.ndim(v) == 0 else v.flat[i]) for v in vals)
                try:
                    if not math.isfinite(_scalar_pow(a, b, xi)):
                        kind = "overflow"
                except EvalError as err:
                    kind = err.kind
            raise EvalError(kind, xi)
        return r
    if op in _MASKING:
        _guard(*vals)
    return fn(*vals, out=_temp(vals, x))


def _eval_points(e: Expr, x: np.ndarray):
    # a tripped test leaves the points to the strict walk, whose values
    # or EvalError then stand
    if x.dtype == np.float64 and x.size:
        try:
            r = _eval_array(e, x, False)
            _guard(r)
            return r
        except _Recheck:
            pass
    return _eval_array(e, x, True)


def eval_expr(e: Expr, x):
    """Evaluate at a float or a numpy array; raises EvalError when any
    point produces a domain violation or a non-finite value."""
    if isinstance(x, np.ndarray):
        with np.errstate(all="ignore"):
            r = _eval_points(e, x)
        if np.ndim(r) == 0:
            return np.full_like(x, float(r), dtype=np.float64)
        return np.asarray(r, dtype=np.float64)
    return e.compiled(float(x))


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
