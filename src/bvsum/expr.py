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
NaN/inf into certified results.  An expression nested more than
_MAX_DEPTH levels deep, in ops on one path or in parentheses and operands
open at once, is a ParseError, so every accepted one is evaluated,
compared, hashed and printed within the default recursion limit.

parse is the parser, the only maker of trees.  parse_texts parses a
spec's texts by columns, without trees: texts whose tokens differ only
in the values of their numbers share a template, keyed by the text with
its numbers blanked, which the parser makes once from a text of 0s in
the place of the numbers: its program, its shape and the source of its
float functions' factory, all the same for every text of the key but
for the bits of the shape's pinned constants.  The templates are kept
in a bounded cache.  The texts of one key become the template's program
and one matrix of their numbers, a row per text (Parsed), from which the
sampled checks, the refinements and the float functions evaluate them;
a text's tree is made only when something reads it (Parsed.tree, which
parses it).  A text that does not parse, or has a number that is not
finite, goes to the parser, which raises its errors.

Each node compiles itself once, on first use, and keeps the result
outside its fields, so eq, hash, repr and pickle ignore it.  Only
_program walks the tree: every other compiled form is a loop over its
ops, each op's facts in its row of _OPS.  A float is evaluated by one
straight-line function (Expr.compiled) with one group of statements per
op of the program, in its order, that evaluates operands left to right
and checks each result: a zero divisor before "/", finiteness after
every binary op, pow and function, and the libm errors of the
functions, each with the kind the array path gives it.  A run of
integers s <= k < t is summed through a block kernel (Expr.block), made
from the same ops, which gives summands whose math.fsum, inside any
larger fsum, is the term-by-term sum.  The ops on constants alone run
once.  A root that is monotone in x and one zero at both ends of the
run, with the operands that the stages below would test finite there,
is that zero throughout, and the kernel gives it once (the zero stage);
so does a root on constants alone that is zero.  Otherwise the values
are evaluated in two stages.  The ops in _EXACT that read x, constants
and one another run as ufuncs over np.arange(s, t), and round as the
float ops do; the others (powers, the libm calls and what reads them)
run bare in one list comprehension over the .tolist() of those arrays,
each with the float function's math call.  As in the unchecked run
below, the values are tested once, through their total, and so is each
operand of a masking op that is not a literal: an array by its sum, a
comprehension value term by term, or at the run's two ends if it is
monotone in x (see _monotone).  If a test trips, or an op raises, the
run goes through the float function instead, lazily, so the values and
the first failing point's EvalError are those of the float function at
each integer in turn.  Both sources are made only of the ops' bare expressions in _OPS,
the statements _OPS builds around them, ufunc names and register names
(see _names), never text from the node.  So they depend only on the
program's ops and on which constants are finite: the constants are the
arguments of a generated factory that returns both functions, compiled
once per shape and kept in a bounded cache that a CLI request, which
parses its spec again, reuses; a text of a template finds its factory
by the source the template made.

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

Many small arrays are evaluated at once by an expr.Rows plan, one
expression per row of a 2-D array.  Rows of one shape (Expr.shape) share
one unchecked run.  A shape is a program's ops (so "x^2" and "pow(x,2)",
whose ops have two names, have two) and the bits of its pinned
constants, those that an inexact op reads, directly or through ops on
constants alone: numpy may round such an op differently over a column
than over a scalar, so a pinned constant stays the scalar it is in a run
of its own, and every other constant is stacked into a column.  A root
that is x or a constant has a shape too.  A plan is made of its shapes'
programs and constant columns alone (Rows), from a list of trees
(rows_of) or from parsed texts (Parsed.plan).  If a test of the shared
run trips, each of its rows falls back to the evaluation of its own
program, so every row's values and error are those of eval_expr.  A
plan also proves its rows monotone between two points each
(Rows.monotone), by the rule of _monotone, which validate uses to spare
a piece its sampling.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
        """The function x -> e(x) for a float x (see _compile)."""
        fn, vars(self)["block"] = _compile(self.program)
        return fn

    @functools.cached_property
    def block(self):
        """The kernel (s, t) -> summands of e(k) for the integers s <= k <
        t, which must have |k| <= 2^53, whose math.fsum, inside any larger
        fsum, gives the bits of the term-by-term sum, from the same call of
        the shape's factory as compiled (see _kernel): a list, the values
        or one zero for a run on which e is that zero, or when a test
        trips, map(compiled, the floats of the run), which raises
        compiled's EvalError at the first failing k when it gets there."""
        self.compiled  # sets block too
        return vars(self)["block"]

    @functools.cached_property
    def program(self):
        """The program that evaluates e over an array (see _program)."""
        return _program(self)

    @functools.cached_property
    def shape(self):
        """The key of the programs a Rows plan may run together with this
        one: the ops and the bits of the pinned constants (see _shape)."""
        return _shape(self.program)

    def __getstate__(self):
        # functions do not pickle; the copy compiles again on first use
        return {k: v for k, v in vars(self).items()
                if k not in ("compiled", "block", "program", "shape")}


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


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    rf"""(?P<num>{_NUMBER})
      | (?P<name>{_NAME})
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)
# A text's numbers.  A valid text's digits are all in its number tokens, as
# no name it may hold has one.
_NUMBER_RE = re.compile(f"({_NUMBER})")


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


# The most ops on a path from the root to a leaf, and the most operands
# and parentheses open at once while parsing.  Evaluation, eq, hash, repr,
# render and pickle recurse once per level, at up to three frames a level,
# and the parser at six frames a parenthesis: at this depth the deepest of
# them needs a recursion limit of about 620 of the default 1000.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # operands and parentheses open

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

    def nested(self, parse, pos: int) -> Expr:
        """parse() one level deeper in the text, which opens at pos."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(pos, (), "nested too deeply")
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, ("end of input",), f"unexpected token {text!r}")
        # a tree has fewer ops than its text has tokens
        if len(self.tokens) > _MAX_DEPTH and _height(e) > _MAX_DEPTH:
            raise ParseError(0, (), "nested too deeply")
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
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.nested(self.unary, pos))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.nested(self.unary, pos))
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
                arg = self.nested(self.expr, pos)
                self.expect_op(")")
                return Call(text, (arg,))
            if text == "pow":
                self.expect_op("(")
                a = self.nested(self.expr, pos)
                self.expect_op(",")
                b = self.nested(self.expr, pos)
                self.expect_op(")")
                return Call("pow", (a, b))
            raise ParseError(pos, ("x", "pi", "e") + FUNCTIONS + ("pow",),
                             f"unknown identifier {text!r}")
        if kind == "op" and text == "(":
            e = self.nested(self.expr, pos)
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError(pos, ("number", "x", "(", "function"),
                             "unexpected end of input")
        raise ParseError(pos, ("number", "x", "(", "function"),
                         f"unexpected token {text!r}")


def _height(e: Expr) -> int:
    """The most ops on a path from e to a leaf, found without recursion."""
    most, todo = 0, [(e, 0)]
    while todo:
        e, h = todo.pop()
        if type(e) in (Num, Var, Const):
            most = max(most, h)
        else:
            todo.extend((a, h + 1) for a in _op(e)[1])
    return most


def parse(text: str) -> Expr:
    """Parse expression text into an AST, raising ParseError on bad input:
    _Parser(text).parse().  parse_texts parses many texts without their
    ASTs, one program and one matrix of numbers per template key."""
    return _Parser(text).parse()


# The templates kept, one per key.  A CLI request parses its spec again:
# the cache, not the request, makes each template once.
_TEMPLATES = 256


class _Template(NamedTuple):
    """What the texts cut into one key share (see _template)."""

    init: tuple  # the program's registers after x, 0.0 for each number
    code: tuple  # the program's ops
    numbers: tuple  # the indices in init of the numbers, in text order
    pinned: tuple  # the program's pinned constants (see _pinned)
    shape: tuple | None  # the shape of every text, if no number is pinned
    source: str | None  # the source of the factory, if there are ops
    regs: tuple  # the registers of the constants that are not pinned
    take: list | None  # per register of regs its number, -1 if named; None if regs are the numbers
    pins: list  # the pinned numbers


@functools.lru_cache(maxsize=_TEMPLATES)
def _template(key: tuple) -> _Template | None:
    """The template of the texts cut into key, the text between their
    numbers (see parse_texts), or None if such a text does not parse.
    The text parsed has 0 for each number, set apart by spaces so that it
    runs into no token beside it.  So it has the tokens of every text cut
    into key but for the numbers, unless a number there runs on from a
    name, as "2" in "x2": then the name is followed by a number, which no
    text of the grammar has, and it fails.  A character that starts no
    token ("." not before a digit, "$") fails there as in those texts.
    The numbers are the registers that hold 0, as no named constant is 0,
    and the postorder of the program is their text order."""
    try:
        prog = init, code = _program(_Parser(" 0 ".join(key)).parse())
    except ParseError:
        return None
    pinned = _pinned(prog)
    numbers = [r for r, v in enumerate(init) if v is not None and not v]
    regs = _column_registers(init, pinned)
    take = [numbers.index(r) if r in numbers else -1 for r in regs]
    pins = [numbers.index(r - 1) for r in pinned if r - 1 in numbers]
    if take == list(range(len(numbers))):
        take = None
    return _Template(init, code, tuple(numbers), pinned, None if pins else _shape(prog),
                     _source(prog) if code else None, regs, take, pins)


def _op(e: Expr) -> tuple[str, tuple[Expr, ...]]:
    """The _OPS name and the operands of a Neg, Bin or Call node."""
    if type(e) is Bin:
        return e.op, (e.left, e.right)
    if type(e) is Neg:
        return "neg", (e.arg,)
    return e.fn, e.args


def _compile(prog, source: str | None = None):
    """(the function mapping a float x to the value of the program prog,
    with the checks of the scalar evaluation, in its order; its block
    kernel): the lambdas of a root that is x or a constant, a zero
    constant adding itself once to a run (see _kernel), else the
    functions generated for the program's shape, over its constants.
    source is the factory's source if known (a template's)."""
    init, code = prog
    if not code:
        if not init:
            return (lambda x: x), (lambda s, t: np.arange(s, t, dtype=np.float64).tolist())
        v = float(init[0])
        return (lambda x: v), (lambda s, t: [v] * (t - s if v else min(t - s, 1)))
    return _factory(source or _source(prog))(*[float(v) for v in init if v is not None])


def _names(init) -> list[str]:
    """The names of the registers of a program whose registers after x
    are init, in the generated sources: x, c<i> for the i-th constant and
    t<i> for the i-th op result."""
    consts, ops = itertools.count(), itertools.count()
    return ["x", *(f"t{next(ops)}" if v is None else f"c{next(consts)}" for v in init)]


def _source(prog) -> str:
    """The source of a factory that takes the constants of the program
    prog and returns its float function and block kernel.  Its registers
    are named by _names, so the source depends only on the program's ops
    and on which constants are finite.

    The float function runs the statements in _OPS of each op, in the
    program's order.  The kernel comes from the same ops (see _kernel)."""
    init, code = prog
    name = _names(init)
    steps = [_OPS[op][4].format(r=name[dst], a=name[a], b=name[a if b is None else b])
             for _, a, b, dst, _, _, op in code]
    params = ", ".join(r for r, v in zip(name[1:], init) if v is not None)
    return (f"def factory({params}):\n"
            f"    def f(x):{''.join(steps)}\n"
            f"        return {name[code[-1][3]]}\n"
            + _kernel(prog)
            + "    return f, block\n")


def _kernel(prog) -> str:
    """The source of the block kernel of the program prog: block(s, t),
    summands of the float function f at the integers s <= k < t, which
    must have |k| <= 2^53, whose math.fsum, inside any larger fsum, gives
    the bits of the term-by-term sum of f(k).  Its registers are named by
    _names.

    An op on constants alone runs once per run, as f runs it.  Every
    other op in _EXACT whose operands are x, constants or other such ops
    runs as one ufunc over np.arange(s, t), which holds the run's floats
    exactly; these ufuncs round as f's float ops do.  Every other op runs
    in one list comprehension over the .tolist() of the arrays it reads,
    as its bare expression in _OPS.  So each op runs on the operands it
    has in f and gives the same bits, and the summands are the values.

    Each op result that a masking op reads is tested: once if it is made
    of constants alone, by a finite sum if it is an array (as the
    unchecked array run tests it), and in the comprehension term by term,
    by a clause before its reader, unless it is monotone in x (see
    _monotone) without a branch test, which would fail on most runs
    longer than a branch: then at the run's two ends, between which it
    lies.  So is the root, by a finite sum.  A non-finite op result
    reaches the root or such an operand, so if no test trips and no op
    raises, f raises at no k and the list is returned.  Otherwise the
    kernel returns map(f, floats of the run), which raises f's EvalError
    at the first failing k when it gets there.  A subexpression of the
    comprehension's element nested more than _NESTING brackets deep is
    bound to its register by a clause, so that the source stays within
    the parser's limit.

    A run on which f is one zero adds that zero once, not t - s times,
    as fsum ignores zeros but for the sign of an all-zero sum: a root on
    constants alone that is zero, and a monotone root that is one zero at
    both ends of the run, with the operands the ufuncs would test finite
    there, so that f is that zero throughout (the zero stage, see
    _end_tests).  A run where it is not goes on as above: only then is
    np.arange(s, t) made."""
    init, code = prog
    name = _names(init)
    # per register: "const", "numpy" (an array over the run) or "python"
    stage = ["numpy"] + ["const" if v is not None else None for v in init]
    mono, tests = _monotone(prog)
    value, depth = list(name), [0] * len(name)  # in the comprehension
    const, arrays, clauses = [], [], []  # statements, clauses
    loop, ends, summed = [], [], []  # the arrays the comprehension reads; end tests; sum tests
    for fn, a, b, dst, tmp, guards, op in code:
        ab = (a,) if b is None else (a, b)
        bare = _OPS[op][0]
        stage[dst] = ("const" if all(stage[r] == "const" for r in ab) else
                      "python" if fn not in _EXACT or any(stage[r] == "python" for r in ab)
                      else "numpy")
        for g in guards:
            if g == 0 or init[g - 1] is not None:
                continue  # x and the literals, which f does not test
            if stage[g] == "const":
                const.append(f"if not isfinite({name[g]}):\n    raise Recheck")
            elif stage[g] == "numpy":
                arrays.append(f"if not finite({name[g]}):\n    raise Recheck")
                summed.append(g)
            elif mono[g] and not any(kind in _PHASE for _, kind in tests[g]):
                # a branch test would fail on most runs longer than a
                # branch, so such an operand is tested term by term
                ends.append(g)
            else:
                clauses.append(f"if isfinite({name[g]} := {value[g]}) or recheck()")
                value[g], depth[g] = name[g], 0
        r = name[dst]
        if stage[dst] == "const":
            const.append(f"{r} = {bare.format(a=name[a], b=name[ab[-1]])}")
        elif stage[dst] == "numpy":
            out = "" if tmp is None else f", out={name[tmp]}"
            arrays.append(f"{r} = np.{fn.__name__}({', '.join(name[k] for k in ab)}{out})")
            if fn is np.floor:
                arrays.append(f"{r} += 0.0")  # float(floor(-0.0)) is 0.0
        else:
            for k in ab:
                if stage[k] == "numpy" and k not in loop:
                    loop.append(k)
            value[dst] = bare.format(a=value[a], b=value[ab[-1]])
            depth[dst] = bare.count("(") + max(depth[k] for k in ab)
            if depth[dst] > _NESTING:
                clauses.append(f"for {r} in [{value[dst]}]")
                value[dst], depth[dst] = r, 0
    root = code[-1][3]
    zero = mono[root] and stage[root] != "const"
    body = list(const)
    if ends or zero:
        body += _end_tests(code, name, stage, ends, tests, (root, summed) if zero else None)
    if stage[root] != "const":  # the ufuncs or the comprehension read x
        body.append("x = np.arange(s, t, dtype=np.float64)")
    if stage[root] == "numpy":
        arrays.append(f"if finite({name[root]}):\n    return {name[root]}.tolist()")
    if arrays:
        body.append('with errstate(all="ignore"):')
        body += ["    " + line for st in arrays for line in st.split("\n")]
    if stage[root] == "python":
        lists = [f"{name[k]}.tolist()" for k in loop]
        over = lists[0] if len(lists) == 1 else f"zip({', '.join(lists)})"
        loop_clause = f"for {', '.join(name[k] for k in loop)} in {over}"
        body += [f"v = [{value[root]} {' '.join([loop_clause, *clauses])}]",
                 "if isfinite(sum(v)):\n    return v"]
    elif stage[root] == "const":
        body.append(f"if isfinite({name[root]}):\n"
                    f"    return [{name[root]}] * (t - s if {name[root]} else 1)")
    return ("    def block(s, t):\n"
            "        if s >= t:\n"
            "            return []\n"
            "        try:\n"
            + "".join(f"            {line}\n" for st in body for line in st.split("\n"))
            + "        except (Recheck, ArithmeticError, ValueError):\n"
            "            pass\n"
            "        return map(f, map(float, range(s, t)))\n")


# Ufuncs monotone in their operand; add, subtract and multiply are
# monotone in one operand when the other is a finite constant, and so are
# divide and power under the conditions of _monotone.
_MONOTONE = frozenset((np.negative, np.sqrt, np.floor, np.exp, np.log, np.arctan))
# Ufuncs monotone in a monotone operand that passes a test at both ends:
# abs of one strict sign, sin and cos of one branch.
_TESTED = {np.abs: "sign", np.sin: "sin", np.cos: "cos"}


def _monotone(prog) -> tuple[list, list]:
    """(per register, whether it is monotone in x; per register, the
    tests it needs to be, each (register, kind)).  The kinds: "finite",
    an op result on constants alone, which must be finite; "sign", a
    register read from x, which must have one strict sign at both ends of
    the interval; "sin" or "cos", the argument of that function, whose
    values at both ends must lie in one branch of it (see _in_branch).

    A monotone register is x, a constant, or built from x by ops of
    _MONOTONE, abs of one sign, sin or cos of one branch, and +, -, * or
    / with a constant, or ^ or pow with a constant exponent, where a
    constant is a finite literal or an op result on constants alone, as
    the -c1 of c0*exp(-c1*x).  A power is monotone only on a base of one
    strict sign, and so is c/v on a divisor v of one: a monotone base of
    that sign at the interval's ends keeps it in between, as a monotone
    argument with both ends in one branch stays in it.

    The premises: the float ops round monotonically, and the libm calls
    are taken to, so over any interval, an integer run or the points of a
    piece, a monotone register lies between its values at the two ends.
    A libm call that did not could matter only within an ulp of overflow
    or underflow.  A branch of sin or cos is widened by _DELTA at each
    end, past the extremum there: at a distance t <= _DELTA from it, the
    function is within t^2/2 of its extremum, +-1, less than half an ulp
    of 1, so a correctly rounded sin or cos is +-1 there and stays
    monotone."""
    init, code = prog
    const = [False] + [v is not None and math.isfinite(v) for v in init]
    mono, tests = [True] + const[1:], [()] * (len(init) + 1)
    for fn, a, b, dst, _, _, _ in code:
        if b is None:
            kind = _TESTED.get(fn)
            mono[dst] = mono[a] and (fn in _MONOTONE or kind is not None)
            tests[dst] = tests[a] + (((a, kind),) if kind and not const[a] else ())
            const[dst] = const[a]
        elif const[a] and const[b]:
            const[dst] = True
        elif fn in (np.add, np.subtract, np.multiply, np.true_divide, np.power):
            if mono[a] and const[b]:
                mono[dst] = True
                tests[dst] = tests[a] + tests[b] + (((a, "sign"),) if fn is np.power else ())
            elif const[a] and mono[b] and fn is not np.power:
                mono[dst] = True
                tests[dst] = tests[a] + tests[b] + (((b, "sign"),) if fn is np.true_divide
                                                    else ())
        if const[dst]:
            mono[dst], tests[dst] = True, ((dst, "finite"),)
    return mono, tests


# The widening of a branch of sin or cos at each end (see _monotone),
# below 2^-26.5, where t^2/2 reaches half an ulp of 1
_DELTA = 1e-8
# The phase of the branches [(n + phase)pi, (n + 1 + phase)pi] of sin and cos.
_PHASE = {"sin": 0.5, "cos": 0.0}
# pi to 70 decimals, rounded down, and so a rational enclosure of it
_PI_LO = Fraction("3.14159265358979323846264338327950288419716939937510"
                  "58209749445923078164")
_PI_HI = _PI_LO + Fraction(1, 10 ** 70)
# The largest |argument| tested; a larger one is not in a branch.
_BRANCH_RANGE = 2.0 ** 30


@np.errstate(all="ignore")
def _in_branch(u0: np.ndarray, u1: np.ndarray, phase) -> np.ndarray:
    """Per element, whether the floats u0 and u1 lie in one widened branch
    [(n + phase)pi - _DELTA, (n + 1 + phase)pi + _DELTA] of sin (phase
    1/2) or cos (phase 0), compared exactly against the real ends; phase
    is one for all elements or one per element.  The branch is n =
    floor((min + _DELTA)/pi - phase), the last whose lower end is at most
    the lesser value: it has the highest upper end of those.  Float
    arithmetic decides every element whose distances to the ends exceed
    its error many times over; the others are decided with rationals
    (_in_branch_exactly).  An argument above _BRANCH_RANGE in magnitude,
    or not finite, is in no branch."""
    lo, hi = np.minimum(u0, u1), np.maximum(u0, u1)
    q = (lo + _DELTA) / math.pi - phase
    n = np.floor(q)
    end = (n + (1.0 + phase)) * math.pi
    room = end + _DELTA - hi
    # each float error is below 2^-50 of the magnitudes involved
    unsure = ((np.minimum(q - n, n + 1.0 - q) < 2.0**-44 * (np.abs(q) + 1.0))
              | (np.abs(room) < 2.0**-44 * (np.abs(hi) + np.abs(end) + 1.0)))
    usable = (np.abs(lo) <= _BRANCH_RANGE) & (np.abs(hi) <= _BRANCH_RANGE)
    inside = usable & (room >= 0.0) & ~unsure
    for i in np.flatnonzero(usable & unsure).tolist():
        inside[i] = _in_branch_exactly(float(lo[i]), float(hi[i]),
                                       float(np.broadcast_to(phase, lo.shape)[i]))
    return inside


def _in_branch_exactly(lo: float, hi: float, phase: float) -> bool:
    """_in_branch of lo <= hi, in rationals, with pi enclosed by _PI_LO
    and _PI_HI; False where the enclosure cannot decide."""
    delta, p = Fraction(_DELTA), Fraction(phase)
    a = Fraction(lo) + delta
    n = {math.floor(a / pi - p) for pi in (_PI_LO, _PI_HI)}
    if len(n) > 1:
        return False
    m = n.pop() + 1 + p
    return Fraction(hi) - delta <= min(m * _PI_LO, m * _PI_HI)


def _branch(u0: float, u1: float, phase: float) -> bool:
    """_in_branch of two floats, for the generated kernels."""
    return bool(_in_branch(np.array([u0]), np.array([u1]), phase)[0])


def _end_tests(code, name, stage, ends, tests, zero) -> list[str]:
    """The statements of a kernel that test registers at the run's two
    ends.  The ops they read run as f's bare expressions on the floats of
    s and t - 1, as x_0 and x_1, with the registers named <name>_0 and
    <name>_1.  First, each monotone register of ends must be finite there
    and pass its tests (see _monotone), or Recheck is raised.  Then, if
    zero is (the root, the registers the ufunc stage tests by their sums),
    the zero stage: if the root is one zero at both ends (the same bits),
    those registers are finite there and the root passes its tests, f is
    that zero at every integer of the run, and the kernel returns it
    alone.  It evaluates the root at t - 1 first, where a decay reaches
    zero, and at s only if the root is zero there."""

    def reads(regs) -> set:
        need = set(regs)
        for _, a, b, dst, _, _, _ in reversed(code):  # each reader before its operands
            if dst in need:
                need.update(r for r in (a, b) if r is not None and stage[r] != "const")
        return need

    need = reads(ends)
    more = reads([zero[0]]) - need if zero else set()

    def at(r: int, end: str) -> str:
        return f"{name[r]}_{end}" if r in need or r in more else name[r]

    def evaluate(regs, end: str) -> list[str]:
        return [f"{at(dst, end)} = "
                + _OPS[op][0].format(a=at(a, end), b=at(a if b is None else b, end))
                for _, a, b, dst, _, _, op in code if dst in regs]

    def passes(regs) -> list[str]:
        return [f"isfinite({name[r]})" if kind == "finite" else
                f"{at(r, '0')} * {at(r, '1')} > 0" if kind == "sign" else
                f"branch({at(r, '0')}, {at(r, '1')}, {_PHASE[kind]})"
                for r, kind in dict.fromkeys(regs)]

    lines = []
    tested = [test for g in ends for test in tests[g]]
    if ends:
        checks = [f"isfinite({at(g, end)})" for g in ends for end in "01"] + passes(tested)
        lines += ["x_0, x_1 = float(s), float(t - 1)", *evaluate(need, "0"), *evaluate(need, "1"),
                  f"if not ({' and '.join(checks)}):\n    raise Recheck"]
    if zero:
        root, summed = zero
        r0, r1 = at(root, "0"), at(root, "1")
        checks = ([f"{r0} == 0.0", f"copysign(1.0, {r0}) == copysign(1.0, {r1})"]
                  + [f"isfinite({at(g, end)})" for g in summed for end in "01"]
                  + passes(test for test in tests[root] if test not in tested))
        inner = [*([] if ends else ["x_0 = float(s)"]), *evaluate(more, "0"),
                 f"if {' and '.join(checks)}:\n    return [{r1}]"]
        lines += [*([] if ends else ["x_1 = float(t - 1)"]), *evaluate(more, "1"),
                  f"if {r1} == 0.0:", *("    " + line for st in inner for line in st.split("\n"))]
    return lines


# The most brackets an expression in a block kernel's element nests; the
# parser refuses 200.
_NESTING = 64


# The factories kept, one per shape.  A CLI request parses its spec again
# and so compiles each piece again: the cache, not the node, makes that
# once per shape.
_FACTORIES = 256


class _Recheck(Exception):
    """A non-finite value appeared in an unchecked run."""


def _recheck():
    raise _Recheck


def _finite(v) -> bool:
    # a finite sum means every term is finite
    return math.isfinite(np.add.reduce(v, axis=None))


# The names the generated source may use besides its registers.
_NAMES = {"EvalError": EvalError, "Recheck": _Recheck, "recheck": _recheck,
          "np": np, "errstate": np.errstate, "finite": _finite, "branch": _branch,
          **{name: getattr(math, name) for name in
             ("isfinite", "copysign", "pow", "exp", "log", "sqrt", "sin", "cos",
              "atan", "floor")}}


@functools.lru_cache(maxsize=_FACTORIES)
def _factory(source: str):
    """The factory that source defines, compiled once per shape."""
    scope = {}
    exec(compile(source, "<bvsum.expr>", "exec"), _NAMES, scope)
    return scope["factory"]


# The statements of each op in the float function, built around its bare
# expression: {r} is the result's register, {a} and {b} the operands'.
# Each op but neg tests its result.
def _checked(statements: str, kind: str = "overflow") -> str:
    return statements + f"""
        if not isfinite({{r}}):
            raise EvalError("{kind}", x)"""


def _assign(bare: str) -> str:
    return "\n        {r} = " + bare


def _arith(bare: str, kind: str) -> str:
    return _checked(_assign(bare), kind)


def _div(bare: str, kind: str) -> str:
    return _checked(f"""
        if {{b}} == 0.0:
            raise EvalError("{kind}", x)""" + _assign(bare))


def _pow(bare: str, kind: str) -> str:
    return _checked("""
        try:
            {r} = """ + bare + f"""
        except OverflowError:
            raise EvalError("overflow", x) from None
        except (ValueError, ZeroDivisionError):
            raise EvalError("{kind}", x) from None""")


def _call(bare: str, kind: str) -> str:
    # a libm error or a non-finite result is the EvalError of the op: log
    # or sqrt outside its domain, exp's overflow, sin or cos of inf, floor
    # of inf, any of them of an inf or nan operand
    return _checked("""
        try:
            {r} = """ + bare + f"""
        except (ValueError, OverflowError):
            raise EvalError("{kind}", x) from None""", kind)


def _entry(bare: str, ufunc, kind, masking: bool, statements) -> tuple:
    # an op of no kind (neg) tests nothing, so its statements need none
    return (bare, ufunc, kind, masking,
            statements(bare) if kind is None else statements(bare, kind))


# op -> (the op's value as a bracketed expression of its operands {a} and
# {b}, ufunc, kind of a non-finite result (None: the strict run does not
# test it), masking, the float function's statements for it): each
# compiled form reads an op's facts here, by the name its program op
# holds.  The masking ops can map a non-finite operand to a finite value: x/inf = 0,
# 1^nan = 1, exp(-inf) = 0, atan(inf) = pi/2.  Every other op keeps a
# non-finite value non-finite at the same point, or raises, so it reaches
# the root unless a masking op's operand test sees it first.
_OPS = {
    "neg": _entry("(-{a})", np.negative, None, False, _assign),
    "+": _entry("({a} + {b})", np.add, "overflow", False, _arith),
    "-": _entry("({a} - {b})", np.subtract, "overflow", False, _arith),
    "*": _entry("({a} * {b})", np.multiply, "overflow", False, _arith),
    "/": _entry("({a} / {b})", np.true_divide, "division_by_zero", True, _div),
    "^": _entry("pow({a}, {b})", np.power, "pow_domain", True, _pow),
    "pow": _entry("pow({a}, {b})", np.power, "pow_domain", True, _pow),
    "exp": _entry("exp({a})", np.exp, "overflow", True, _call),
    "log": _entry("log({a})", np.log, "log_domain", False, _call),
    "sqrt": _entry("sqrt({a})", np.sqrt, "sqrt_domain", False, _call),
    "abs": _entry("abs({a})", np.abs, "overflow", False, _call),
    "sin": _entry("sin({a})", np.sin, "overflow", False, _call),
    "cos": _entry("cos({a})", np.cos, "overflow", False, _call),
    "atan": _entry("atan({a})", np.arctan, "overflow", True, _call),
    "floor": _entry("float(floor({a}))", np.floor, "overflow", False, _call),
}


def _program(e: Expr):
    """(the registers after x, ops): the flat program of e over points x.
    Register 0 holds x, the others each constant and op result in
    postorder.  An op is (ufunc, operand register a, b or None, result
    register, the operand it may overwrite or None, the operands the
    unchecked run tests first, its name in _OPS).  It may overwrite only
    an operand computed from x in the same run: never x, never a
    constant-only value.  Only masking ops test operands, and never a
    finite literal."""
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
        _, fn, _, masking, _ = _OPS[op]
        a = emit(args[0])
        b = emit(args[1]) if len(args) > 1 else None
        ab = (a,) if b is None else (a, b)
        tmp = a if a and not sort[a] else b if b and not sort[b] else None
        guards = tuple(r for r in ab if sort[r] != 1) if masking else ()
        init.append(None)
        sort.append(0 if sort[a] == 0 or b is not None and sort[b] == 0 else 2)
        code.append((fn, a, b, len(init), tmp, guards, op))
        return len(init)

    emit(e)
    del emit  # it refers to itself: a cycle would wait for the collector
    return tuple(init), tuple(code)


def _fail(kind: str, x: np.ndarray, r, vals) -> EvalError:
    """The EvalError of the op that made r from vals, at r's first
    non-finite point (the first point, if r is a constant)."""
    i = 0 if np.ndim(r) == 0 else int(np.flatnonzero(~np.isfinite(r))[0])
    xi = float(x.flat[i]) if x.size else math.nan
    if kind == "pow_domain":
        # the kind the float path gives this power at that point
        a, b = (float(v if np.ndim(v) == 0 else v.flat[i]) for v in vals)
        try:
            Bin("^", Num(a), Num(b)).compiled(xi)
        except EvalError as err:
            kind = err.kind
    return EvalError(kind, xi)


def _run(prog, x: np.ndarray, strict: bool, out=None):
    """The root's value over the points x.  Strict, every op but neg is
    tested and the first non-finite result raises its EvalError.
    Unchecked, only each op's guards are tested, a failed test raises
    _Recheck, and each op writes into the operand it may overwrite, the
    root's op into out if given; x must then be a non-empty float64 array
    of at least one dimension."""
    init, code = prog
    regs = [x, *init]
    root = len(init) if out is not None else -1  # the root op's register
    for fn, a, b, dst, tmp, guards, op in code:
        va = regs[a]
        vb = None if b is None else regs[b]
        if strict:
            r = fn(va) if b is None else fn(va, vb)
            kind = _OPS[op][2]
            if kind is not None and not np.isfinite(r).all():
                raise _fail(kind, x, r, (va, vb))
        else:
            for g in guards:
                if not _finite(regs[g]):
                    raise _Recheck
            o = out if dst == root else None if tmp is None else regs[tmp]
            r = fn(va, out=o) if b is None else fn(va, vb, out=o)
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
        return _eval_array(e.program, x)
    return e.compiled(float(x))


def _eval_array(prog, x: np.ndarray) -> np.ndarray:
    """The values of the program prog over the array x, as eval_expr."""
    r = _eval_points(prog, x)
    if r.ndim == 0:
        return np.full_like(x, float(r), dtype=np.float64)
    return np.asarray(r, dtype=np.float64)


# Ufuncs whose result is exact or correctly rounded on every loop numpy
# may pick.  The others may round differently when a constant operand is a
# column rather than a scalar: power takes its fast paths only for a
# scalar exponent, and the transcendentals may switch between SIMD and
# libm loops.
_EXACT = frozenset((np.negative, np.add, np.subtract, np.multiply,
                    np.true_divide, np.sqrt, np.abs, np.floor))


def _pinned(prog) -> tuple[int, ...]:
    """The pinned constants of a program, in register order: the
    constants that an inexact op reads, directly or through ops on
    constants alone."""
    init, code = prog
    from_x = {0}
    for _, a, b, dst, _, _, _ in code:
        if a in from_x or b in from_x:
            from_x.add(dst)
    pinned = set()
    for fn, a, b, dst, _, _, _ in reversed(code):  # each reader before its operands
        if fn not in _EXACT or dst in pinned:
            pinned.update(r for r in (a, b) if r is not None and r not in from_x)
    return tuple(sorted(r for r in pinned if init[r - 1] is not None))


# A float's bytes: its bits, so that 0.0 and -0.0 differ.
_BITS = struct.Struct("d").pack


def _shape(prog) -> tuple:
    """(ops, registers, pinned constants, their bits): the programs that
    may run together in a Rows plan are those of one shape."""
    init, code = prog
    pinned = _pinned(prog)
    return code, len(init), pinned, tuple(_BITS(init[r - 1]) for r in pinned)


def _column_registers(init, pinned) -> tuple[int, ...]:
    """The registers of a program's constants that may be columns: those
    that are not pinned."""
    return tuple(r for r, v in enumerate(init) if v is not None and r + 1 not in pinned)


@functools.lru_cache(maxsize=_FACTORIES)
def _proof(code) -> tuple | None:
    """The tests (see _monotone) under which the root of a program of the
    ops code is monotone in x, or None if the rule cannot tell.  Its
    literals are taken to be finite: a literal that is not makes a
    register it reaches non-finite, as only a masking op can make a
    non-finite operand finite, and a masking op reads a non-finite literal
    in an op of another code (its guards hold it)."""
    if not code:
        return ()  # x or a constant
    dsts = {dst for _, _, _, dst, _, _, _ in code}
    root = code[-1][3]
    mono, tests = _monotone(([None if r in dsts else 0.0 for r in range(1, root + 1)], code))
    return tests[root] if mono[root] else None


class Rows:
    """The plan that evaluates rows of expressions, each over its own
    points (__call__), made once and run on any rows of it, from the
    expressions' programs alone.

    It is made of blocks, each the expressions of one shape (Expr.shape)
    as one program and a column per constant: (shape, init, code, regs,
    consts), where init and code are a program of that shape, regs the
    registers of its constants that are not pinned (see
    _column_registers), and consts a 2-D array with a row per expression,
    the values of those registers.  The expressions are numbered in block
    order, and row i of the plan is expression which[i] (all of them in
    order if which is None).  rows_of makes the blocks of a list of ASTs,
    Parsed.plan those of parsed texts without their ASTs.

    The blocks of one shape make a group, numbered in the order met:
    group[i] is row i's number.  A run lays its rows out in group order,
    so that each group it holds is a contiguous slice of them, which the
    group's program evaluates in one run, writing the values in place:
    rows given in group order are their own layout, and others are sorted
    into it once per run.  A group keeps its ops and its registers, each
    pinned constant the scalar its rows share; if it holds more than one
    expression, each other constant is a column of consts, which has a
    row per row and is picked for a run's rows at once.  A plan of one
    program without columns returns its run's values as they are.

    proofs holds per group the tests under which its program is monotone
    in x (_proof), or None, made on first use (provable, monotone)."""

    __slots__ = ("blocks", "which", "group", "groups", "consts", "numbers", "proofs")

    def __init__(self, blocks: list, which=None):
        self.blocks = blocks
        numbers: dict = {}  # shape -> group; a shape object is hashed once
        known: dict = {}  # id(shape) -> group
        members: list = []  # per group, its blocks
        number = []  # per block, its group
        for block in blocks:
            shape = block[0]
            k = known.get(id(shape))
            if k is None:
                k = known[id(shape)] = numbers.setdefault(shape, len(numbers))
                if k == len(members):
                    members.append([])
            members[k].append(block)
            number.append(k)
        sizes = [len(block[4]) for block in blocks]
        self.which = np.arange(sum(sizes)) if which is None else which
        self.groups, width = [], 0
        for bs in members:
            _, init, code, regs, consts = bs[0]
            if len(bs) == 1 and len(consts) == 1:  # one expression, its constants scalars
                init = list(init)
                for j, r in enumerate(regs):
                    init[r] = consts[0, j]
                regs = ()
            self.groups.append((init, code, regs))
            width = max(width, len(regs))
        self.numbers = self.consts = self.proofs = None
        if len(members) <= 1 and not width:  # one program, its constants scalars
            self.group = np.zeros(len(self.which), np.intp)
            return
        self.group = np.repeat(np.array(number, np.intp), sizes)[self.which]
        if len(members) > 1:
            # searched for in a run's sorted group numbers, these give the
            # first row of each group and the end
            self.numbers = np.arange(len(members) + 1)
        if width:  # per expression its columns' constants, padded
            consts = np.zeros((sum(sizes), width))
            start = 0
            for block, k, size in zip(blocks, number, sizes):
                if self.groups[k][2]:
                    consts[start:start + size, :len(block[3])] = block[4]
                start += size
            self.consts = consts[self.which]

    def join(self, other: "Rows") -> "Rows":
        """The plan of this plan's rows and then other's."""
        return _joined(self.blocks, self.which, other)

    def program(self, row: int):
        """The program of a row (the program of its expression)."""
        init, code, regs = self.groups[self.group[row]]
        if regs:
            init = list(init)
            for j, r in enumerate(regs):
                init[r] = self.consts[row, j]
        return init, code

    def _proofs(self) -> list:
        if self.proofs is None:
            self.proofs = [_proof(code) for _, code, _ in self.groups]
        return self.proofs

    def provable(self, rows) -> np.ndarray | None:
        """Per row of rows, whether the monotonicity rule (_monotone)
        covers its program, which monotone then tests; None, with no
        array made, if it covers no program of the plan."""
        known = [proof is not None for proof in self._proofs()]
        return np.array(known, bool)[self.group[rows]] if any(known) else None

    @np.errstate(all="ignore")
    def monotone(self, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """(values, proved) for row rows[i] at the two points x[i, 0] <=
        x[i, 1] of an (n, 2) float64 array: its values there, the bits
        that __call__ gives, and whether it is proved monotone between
        them, so that its value at any point between lies between those
        two.  A row is proved when the rule covers its program (provable),
        its values are finite and every test of the rule passes at both
        points; the values of a row whose group the rule does not cover
        are NaN.  Each group's program runs once over its rows, keeping
        every register.  A non-finite op result reaches the root or an
        operand that a masking op tests (its guards), as in the unchecked
        run, so those are tested, through their sum: finite values whose
        sum overflows are not proved."""
        values, proved = np.full(x.shape, math.nan), np.zeros(len(rows), bool)
        x, rows, order, parts = self._layout(x, rows)
        branches = []  # the rows and arguments of the branch tests, made at once
        for (init, code, _), a, b, tests in zip(*parts, self._proofs()):
            if a == b or tests is None:
                continue
            v = [x[a:b], *init]
            total = 0.0
            for fn, i, j, dst, _, guards, _ in code:
                v[dst] = fn(v[i]) if j is None else fn(v[i], v[j])
                for g in guards:
                    total = total + v[g]
            ok = np.isfinite(total + v[-1])
            ok = ok.all(axis=-1) if ok.ndim else np.full(b - a, ok)
            for r, kind in tests:
                if kind == "sign":
                    ok &= v[r][:, 0] * v[r][:, 1] > 0.0
                elif kind != "finite":  # an op result, tested above
                    branches.append((np.arange(a, b), v[r], np.full(b - a, _PHASE[kind])))
            values[a:b], proved[a:b] = v[-1], ok
        if branches:
            at, u, phase = (np.concatenate(part) for part in zip(*branches))
            proved[at[~_in_branch(u[:, 0], u[:, 1], phase)]] = False
        if order is not None:  # back to the caller's order
            values[order], proved[order] = values.copy(), proved.copy()
        return values, proved

    def _layout(self, x: np.ndarray, rows):
        """(x, rows, order, parts): the points x of the rows rows (every
        row if None) laid out in group order, so that each group's rows
        are a slice [a, b) of them, with the order that sorted them (None
        if they were in group order), and parts, the groups' programs,
        each constant of regs a column of its rows' values, and the start
        and end a and b of each."""
        order = None
        if len(self.groups) == 1:
            cuts = [0, len(x)]
        else:
            group = self.group if rows is None else self.group[rows]
            if (group[1:] < group[:-1]).any():
                order = np.argsort(group, kind="stable")
                group, x = group[order], x[order]
                rows = order if rows is None else rows[order]
            cuts = group.searchsorted(self.numbers).tolist()
        consts = self.consts if rows is None or self.consts is None else self.consts[rows]
        programs = []
        for (init, code, regs), a, b in zip(self.groups, cuts, cuts[1:]):
            if regs and a < b:
                init = list(init)
                for j, r in enumerate(regs):
                    init[r] = consts[a:b, j:j + 1]
            programs.append((init, code, regs))
        return x, rows, order, (programs, cuts, cuts[1:])

    @np.errstate(all="ignore")
    def __call__(self, x: np.ndarray, rows=None):
        """Evaluate row rows[i] over the points x[i] of a 2-D float64
        array, or row i if rows is None: (values, errors), where values[i]
        is eval_expr of the row's expression over x[i] bit for bit and
        errors maps each row on which eval_expr raises to its EvalError; a
        failing row's values are NaN.

        The rows of one shape run as one unchecked run: each pinned
        constant stays the scalar the rows share, and each other constant
        register is a column with one entry per row.  If any test of that
        run trips, each of its rows falls back to the evaluation of its
        own program, in row order, so error kinds and points are those of
        eval_expr."""
        errors: dict = {}
        if not len(self.group) or rows is not None and not len(rows):
            return np.empty(x.shape), errors
        if len(self.groups) == 1 and self.consts is None and x.size:
            try:  # one program: its run, if it passes
                r = _run(self.groups[0][:2], x, False)
                if r is not x and r.shape == x.shape and _finite(r):
                    return r, errors
            except _Recheck:
                pass
        x, rows, order, parts = self._layout(x, rows)
        values = np.empty(x.shape)
        ran, failed = [], []  # the groups' slices whose runs passed their tests, or not
        for (init, code, _), a, b in zip(*parts):
            if a == b:
                continue
            out = values[a:b]
            if not x.size:
                failed.append((a, b))
                continue
            try:
                r = _run((init, code), x[a:b], False, out)
            except _Recheck:
                failed.append((a, b))
                continue
            if r is not out:  # x itself, or a constant
                out[...] = r
            ran.append((a, b))
        # one test of all values, and of each group's only if it fails
        if failed or not _finite(values):
            failed += [(a, b) for a, b in ran if not _finite(values[a:b])]
        for a, b in sorted(failed):
            for j in range(a, b):
                try:
                    values[j] = _eval_array(self.program(j if rows is None else rows[j]), x[j])
                except EvalError as err:
                    values[j] = math.nan
                    # without its traceback, whose frames (this one among
                    # them) would keep the caller's arrays alive until the
                    # next garbage collection
                    errors[j] = err.with_traceback(None)
        if order is not None:  # back to the caller's order
            values[order] = values.copy()
            errors = {int(order[j]): err for j, err in errors.items()}
        return values, errors


def _joined(blocks: list, which, then: Rows) -> Rows:
    """The Rows of the rows which of blocks and then of then's rows."""
    count = sum(len(block[4]) for block in blocks)
    return Rows([*blocks, *then.blocks], np.concatenate((which, then.which + count)))


def rows_of(exprs) -> Rows:
    """The plan (Rows) of the expressions exprs, a row each: a block per
    shape of their programs, an expression met again found by its
    identity."""
    ids = list(map(id, exprs))
    distinct = dict(zip(ids, exprs))  # by id, in the order met
    blocks: dict = {}  # id(shape) -> block, its constants a list of rows
    items = []  # per distinct expression, its block and its place there
    for e in distinct.values():
        shape, (init, code) = e.shape, e.program
        block = blocks.get(id(shape))
        if block is None:
            block = blocks[id(shape)] = [shape, init, code,
                                         _column_registers(init, shape[2]), []]
        items.append((block, len(block[4])))
        block[4].append([init[r] for r in block[3]])
    start = 0
    for block in blocks.values():
        block.append(start)
        start += len(block[4])
    first = [block[5] + k for block, k in items]
    which = np.fromiter(map(dict(zip(distinct, first)).__getitem__, ids), np.intp, len(ids))
    return Rows([(shape, init, code, regs,
                  np.array(consts, np.float64).reshape(len(consts), len(regs)))
                 for shape, init, code, regs, consts, _ in blocks.values()], which)


class Parsed:
    """Texts parsed per template key (parse_texts), without their ASTs.

    texts are the texts, as a tuple.  The texts of a key with a template
    are the rows of a matrix of their numbers, in text order; a text that
    takes the parser (without a template, or with a number that is not
    finite) has its AST, or its ParseError in errors.  key[i] is text
    i's key, or -1 if it took the parser, and row[i] its row there or its
    place in trees.  tree(i) is text i's AST, which it parses, and
    kernels(i) its compiled functions without it.  blocks are the Rows
    blocks of all the texts that parse, a key's program and matrix or an
    AST's program; item[i] is text i's number there (-1 for a text that
    did not parse, of which there are missing), and plan(indices) the
    Rows of texts."""

    __slots__ = ("texts", "templates", "numbers", "key", "row", "trees", "errors", "blocks",
                 "item", "missing")

    def tree(self, i: int) -> Expr:
        if self.key[i] < 0:
            return self.trees[self.row[i]]
        return _Parser(self.texts[i]).parse()

    def kernels(self, i: int):
        """(Expr.compiled, Expr.block) of text i's AST."""
        k = self.key[i]
        if k < 0:
            e = self.trees[self.row[i]]
            return e.compiled, e.block
        t = self.templates[k]
        init = list(t.init)
        for r, v in zip(t.numbers, self.numbers[k][self.row[i]]):
            init[r] = v
        return _compile((init, t.code), t.source)

    def plan(self, indices, then: Rows | None = None) -> Rows:
        """The Rows of the texts indices, a row each, which must parse,
        and then of the rows of the plan then, if given."""
        if then is None:
            return Rows(self.blocks, self.item[indices])
        return _joined(self.blocks, self.item[indices], then)


def parse_texts(texts) -> Parsed:
    """The texts parsed per template key as parse parses each, without
    their ASTs (see Parsed).  An Expr among them is its own AST; any
    other entry that is not a str is left out (key and item -1)."""
    p = Parsed()
    p.texts = texts = tuple(texts)
    n = len(texts)
    p.templates, p.numbers, p.trees, p.errors, p.blocks = [], [], [], {}, []
    p.key, p.row, item = [-1] * n, [-1] * n, [-1] * n
    split = _NUMBER_RE.split
    keys: dict = {}  # key -> [(text index, its numbers' texts)]
    for i, text in enumerate(texts):
        if type(text) is str:
            parts = split(text)
            keys.setdefault(tuple(parts[::2]), []).append((i, parts[1::2]))
        elif isinstance(text, Expr):
            p.row[i] = len(p.trees)
            p.trees.append(text)
    count = 0  # the texts in blocks
    for key, members in keys.items():
        t = _template(key)
        rows = []  # the numbers of the texts of the template
        for i, numbers in members:
            values = list(map(float, numbers))
            if t is not None and math.isfinite(sum(values)):
                p.key[i], p.row[i] = len(p.templates), len(rows)
                rows.append(values)
                continue
            try:
                p.row[i] = len(p.trees)
                p.trees.append(_Parser(texts[i]).parse())
            except ParseError as err:
                p.row[i] = -1
                p.errors[i] = err
        if rows:
            p.templates.append(t)
            p.numbers.append(np.array(rows, np.float64).reshape(len(rows), len(t.numbers)))
            made, place = _template_blocks(t, rows, p.numbers[-1])
            for i, _ in members:
                if p.key[i] >= 0:
                    item[i] = count + place[p.row[i]]
            count += len(rows)
            p.blocks += made
    if p.trees:
        trees = rows_of(p.trees)
        which = trees.which.tolist()
        for i, j in enumerate(p.row):
            if p.key[i] < 0 and j >= 0:
                item[i] = count + which[j]
        p.blocks += trees.blocks
    p.item, p.missing = np.array(item, np.intp), item.count(-1)
    return p


def _template_blocks(t: _Template, rows: list, numbers: np.ndarray):
    """(the blocks of the texts of the template t whose numbers are rows,
    and as an array numbers, a block per bits of their pinned numbers;
    per text, its place in them)."""
    consts = numbers
    if t.take is not None:  # regs hold some numbers, or named constants
        consts = np.empty((len(rows), len(t.regs)))
        for j, (r, m) in enumerate(zip(t.regs, t.take)):
            consts[:, j] = numbers[:, m] if m >= 0 else t.init[r]
    if not t.pins:
        return [(t.shape, t.init, t.code, t.regs, consts)], range(len(rows))
    bits: dict = {}  # the bits of a text's pinned numbers -> its texts
    for i, row in enumerate(rows):
        bits.setdefault(tuple(_BITS(row[m]) for m in t.pins), []).append(i)
    blocks = []
    for members in bits.values():
        init = list(t.init)
        for m in t.pins:
            init[t.numbers[m]] = numbers[members[0], m]
        blocks.append(((t.code, len(init), t.pinned, tuple(_BITS(init[r - 1]) for r in t.pinned)),
                       tuple(init), t.code, t.regs,
                       consts if len(bits) == 1 else consts[members]))
    if len(bits) == 1:
        return blocks, range(len(rows))
    place = [0] * len(rows)
    for j, i in enumerate(i for members in bits.values() for i in members):
        place[i] = j
    return blocks, place


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
