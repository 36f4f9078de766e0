"""High-precision evaluator for the bvsum expression language.

The oracles must not run through the code they check, so this module
parses spec expression text on its own and evaluates it with mpmath.
It follows the grammar documented in ``bvsum.expr``: ``^`` is
right-associative and binds tighter than unary minus, number literals
mean their IEEE double value, and the functions are exp, log, sqrt, abs,
sin, cos, atan, floor and pow.
"""

from __future__ import annotations

import re

import mpmath as mp

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^(),]))")

_FUNCS = {
    "exp": mp.exp, "log": mp.log, "sqrt": mp.sqrt, "abs": mp.fabs,
    "sin": mp.sin, "cos": mp.cos, "atan": mp.atan, "floor": mp.floor,
}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    out.append("")
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def take(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.take(tok):
            raise ValueError(f"expected {tok!r} at token {self.i}")

    def expr(self):
        e = self.term()
        while True:
            if self.take("+"):
                e = (lambda a, b: lambda x: a(x) + b(x))(e, self.term())
            elif self.take("-"):
                e = (lambda a, b: lambda x: a(x) - b(x))(e, self.term())
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            if self.take("*"):
                e = (lambda a, b: lambda x: a(x) * b(x))(e, self.unary())
            elif self.take("/"):
                e = (lambda a, b: lambda x: a(x) / b(x))(e, self.unary())
            else:
                return e

    def unary(self):
        if self.take("-"):
            a = self.unary()
            return lambda x: -a(x)
        return self.power()

    def power(self):
        base = self.atom()
        if self.take("^"):
            ex = self.unary()
            return lambda x: mp.power(base(x), ex(x))
        return base

    def atom(self):
        tok = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok[:1].isdigit() or tok[:1] == ".":
            v = mp.mpf(float(tok))
            return lambda x: v
        if tok == "x":
            return lambda x: x
        if tok == "pi":
            return lambda x: +mp.pi
        if tok == "e":
            return lambda x: +mp.e
        if tok == "pow":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return lambda x: mp.power(a(x), b(x))
        if tok in _FUNCS:
            fn = _FUNCS[tok]
            self.expect("(")
            a = self.expr()
            self.expect(")")
            return lambda x: fn(a(x))
        raise ValueError(f"unexpected token {tok!r}")


def compile_text(text: str):
    """Return a function of one mpf argument that evaluates ``text``."""
    p = _Parser(text)
    e = p.expr()
    if p.toks[p.i] != "":
        raise ValueError(f"trailing input in {text!r}")
    return e
