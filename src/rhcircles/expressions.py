"""Tiny closed-form expression language for jump entries.

Problem files carry jump matrices as strings so that the same formula can
be re-evaluated at reflected points 1/conj(z) when checking inversion
symmetry.  The grammar, in EBNF:

    expr   = term , { ( "+" | "-" ) , term } ;
    term   = unary , { ( "*" | "/" ) , unary } ;
    unary  = { "+" | "-" } , power ;
    power  = atom , [ ( "^" | "**" ) , unary ] ;
    atom   = NUMBER | "i" | "pi" | "e" | "z"
           | name , "(" , expr , ")"
           | "(" , expr , ")" ;
    NUMBER = ( digits [ "." digits ] | "." digits )
             [ ( "e" | "E" ) [ "+" | "-" ] digits ] [ "i" ] ;

"^" and "**" are synonyms and associate to the right; a trailing "i"
makes a literal imaginary.  Built-in functions are exp and conj; callers
may register extra single-argument names (the reflection coefficient r,
for instance).  Evaluation is numpy complex128 arithmetic on a point or on
an array of points, and a non-finite value (a division by zero, an
overflow) raises EvalError.  An expression nested deeper than Python's
recursion limit raises ParseError, or EvalError where only its evaluation
goes that deep (a long chain of sums or products).
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Mapping

import numpy as np

from .errors import EvalError, ParseError

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# complex128 constants keep even a constant subexpression such as 1/0 in
# numpy arithmetic, where it turns non-finite instead of raising
_CONSTANTS = {
    "i": np.complex128(1j),
    "pi": np.complex128(math.pi),
    "e": np.complex128(math.e),
}

_SUMS = {"+": operator.add, "-": operator.sub}
_PRODUCTS = {"*": operator.mul, "/": operator.truediv}

_BUILTIN_FUNCTIONS: dict[str, Callable] = {
    "exp": np.exp,
    "conj": np.conj,
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m is not None:
            tokens.append(("number", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m is not None:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if text.startswith("**", pos):
            tokens.append(("op", "**", pos))
            pos += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_number(text: str) -> np.complex128:
    if text.endswith("i"):
        return np.complex128(complex(0.0, float(text[:-1])))
    return np.complex128(float(text))


class _Parser:
    """Recursive descent over the token list; nodes are closures in z."""

    def __init__(self, tokens: list, functions: Mapping[str, Callable]):
        self.tokens = tokens
        self.index = 0
        self.functions = functions

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.advance()
            return value
        return None

    def parse(self) -> Callable:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {value!r}", pos)
        return node

    def left_associative(self, ops: Mapping[str, Callable], operand) -> Callable:
        node = operand()
        while True:
            op = self.accept_op(*ops)
            if op is None:
                return node
            node = (lambda f, a, b: lambda z: f(a(z), b(z)))(ops[op], node, operand())

    def expr(self) -> Callable:
        return self.left_associative(_SUMS, self.term)

    def term(self) -> Callable:
        return self.left_associative(_PRODUCTS, self.unary)

    def unary(self) -> Callable:
        negate = False
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            if op == "-":
                negate = not negate
        node = self.power()
        if negate:
            return (lambda a: lambda z: -a(z))(node)
        return node

    def power(self) -> Callable:
        base = self.atom()
        if self.accept_op("^", "**") is None:
            return base
        exponent = self.unary()
        return (lambda a, b: lambda z: a(z) ** b(z))(base, exponent)

    def atom(self) -> Callable:
        kind, value, pos = self.advance()
        if kind == "number":
            return (lambda c: lambda z: c)(_parse_number(value))
        if kind == "name":
            if self.accept_op("(") is not None:
                fn = self.functions.get(value)
                if fn is None:
                    raise ParseError(f"unknown function {value!r}", pos)
                argument = self.expr()
                self.expect_close(pos)
                return (lambda f, a: lambda z: f(a(z)))(fn, argument)
            if value == "z":
                return lambda z: z
            if value in _CONSTANTS:
                return (lambda c: lambda z: c)(_CONSTANTS[value])
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_close(pos)
            return node
        raise ParseError(f"expected a value, got {value!r}", pos)

    def expect_close(self, open_pos: int) -> None:
        if self.accept_op(")") is None:
            kind, value, pos = self.peek()
            raise ParseError(
                f"unclosed parenthesis opened at {open_pos}"
                f" (found {value!r})",
                pos,
            )


def parse_expression(
    text: str,
    functions: Mapping[str, Callable] | None = None,
) -> Callable:
    """Compile an expression in z into a deterministic complex evaluator.

    functions maps extra single-argument names (beyond exp and conj) to
    callables that take arrays, e.g. {"r": reflection}.  The evaluator
    takes a point, giving a complex number, or an array of points, giving
    an array of that shape.  It raises EvalError when the formula is
    singular or non-finite at some point, and names the first such point.
    """
    table = dict(_BUILTIN_FUNCTIONS)
    if functions:
        table.update(functions)
    parser = _Parser(_tokenize(text), table)
    try:
        node = parser.parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply", parser.peek()[2]) from None

    def evaluator(z):
        z = np.asarray(z, dtype=np.complex128)
        try:
            with np.errstate(all="ignore"):
                value = np.asarray(node(z), dtype=np.complex128)
        except RecursionError:
            raise EvalError(
                f"expression of {len(text)} characters is nested too deeply "
                "to evaluate"
            ) from None
        value = np.broadcast_to(value, z.shape)
        bad = ~np.isfinite(value)
        if np.any(bad):
            point = complex(z.reshape(-1)[np.argmax(bad.reshape(-1))])
            raise EvalError(f"{text!r} is singular or non-finite at z = {point}")
        return complex(value) if z.ndim == 0 else value.copy()

    evaluator.source = text
    return evaluator
