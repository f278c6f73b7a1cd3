"""Concrete grammar, parser, and printer for arithmetical terms.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := natural | mixed | identifier | '(' expr ')'

``*`` and ``/`` bind equally and associate to the left; ``+``/``-`` likewise
one level below.  ``a-b`` is sugar for ``a + (-b)``.  A mixed literal
``n_p/q`` (e.g. ``3_1/2``) denotes ``n + p/q``; a preceding unary minus
negates the whole sum.  Decimal digits are pure surface syntax for numeral
leaves; nothing downstream ever inspects digit strings.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Any

from .errors import DomainError, ParseError
from .terms import Add, Div, Mul, Neg, Numeral, Term, Var

__all__ = [
    "parse",
    "to_text",
    "term_to_json_obj",
    "term_from_json_obj",
    "term_to_json",
    "term_from_json",
]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'nat' | 'mixed' | 'ident' | one of + - * / ( )
    value: Any
    column: int


def _natural(digits: str, column: int | None = None) -> int:
    """The value of a string of ASCII digits, within Python's int/str limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"numeral of {len(digits)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits",
            column,
        ) from None


def _decimal(k: int) -> str:
    """``str(k)``, or a :class:`DomainError` past Python's int/str limit."""
    try:
        return str(k)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"integer exceeds the limit of {limit} digits for output") from None


def _tokenize(src: str) -> list[_Token]:
    if not src.isascii():
        raise ParseError("only ASCII input is supported")
    tokens: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit():
            while i < n and src[i].isdigit():
                i += 1
            first = _natural(src[start:i], start)
            if i < n and src[i] == "_":
                # mixed literal: digits '_' digits '/' digits, no spaces
                j = i + 1
                p0 = j
                while j < n and src[j].isdigit():
                    j += 1
                if j == p0 or j >= n or src[j] != "/":
                    raise ParseError("malformed mixed literal", start)
                j += 1
                q0 = j
                while j < n and src[j].isdigit():
                    j += 1
                if j == q0:
                    raise ParseError("malformed mixed literal", start)
                num, den = _natural(src[p0 : q0 - 1], p0), _natural(src[q0:j], q0)
                tokens.append(_Token("mixed", (first, num, den), start))
                i = j
            elif i < n and src[i] == ".":
                raise ParseError("decimal fractions are not supported", i)
            else:
                tokens.append(_Token("nat", first, start))
        elif c.isalpha():
            while i < n and src[i].isalnum():
                i += 1
            tokens.append(_Token("ident", src[start:i], start))
        elif c in "+-*/()":
            tokens.append(_Token(c, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            col = tok.column if tok else None
            found = repr(tok.value) if tok else "end of input"
            raise ParseError(f"expected {kind!r}, found {found}", col)
        return self.next()

    def expr(self) -> Term:
        t = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.next()
            rhs = self.term()
            t = Add(t, rhs if tok.kind == "+" else Neg(rhs))
        return t

    def term(self) -> Term:
        t = self.factor()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.next()
            rhs = self.factor()
            t = Mul(t, rhs) if tok.kind == "*" else Div(t, rhs)
        return t

    def factor(self) -> Term:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            return Neg(self.factor())
        return self.atom()

    def atom(self) -> Term:
        tok = self.next()
        if tok.kind == "nat":
            return Numeral(tok.value)
        if tok.kind == "mixed":
            whole, num, den = tok.value
            return Add(Numeral(whole), Div(Numeral(num), Numeral(den)))
        if tok.kind == "ident":
            return Var(tok.value)
        if tok.kind == "(":
            t = self.expr()
            self.expect(")")
            return t
        raise ParseError(f"unexpected token {tok.value!r}", tok.column)


def parse(src: str) -> Term:
    """Parse source text into a term; raise :class:`ParseError` with a column."""
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty input")
    parser = _Parser(tokens)
    t = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing token {trailing.value!r}", trailing.column
        )
    return t


def to_text(t: Term) -> str:
    """Fully parenthesized infix text; ``parse(to_text(t))`` gives ``t`` back."""
    if isinstance(t, Numeral):
        return _decimal(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        return f"({to_text(t.left)}+{to_text(t.right)})"
    if isinstance(t, Mul):
        return f"({to_text(t.left)}*{to_text(t.right)})"
    if isinstance(t, Neg):
        return f"(-{to_text(t.arg)})"
    return f"({to_text(t.numerator)}/{to_text(t.denominator)})"


_OPS = {"add": Add, "mul": Mul, "neg": Neg, "div": Div}
# The text grammar's numerals and identifiers.
_NATURAL = re.compile(r"[0-9]+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def term_to_json_obj(t: Term) -> dict[str, Any]:
    """Tree encoding for machine consumers; numerals as decimal strings."""
    if isinstance(t, Numeral):
        return {"num": _decimal(t.value)}
    if isinstance(t, Var):
        return {"var": t.name}
    if isinstance(t, Neg):
        return {"op": "neg", "args": [term_to_json_obj(t.arg)]}
    if isinstance(t, Add):
        op = "add"
    elif isinstance(t, Mul):
        op = "mul"
    else:
        op = "div"
    a, b = (
        (t.left, t.right) if not isinstance(t, Div) else (t.numerator, t.denominator)
    )
    return {"op": op, "args": [term_to_json_obj(a), term_to_json_obj(b)]}


def term_from_json_obj(obj: Any) -> Term:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    if "num" in obj:
        text = obj["num"]
        if not (isinstance(text, str) and _NATURAL.fullmatch(text)):
            raise ParseError(f"bad numeral encoding {text!r}")
        return Numeral(_natural(text))
    if "var" in obj:
        name = obj["var"]
        if not (isinstance(name, str) and _IDENT.fullmatch(name)):
            raise ParseError(f"bad variable encoding {name!r}")
        return Var(name)
    op = obj.get("op")
    args = obj.get("args")
    if op not in _OPS or not isinstance(args, list):
        raise ParseError(f"bad term encoding {obj!r}")
    arity = 1 if op == "neg" else 2
    if len(args) != arity:
        raise ParseError(f"operator {op!r} takes {arity} argument(s)")
    parts = [term_from_json_obj(a) for a in args]
    return _OPS[op](*parts)


def term_to_json(t: Term) -> str:
    return json.dumps(term_to_json_obj(t))


def term_from_json(text: str) -> Term:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return term_from_json_obj(obj)
