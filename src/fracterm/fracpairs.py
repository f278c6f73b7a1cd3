"""Arithmetic on integer pairs with zero denominators permitted.

A fracpair is a plain (numerator, denominator) pair of arbitrary-precision
integers.  Nothing is auto-reduced and the denominator may be zero; only
addition reduces, dividing the textbook cross-product result by the gcd of
the two denominators so the sum lands on their least common multiple.
Additions against a zero denominator discard that operand; the both-zero
case is settled by a :class:`ZeroMode`.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction

from .errors import DomainError, ParseError
from .syntax import _decimal, _natural
from .terms import _Frozen

__all__ = [
    "Fracpair",
    "ZeroMode",
    "int_div",
    "fp_add",
    "fp_neg",
    "fp_mul",
    "fp_div",
    "fp_eq",
    "fp_equiv",
    "fp_value",
    "parse_fracpair",
    "fracpair_to_json_obj",
]


class Fracpair(_Frozen):
    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        _set_num(self, num)
        _set_den(self, den)

    def __str__(self) -> str:
        return f"{_decimal(self.num)}/{_decimal(self.den)}"


_set_num, _set_den = Fracpair.num.__set__, Fracpair.den.__set__


class ZeroMode(Enum):
    """How to add two fracpairs that both have denominator zero."""

    SUM_NUMERATORS = "sum"  # (p + r)/0, keeps the unconditional same-denominator law
    COLLAPSE = "collapse"  # 0/0, forgets both numerators

    @classmethod
    def from_name(cls, name: str) -> "ZeroMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise DomainError(f"unknown zero mode {name!r}")


def int_div(n: int, d: int) -> int:
    """Integer division truncating toward zero, totalized by ``n \\ 0 = 0``."""
    if d == 0:
        return 0
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def fp_add(a: Fracpair, b: Fracpair, mode: ZeroMode = ZeroMode.COLLAPSE) -> Fracpair:
    """Add two fracpairs.

    With both denominators nonzero the cross-product sum is divided by
    ``gcd(|q|, |s|)``, so positive denominators combine to their lcm and
    adding equal denominators returns that same denominator.  A single
    zero-denominator operand is dropped; two are settled by ``mode``.
    """
    if a.den == 0 and b.den == 0:
        if mode is ZeroMode.SUM_NUMERATORS:
            return Fracpair(a.num + b.num, 0)
        return Fracpair(0, 0)
    if a.den == 0:
        return b
    if b.den == 0:
        return a
    g = math.gcd(a.den, b.den)
    return Fracpair(
        int_div(a.num * b.den + a.den * b.num, g),
        int_div(a.den * b.den, g),
    )


def fp_neg(a: Fracpair) -> Fracpair:
    return Fracpair(-a.num, a.den)


def fp_mul(a: Fracpair, b: Fracpair) -> Fracpair:
    return Fracpair(a.num * b.num, a.den * b.den)


def fp_div(a: Fracpair, b: Fracpair) -> Fracpair:
    return Fracpair(a.num * b.den, a.den * b.num)


def fp_eq(a: Fracpair, b: Fracpair) -> bool:
    """Componentwise equality of the two pairs."""
    return a.num == b.num and a.den == b.den


def fp_equiv(a: Fracpair, b: Fracpair) -> bool:
    """Cross-multiplication equivalence (equal values, zero denominators included)."""
    return a.num * b.den == a.den * b.num


def fp_value(a: Fracpair) -> Fraction:
    """The rational a pair denotes when division is totalized (``x/0 = 0``)."""
    if a.den == 0:
        return Fraction(0)
    return Fraction(a.num, a.den)


_PAIR_RE = re.compile(r"^\s*(-?)(\d+)\s*/\s*(-?)(\d+)\s*$", re.ASCII)


def parse_fracpair(text: str) -> Fracpair:
    m = _PAIR_RE.match(text)
    if m is None:
        raise ParseError(f"bad fracpair literal {text!r} (expected p/q)")
    num, den = _natural(m.group(2), m.start(2)), _natural(m.group(4), m.start(4))
    return Fracpair(-num if m.group(1) else num, -den if m.group(3) else den)


def fracpair_to_json_obj(a: Fracpair) -> dict[str, str]:
    return {"num": _decimal(a.num), "den": _decimal(a.den)}
