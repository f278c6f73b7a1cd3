"""Fraction-class predicates and the three-way equality hierarchy.

A term is a fraction exactly when division is its leading symbol.  Most
classes below are relative to a backend ``A``: a fraction is *common* when
its denominator denotes nonzero in ``A``, *safe* when no subterm is an
uncommon fraction, *simple* when both components are numerals and the
fraction is common, and so on.  :func:`classify` walks a term once per
backend, and keeps what it found in the term's memo (:func:`_facts`): the
closed and flat flags come from its :func:`postorder` list, and on a closed
term that list is evaluated in ``A``, collecting the fractions whose
denominators denote zero (or ``a``).  The term is common when its root is not
among them and safe when none was.  Backend-relative flags are ``None``
(indeterminate) for open terms rather than quantifying over assignments.

The three equalities compare ever less syntax: identical trees (``eq_syn``),
equal (numerator value, denominator value) pairs (``eq_pair``), and equal
denoted values (``eq_val``).  Each implies the next.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .meadows import Gfp, Meadow, MeadowValue, Residue, _pair, denote
from .syntax import to_text
from .terms import Div, Mul, Neg, Numeral, ONE, Term, Var, _Record, _memo_of, eq_syn, postorder

__all__ = [
    "Classification",
    "classify",
    "simple_equivalent",
    "eq_pair",
    "eq_val",
]


class Classification(_Record):
    """All class predicates of one term relative to one backend.

    Backend-relative flags are ``None`` when the term is open and the flag
    cannot be decided.  ``numerator``/``denominator`` are present exactly
    when the term is a fraction.  ``sign`` is -1 when a simple fraction
    carries its minus on the numerator (``(-k)/l``), else 1.
    """

    is_fraction: bool
    is_closed: bool
    is_flat: bool
    is_composed: bool
    is_common: bool | None
    is_uncommon: bool | None
    is_safe_term: bool | None
    is_safe_fraction: bool | None
    is_simple: bool | None
    is_unit: bool | None
    is_simplified: bool | None
    is_proper: bool | None
    is_improper: bool | None
    is_scheinbruch: bool | None
    sign: int
    numerator: Term | None
    denominator: Term | None
    _fields = tuple(__annotations__)

    def to_json_obj(self) -> dict:
        out = dict(zip(self._fields, self._values()))
        for key in ("numerator", "denominator"):
            if out[key] is not None:
                out[key] = to_text(out[key])
        return out


def _signed_parts(t: Term) -> tuple[int, int] | None:
    """(sign, k) for a numeral or minus-wrapped numeral, else None."""
    if isinstance(t, Numeral):
        return (1, t.value)
    if isinstance(t, Neg) and isinstance(t.arg, Numeral):
        return (-1, t.arg.value)
    return None


def _facts(t: Term, meadow: Meadow) -> tuple[frozenset[type], frozenset[int] | None]:
    """Classes below ``t``'s root; ids of its fractions over zero in ``meadow``, None if open."""
    memo = _memo_of(t)
    facts = memo.get(meadow.name)
    if facts is None:
        nodes = postorder(t)
        below = frozenset(map(type, nodes[:-1]))  # the root comes last
        unsafe: list[Div] = []
        closed = Var not in below and type(t) is not Var
        if closed:
            _pair(nodes, meadow, {}, unsafe)
        facts = memo[meadow.name] = below, frozenset(map(id, unsafe)) if closed else None
    return facts


def classify(t: Term, meadow: Meadow) -> Classification:
    """Compute every class flag of ``t`` relative to ``meadow``."""
    fraction = isinstance(t, Div)
    num = t.numerator if fraction else None
    den = t.denominator if fraction else None
    below, unsafe = _facts(t, meadow)
    closed = unsafe is not None

    flat = fraction and Div not in below
    composed = fraction and not flat

    common: bool | None
    safe_term: bool | None
    if closed:
        common = fraction and id(t) not in unsafe
        safe_term = not unsafe
        uncommon = fraction and not common
        safe_fraction = common and safe_term
    else:
        common = uncommon = safe_fraction = None if fraction else False
        safe_term = None

    # Simple-fraction family.  Components must be (possibly minus-wrapped)
    # numerals, which forces the term closed, so these stay decidable; the
    # order predicates use the unsigned numerator with the sign recorded.
    sign = 1
    simple: bool | None = False
    simplified: bool | None = False
    proper: bool | None = False
    improper: bool | None = False
    scheinbruch: bool | None = False
    if fraction:
        num_parts = _signed_parts(num)
        if num_parts is not None and isinstance(den, Numeral):
            sign, k = num_parts
            l = den.value
            simple = common
            if simple:
                simplified = math.gcd(k, l) == 1
                proper = k < l
                improper = k >= l
                scheinbruch = k % l == 0

    unit: bool | None = fraction and eq_syn(num, ONE)
    if unit:
        unit = common  # may be None for an open denominator

    return Classification(
        is_fraction=fraction,
        is_closed=closed,
        is_flat=flat,
        is_composed=composed,
        is_common=common,
        is_uncommon=uncommon,
        is_safe_term=safe_term,
        is_safe_fraction=safe_fraction,
        is_simple=simple,
        is_unit=unit,
        is_simplified=simplified,
        is_proper=proper,
        is_improper=improper,
        is_scheinbruch=scheinbruch,
        sign=sign,
        numerator=num,
        denominator=den,
    )


def simple_equivalent(f: Term, g: Term, meadow: Meadow) -> bool:
    """Cross-multiplication equivalence of two simple fractions in ``meadow``."""
    for name, t in (("first", f), ("second", g)):
        if not classify(t, meadow).is_simple:
            raise DomainError(f"{name} argument is not a simple fraction: {to_text(t)}")
    assert isinstance(f, Div) and isinstance(g, Div)
    return denote(Mul(f.numerator, g.denominator), meadow) == denote(
        Mul(f.denominator, g.numerator), meadow
    )


def _as_value_pair(t: Term, meadow: Meadow) -> tuple[MeadowValue, MeadowValue]:
    # A non-fraction contributes (value, 1) via the identity x = x/1.
    if isinstance(t, Div):
        return (denote(t.numerator, meadow), denote(t.denominator, meadow))
    return (denote(t, meadow), Residue(1, meadow.p) if isinstance(meadow, Gfp) else Fraction(1))


def eq_pair(p: Term, q: Term, meadow: Meadow) -> bool:
    """Componentwise equality of the (numerator, denominator) value pairs."""
    return _as_value_pair(p, meadow) == _as_value_pair(q, meadow)


def eq_val(p: Term, q: Term, meadow: Meadow) -> bool:
    """Equality of denoted values."""
    return denote(p, meadow) == denote(q, meadow)
