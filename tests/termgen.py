"""Random term generation and independent value/safety oracles for tests.

The oracles here deliberately re-derive the totalized-rational semantics
directly on the tree, without going through the package's evaluators or
normalizers, so tests can cross-check both against a second route.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fracterm.terms import Add, Div, Mul, Neg, Numeral, Term, Var, postorder


def random_closed_term(
    rng: random.Random, max_depth: int = 6, max_numeral: int = 12
) -> Term:
    """A random closed term of bounded depth, biased toward small trees."""
    if max_depth == 0 or rng.random() < 0.30:
        return Numeral(rng.randint(0, max_numeral))
    roll = rng.random()
    if roll < 0.30:
        return Add(
            random_closed_term(rng, max_depth - 1, max_numeral),
            random_closed_term(rng, max_depth - 1, max_numeral),
        )
    if roll < 0.52:
        return Mul(
            random_closed_term(rng, max_depth - 1, max_numeral),
            random_closed_term(rng, max_depth - 1, max_numeral),
        )
    if roll < 0.70:
        return Neg(random_closed_term(rng, max_depth - 1, max_numeral))
    return Div(
        random_closed_term(rng, max_depth - 1, max_numeral),
        random_closed_term(rng, max_depth - 1, max_numeral),
    )


def random_fracterm(
    rng: random.Random, max_depth: int = 5, max_numeral: int = 12
) -> Div:
    """A random closed term with division at the root."""
    return Div(
        random_closed_term(rng, max_depth, max_numeral),
        random_closed_term(rng, max_depth, max_numeral),
    )


def open_term(rng: random.Random, t: Term, names: str = "xyz") -> Term:
    """``t`` with each numeral, with probability one half, replaced by a variable."""
    vals: list[Term] = []
    for s in postorder(t):
        if isinstance(s, Numeral):
            vals.append(Var(rng.choice(names)) if rng.random() < 0.5 else s)
        elif isinstance(s, Neg):
            vals[-1] = Neg(vals[-1])
        else:
            right = vals.pop()
            vals[-1] = type(s)(vals[-1], right)
    return vals[0]


def zero_valued_term(rng: random.Random, max_numeral: int = 12) -> Term:
    """A closed term that denotes zero, in one of several disguises."""
    k = rng.randint(1, max_numeral)
    shapes = (
        Numeral(0),
        Add(Numeral(k), Neg(Numeral(k))),
        Add(Neg(Numeral(k)), Numeral(k)),
        Mul(Numeral(0), Numeral(k)),
        Div(Numeral(k), Numeral(0)),  # x/0 denotes 0 under totalized division
    )
    return shapes[rng.randrange(len(shapes))]


def random_unsafe_biased_term(
    rng: random.Random, max_depth: int = 6, max_numeral: int = 12
) -> Term:
    """Random term with zero-denominator fractions forced in half the cases."""
    t = random_closed_term(rng, max_depth, max_numeral)
    if rng.random() < 0.5:
        t = Div(t, zero_valued_term(rng, max_numeral))
        if rng.random() < 0.5:
            t = Add(random_closed_term(rng, 2, max_numeral), t)
    return t


def q0_value(t: Term) -> Fraction:
    """Totalized-rational value of a closed term (oracle route)."""
    if isinstance(t, Numeral):
        return Fraction(t.value)
    if isinstance(t, Add):
        return q0_value(t.left) + q0_value(t.right)
    if isinstance(t, Mul):
        return q0_value(t.left) * q0_value(t.right)
    if isinstance(t, Neg):
        return -q0_value(t.arg)
    assert isinstance(t, Div)
    den = q0_value(t.denominator)
    return Fraction(0) if den == 0 else q0_value(t.numerator) / den


def is_safe(t: Term) -> bool:
    """True iff no fraction in ``t`` has a denominator denoting zero (oracle)."""
    if isinstance(t, Div):
        return (
            q0_value(t.denominator) != 0
            and is_safe(t.numerator)
            and is_safe(t.denominator)
        )
    if isinstance(t, (Add, Mul)):
        return is_safe(t.left) and is_safe(t.right)
    if isinstance(t, Neg):
        return is_safe(t.arg)
    return True
