"""Evaluation backends for closed and open terms.

Three carriers interpret the divisive signature totally:

* ``Q0`` -- exact rationals with the inverse totalized by ``1/0 = 0``;
* ``Gfp(p)`` -- the prime field of ``p`` elements, same totalization;
* ``CommonQ`` -- exact rationals plus an absorbing error element ``a``
  produced by any division by zero and propagated through every operation.

``Q0`` and ``Gfp`` are involutive (``1/(1/x) = x``); ``CommonQ`` is not.
Each value carries its ring arithmetic (``a`` absorbs every operation);
each backend supplies numerals, the zero test and its carrier, and ``Q0``
and ``CommonQ`` differ only in the value of ``x/0``.

:func:`evaluate` is the one evaluator of all three.  It computes on
unreduced integer pairs ``(n, d)``, read ``n/d``, and builds one value from
the root's pair: ``x/0`` is ``(0, 1)``, except in ``CommonQ``, where it is
``(0, 0)``; ``a`` is that zero denominator, which every operation keeps.
Its walk, :func:`_pair`, can also collect every fraction whose denominator
has ``n == 0``, that is denotes zero or ``a``: ``classify`` reads the
paper's common and safe classes off that, and ``normalize_safe`` refuses
an unsafe term by them.

Identity checking is sample-driven on the two infinite carriers, one
sample at a time through the same pair loop, and exhaustive on ``Gfp``,
where each term is evaluated once per block of assignments, on plain
lists of residues.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Mapping, TypeAlias

from .errors import DomainError, EvalError
from .syntax import _decimal, _dumps
from .terms import Add, Div, Mul, Neg, Numeral, Term, Var, _Frozen, _Record, free_vars, postorder

__all__ = [
    "Q0",
    "Gfp",
    "CommonQ",
    "Meadow",
    "MeadowValue",
    "Residue",
    "ERROR",
    "Assignment",
    "evaluate",
    "denote",
    "format_value",
    "CheckReport",
    "check_identity",
    "meadow_from_name",
]


class Residue(_Frozen):
    """An element of the prime field GF(p)."""

    __slots__ = _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        _set_value(self, value)
        _set_modulus(self, modulus)

    def __add__(self, other: Residue) -> Residue:
        return Residue((self.value + other.value) % self.modulus, self.modulus)

    def __mul__(self, other: Residue) -> Residue:
        return Residue((self.value * other.value) % self.modulus, self.modulus)

    def __neg__(self) -> Residue:
        return Residue(-self.value % self.modulus, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


_set_value, _set_modulus = Residue.value.__set__, Residue.modulus.__set__


class _ErrorElement:
    """The absorbing error element of a common meadow (printed ``a``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "a"

    # ``Fraction`` defers to these on a foreign operand: ``a`` absorbs both ways.
    def _absorb(self, *_: object) -> _ErrorElement:
        return self

    __add__ = __radd__ = __mul__ = __rmul__ = _absorb
    __truediv__ = __rtruediv__ = __neg__ = _absorb


ERROR = _ErrorElement()

MeadowValue: TypeAlias = Fraction | Residue | _ErrorElement
Assignment: TypeAlias = Mapping[str, MeadowValue]


# Miller-Rabin on the first 13 prime bases decides primality exactly below
# this bound (Sorenson & Webster, 2015); the first 12 are exact only below
# 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_MODULUS = 3317044064679887385961981
# The most assignments an exhaustive identity check enumerates.
_MAX_ASSIGNMENTS = 10**6


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for ``n < _MAX_MODULUS``."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    # n passes base b when b**d = 1 or b**(d * 2**i) = -1 (mod n) for some i < r.
    return all(
        pow(b, d, n) == 1 or any(pow(b, d << i, n) == n - 1 for i in range(r))
        for b in _PRIME_BASES
    )


class _Rationals:
    """Exact rationals whose division by zero returns ``_over_zero``."""

    def contains(self, v: object) -> bool:
        """Whether ``v`` is a value here: a rational, or the value of ``x/0``."""
        if isinstance(v, int):
            return not isinstance(v, bool)
        return isinstance(v, Fraction) or v is self._over_zero

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Q0(_Rationals):
    """Rational numbers with a total inverse (``x/0 = 0``)."""

    name = "q0"
    _over_zero = Fraction(0)


class Gfp:
    """The prime field GF(p) with the inverse totalized by ``0**-1 = 0``.

    ``p`` must be an int prime below ``_MAX_MODULUS`` (about 3.3e24), the range
    in which primality is decided exactly; any other modulus raises ``DomainError``.
    """

    def __init__(self, p: int):
        if type(p) is not int:
            raise DomainError(f"modulus must be an integer, got {p!r}")
        if p >= _MAX_MODULUS:
            raise DomainError(f"modulus {p} is too large: the limit is {_MAX_MODULUS}")
        if not _is_prime(p):
            raise DomainError(f"modulus must be prime, got {p}")
        self.p = p
        self.name = f"gf:{p}"

    def inv(self, x: Residue) -> Residue:
        # 0**0 == 1 in Python, so the zero case needs a guard (matters for p == 2).
        v = pow(x.value, self.p - 2, self.p) if x.value else 0
        return Residue(v, self.p)

    def contains(self, v: object) -> bool:
        """Whether ``v`` is a value here: a reduced residue modulo ``p``."""
        return isinstance(v, Residue) and v.modulus == self.p and 0 <= v.value < self.p

    def __repr__(self) -> str:
        return f"Gfp({self.p})"


class CommonQ(_Rationals):
    """Rationals extended with an error element absorbed by every operation."""

    name = "common"
    _over_zero = ERROR


Meadow: TypeAlias = Q0 | Gfp | CommonQ


def evaluate(t: Term, meadow: Meadow, assignment: Assignment | None = None) -> MeadowValue:
    """Homomorphic evaluation of ``t``; total on every backend.

    The numerator is evaluated before the denominator, so an unbound
    variable is reported left to right.  A bound value outside the backend's
    carrier raises :class:`EvalError`.  The arithmetic runs on integer
    pairs, reduced once at the root: see :func:`_pair`.
    """
    return _evaluate(postorder(t), meadow, _checked(assignment or {}, meadow))


def _checked(env: Assignment, meadow: Meadow) -> Assignment:
    """``env``, once every value it binds is known to lie in ``meadow``.

    Only a rational backend takes a bound ``int``; it reads it as a ``Fraction``,
    so that division stays exact.
    """
    for name, v in env.items():
        if not meadow.contains(v):
            raise EvalError(f"variable {name!r} is bound to {v!r}, not a value of {meadow.name}")
    return {name: Fraction(v) if isinstance(v, int) else v for name, v in env.items()}


def _evaluate(nodes: list[Term], meadow: Meadow, env: Assignment) -> MeadowValue:
    """:func:`evaluate` over a term's :func:`postorder` node list and a checked ``env``.

    Bound values become pairs on entry, the walk is :func:`_pair`, and the
    root's pair becomes one ``Fraction``, ``Residue`` or ``a``: no value is
    built per node.
    """
    pairs = {name: _as_pair(v) for name, v in env.items()}
    n, d = _pair(nodes, meadow, pairs)
    if isinstance(meadow, Gfp):
        return Residue(n * pow(d, -1, meadow.p) % meadow.p, meadow.p)
    return ERROR if d == 0 else Fraction(n, d)


def _as_pair(v: MeadowValue) -> tuple[int, int]:
    if v is ERROR:
        return 0, 0
    if isinstance(v, Residue):
        return v.value, 1
    return v.numerator, v.denominator


def _pair(
    nodes: list[Term],
    meadow: Meadow,
    env: Mapping[str, tuple[int, int]],
    unsafe: list[Div] | None = None,
) -> tuple[int, int]:
    """The value of a node list as an unreduced integer pair ``(n, d)``, read ``n/d``.

    ``+``, ``*`` and ``/`` act on pairs as on fractions, with no ``gcd``, so the
    root's pair is reduced once, by whoever reads it (Knuth, TAOCP 4.5.1).  A
    divisor with ``n == 0`` is zero or ``a``: its quotient is ``(0, 1)``, and
    ``(0, 0)`` in ``CommonQ``.  That zero denominator is ``a``, which every
    operation keeps, since a product with 0 is 0.  In ``GF(p)`` both
    components are reduced modulo ``p`` (a numerator may be negated past it),
    and ``d`` is never zero there.  Given an ``unsafe`` list, each fraction
    over such a divisor is appended to it, inner fractions before the
    fractions that contain them.
    """
    p = meadow.p if isinstance(meadow, Gfp) else 0
    over_zero = (0, 0) if isinstance(meadow, CommonQ) else (0, 1)
    vals: list[tuple[int, int]] = []
    for s in nodes:
        cls = type(s)
        if cls is Numeral:
            vals.append((s.value % p if p else s.value, 1))
        elif cls is Var:
            try:
                vals.append(env[s.name])
            except KeyError:
                raise EvalError(f"unbound variable {s.name!r}") from None
        elif cls is Neg:
            n, d = vals[-1]
            vals[-1] = -n, d
        else:
            n2, d2 = vals.pop()
            n1, d1 = vals[-1]
            if cls is Add:
                n, d = n1 * d2 + n2 * d1, d1 * d2
            elif cls is Mul:
                n, d = n1 * n2, d1 * d2
            elif n2:
                n, d = n1 * d2, d1 * n2
            else:
                if unsafe is not None:
                    unsafe.append(s)
                n, d = over_zero
            vals[-1] = (n % p, d % p) if p else (n, d)
    return vals[0]


def denote(t: Term, meadow: Meadow) -> MeadowValue:
    """The value a closed term denotes; open terms are rejected."""
    try:
        return evaluate(t, meadow)
    except EvalError:
        raise EvalError(f"term is open: free variables {sorted(free_vars(t))}") from None


def format_value(v: MeadowValue) -> str:
    if isinstance(v, Fraction):
        text = _decimal(v.numerator)
        return text if v.denominator == 1 else f"{text}/{_decimal(v.denominator)}"
    return str(v)


class CheckReport(_Record):
    """Outcome of an identity check over one backend."""

    status: str  # 'valid' | 'counterexample'
    assignments_checked: int
    counterexample: dict[str, MeadowValue] | None
    _fields = tuple(__annotations__)

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def to_json_obj(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {k: format_value(v) for k, v in sorted(self.counterexample.items())}
        return {
            "status": self.status,
            "assignments_checked": self.assignments_checked,
            "counterexample": ce,
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_obj())


def check_identity(
    lhs: Term,
    rhs: Term,
    conditions: Iterable[Term],
    meadow: Meadow,
    samples: Iterable[Assignment] | None = None,
) -> CheckReport:
    """Check ``lhs = rhs`` under ``conditions`` (each a term asserted nonzero).

    On ``Gfp`` every assignment to the free variables is enumerated, in
    ``itertools.product`` order; ``assignments_checked`` counts all of them,
    including those the conditions exclude.  More than ``_MAX_ASSIGNMENTS``
    of them raise ``DomainError``.  On the infinite backends a list of sample
    assignments must be supplied.

    Samples are read one at a time and each goes through :func:`_evaluate`;
    the check stops at the first counterexample, so only the samples up to
    it must bind every variable to a value of the backend.  A condition
    excludes an assignment where it equals zero (``a`` is not zero).
    """
    lhs, rhs = postorder(lhs), postorder(rhs)
    conditions = [postorder(c) for c in conditions]
    names = sorted(
        {s.name for nodes in (lhs, rhs, *conditions) for s in nodes if type(s) is Var}
    )
    if isinstance(meadow, Gfp):
        return _check_field(lhs, rhs, conditions, meadow, names)
    if samples is None:
        raise DomainError(f"backend {meadow.name!r} is infinite; supply sample assignments")
    checked = 0
    for env in samples:
        env = _checked(env, meadow)
        for name in names:
            if name not in env:
                raise EvalError(f"unbound variable {name!r}")
        checked += 1
        if _evaluate(lhs, meadow, env) != _evaluate(rhs, meadow, env) and all(
            _evaluate(c, meadow, env) != 0 for c in conditions
        ):
            return CheckReport("counterexample", checked, env)
    return CheckReport("valid", checked, None)


# Exhaustive checks run on blocks of assignments whose sizes grow from
# _FIRST_BLOCK by a factor of 4 up to _MAX_BLOCK, so an early counterexample
# costs little and no list of residues outgrows _MAX_BLOCK.
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096


def _check_field(
    lhs: list[Term], rhs: list[Term], conditions: list[list[Term]], field: Gfp, names: list[str]
) -> CheckReport:
    """:func:`check_identity` over every assignment of ``names`` in ``field``.

    Assignment ``i`` binds the ``j``-th name to digit ``j`` of ``i`` in base
    ``p``, most significant first, which is ``itertools.product`` order.  Each
    side and condition is evaluated once per block, on lists of residues.
    """
    p, k = field.p, len(names)
    total = p**k
    if total > _MAX_ASSIGNMENTS:
        raise DomainError(
            f"exhaustive check over {field.name} needs {p}**{k}"
            f" assignments; the limit is {_MAX_ASSIGNMENTS} assignments"
        )
    weights = [p ** (k - 1 - j) for j in range(k)]
    inverses: dict[int, int] = {}  # the residues divided by so far, not the field
    start, size = 0, _FIRST_BLOCK
    while start < total:
        rows = range(start, min(start + size, total))
        env = {name: [i // w % p for i in rows] for name, w in zip(names, weights)}
        left = _residues(lhs, field, env, len(rows), inverses)
        right = _residues(rhs, field, env, len(rows), inverses)
        if left != right:
            conds = [_residues(c, field, env, len(rows), inverses) for c in conditions]
            for i in itertools.compress(itertools.count(), map(operator.ne, left, right)):
                if all(col[i] for col in conds):  # a zero condition excludes the assignment
                    ce = {name: Residue(col[i], p) for name, col in env.items()}
                    return CheckReport("counterexample", start + i + 1, ce)
        start, size = rows.stop, min(4 * size, _MAX_BLOCK)
    return CheckReport("valid", total, None)


def _residues(
    nodes: list[Term], field: Gfp, env: Mapping[str, list[int]], size: int, inverses: dict[int, int]
) -> list[int]:
    """The residues of a node list under ``size`` assignments, one list per node.

    ``inverses`` memoizes ``field.inv`` for the divisors met so far.
    """
    p = field.p
    vals: list[list[int]] = []
    for s in nodes:
        cls = type(s)
        if cls is Numeral:
            vals.append([s.value % p] * size)
        elif cls is Var:
            vals.append(env[s.name])
        elif cls is Neg:
            vals[-1] = [-a % p for a in vals[-1]]
        else:
            y = vals.pop()
            x = vals[-1]
            if cls is Add:
                vals[-1] = [(a + b) % p for a, b in zip(x, y)]
            elif cls is Mul:
                vals[-1] = [a * b % p for a, b in zip(x, y)]
            else:
                for b in set(y).difference(inverses):
                    inverses[b] = field.inv(Residue(b, p)).value
                vals[-1] = [a * inverses[b] % p for a, b in zip(x, y)]
    return vals[0]


def meadow_from_name(name: str) -> Meadow:
    """Build a backend from ``q0``, ``gf:P``, or ``common``."""
    if name == "q0":
        return Q0()
    if name == "common":
        return CommonQ()
    if name.startswith("gf:"):
        digits = name[3:]
        # int() would also take other Unicode digits, signs, spaces and underscores.
        if digits.isascii() and digits.isdigit():
            try:
                return Gfp(int(digits))
            except ValueError:  # more digits than the interpreter converts
                pass
        raise DomainError(f"bad prime in meadow name {name!r}")
    raise DomainError(f"unknown meadow {name!r} (expected q0, gf:P, or common)")
