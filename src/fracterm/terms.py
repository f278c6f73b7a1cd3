"""Term algebra over the divisive meadow signature.

Terms are finite immutable trees built from naturals, variables, addition,
multiplication, unary minus, and division.  There is no inverse constructor;
division is the only non-ring operation.  Numerals are primitive leaves so
that recognizing them is O(1); ``expand_numeral`` recovers the sum-of-units
reading when it is needed.

Every whole-term walk is a loop over :func:`postorder`, one explicit stack,
so no traversal here is bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TypeAlias

from .errors import PositionError

__all__ = [
    "Term",
    "Numeral",
    "Var",
    "Add",
    "Mul",
    "Neg",
    "Div",
    "Position",
    "ZERO",
    "ONE",
    "numeral",
    "signed_numeral",
    "as_signed_numeral",
    "expand_numeral",
    "is_closed",
    "eq_syn",
    "free_vars",
    "children",
    "postorder",
    "node_count",
    "depth",
    "subterms",
    "subterm_at",
    "replace_at",
]


@dataclass(frozen=True, slots=True)
class Numeral:
    """The canonical term for a natural number (the constants 0 and 1 included)."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"numerals denote naturals, got {self.value}")


@dataclass(frozen=True, slots=True)
class Var:
    """A named variable."""

    name: str


@dataclass(frozen=True, slots=True)
class Add:
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Mul:
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Neg:
    arg: Term


@dataclass(frozen=True, slots=True)
class Div:
    numerator: Term
    denominator: Term


Term: TypeAlias = Numeral | Var | Add | Mul | Neg | Div

#: A path of 0-based child indices from the root of a term.
Position: TypeAlias = tuple[int, ...]

ZERO = Numeral(0)
ONE = Numeral(1)


def numeral(k: int) -> Numeral:
    """Return the numeral term for the natural number ``k``."""
    return Numeral(k)


def signed_numeral(v: int) -> Term:
    """Return the canonical term for an integer: ``k`` or ``-(k)``.

    Zero is always ``Numeral(0)``, never wrapped in a minus.
    """
    return Numeral(v) if v >= 0 else Neg(Numeral(-v))


def as_signed_numeral(t: Term) -> int | None:
    """Return the integer a canonical signed numeral denotes, else None."""
    if isinstance(t, Numeral):
        return t.value
    if isinstance(t, Neg) and isinstance(t.arg, Numeral) and t.arg.value > 0:
        return -t.arg.value
    return None


def children(t: Term) -> tuple[Term, ...]:
    """The operands of ``t``, in the order its constructor takes them."""
    if isinstance(t, (Numeral, Var)):
        return ()
    if isinstance(t, Neg):
        return (t.arg,)
    if isinstance(t, Div):
        return (t.numerator, t.denominator)
    return (t.left, t.right)


def postorder(t: Term) -> list[Term]:
    """Each subterm occurrence in ``t``, operands before their operator, left to right."""
    out: list[Term] = []
    stack = [t]
    while stack:
        s = stack.pop()
        out.append(s)
        cls = type(s)
        # Right operand first: reversed, this preorder lists left before right.
        if cls is Add or cls is Mul:
            stack.append(s.left)
            stack.append(s.right)
        elif cls is Div:
            stack.append(s.numerator)
            stack.append(s.denominator)
        elif cls is Neg:
            stack.append(s.arg)
    out.reverse()
    return out


def expand_numeral(t: Term) -> Term:
    """Replace every numeral above 1 by its left-nested sum of units."""
    vals: list[Term] = []
    for s in postorder(t):
        cls = type(s)
        if cls is Numeral and s.value > 1:
            vals.append(reduce(Add, [ONE] * s.value))
        elif cls is Numeral or cls is Var:
            vals.append(s)
        elif cls is Neg:
            vals[-1] = Neg(vals[-1])
        else:
            right = vals.pop()
            vals[-1] = cls(vals[-1], right)
    return vals[0]


def is_closed(t: Term) -> bool:
    """True iff no variable occurs in ``t``."""
    return not free_vars(t)


def free_vars(t: Term) -> set[str]:
    return {s.name for s in postorder(t) if type(s) is Var}


def eq_syn(s: Term, t: Term) -> bool:
    """Syntactic equality: identical trees, no arithmetic identification."""
    pairs = [(s, t)]
    while pairs:
        a, b = pairs.pop()
        if a is not b:
            kids = children(a)
            if type(a) is not type(b) or (not kids and a != b):
                return False
            pairs.extend(zip(kids, children(b)))
    return True


def node_count(t: Term) -> int:
    return len(postorder(t))


def depth(t: Term) -> int:
    vals: list[int] = []
    for s in postorder(t):
        cls = type(s)
        if cls is Numeral or cls is Var:
            vals.append(0)
        elif cls is Neg:
            vals[-1] += 1
        else:
            vals.append(max(vals.pop(), vals.pop()) + 1)
    return vals[0]


def subterms(t: Term) -> list[tuple[Position, Term]]:
    """All (position, subterm) pairs of ``t`` in preorder."""
    out: list[tuple[Position, Term]] = []
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, s = stack.pop()
        out.append((pos, s))
        stack += reversed([(pos + (i,), c) for i, c in enumerate(children(s))])
    return out


def _descend(t: Term, pos: Position) -> tuple[list[tuple[Term, tuple[Term, ...], int]], Term]:
    """The subterm at ``pos``, with each node above it, its operands and the index taken.

    Raises :class:`PositionError` unless ``pos`` is a tuple or list of in-range child indices.
    """
    if not isinstance(pos, (tuple, list)):
        raise PositionError(f"a position is a list of child indices, got {pos!r}")
    spine: list[tuple[Term, tuple[Term, ...], int]] = []
    for i in pos:
        kids = children(t)
        if type(i) is not int or not 0 <= i < len(kids):
            raise PositionError(
                f"position {list(pos)} invalid at step {len(spine)}: "
                f"{type(t).__name__} has {len(kids)} children"
            )
        spine.append((t, kids, i))
        t = kids[i]
    return spine, t


def subterm_at(t: Term, pos: Position) -> Term:
    """Return the subterm addressed by ``pos``."""
    return _descend(t, pos)[1]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """Return a copy of ``t`` with the subterm at ``pos`` replaced by ``new``."""
    for node, kids, i in reversed(_descend(t, pos)[0]):
        new = type(node)(*kids[:i], new, *kids[i + 1 :])
    return new
