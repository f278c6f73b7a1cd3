"""Term algebra over the divisive meadow signature.

Terms are finite immutable trees built from naturals, variables, addition,
multiplication, unary minus, and division.  There is no inverse constructor;
division is the only non-ring operation.  Numerals are primitive leaves so
that recognizing them is O(1); ``expand_numeral`` recovers the sum-of-units
reading when it is needed.

The six node classes are plain ``__slots__`` classes on one base, whose
setters raise.  Every whole-term walk is a loop over :func:`postorder`, one
explicit stack, or over a stack of its own, as ``==`` and ``repr`` are; so no
traversal here is bounded by the interpreter's recursion limit.  A value built
from its operands' values is one :func:`_fold`, except on the benchmark's hot
paths, whose walks keep their own loops, as :func:`_fold` says.

Positions are addressed here alone: a position is a tuple of child indices,
a link is the same path as a linked list from the subterm up to the root, and
:class:`_Zipper` opens a term at either.  Every reader of a position moves a
zipper, and an index that a term does not have raises :class:`PositionError`.

A node's memo (:func:`_memo_of`) keeps facts its callers computed about it,
as ids, classes and integers: never a node, and no value object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Any, Callable, TypeAlias

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


class _Record:
    """Fields named by ``_fields``, compared, shown and pickled as a dataclass's are.

    Mutable and unhashable.  A subclass without ``__slots__`` takes its fields
    positionally or by name through this ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        given = len(args) + len(kwargs)
        kwargs.update(zip(self._fields, args))
        if given != len(self._fields) or not all(map(kwargs.__contains__, self._fields)):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}, each once")
        self.__dict__ = kwargs

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        """``Add(left=Numeral(value=1), right=Var(name='x'))``, on one explicit stack."""
        out: list[str] = []
        # Pending records and text, rightmost first, and the id of each open record
        # once its text is done; a record inside itself shows as "...".
        stack: list[object] = [self]
        open_ids: set[int] = set()
        while stack:
            s = stack.pop()
            if type(s) is str:
                out.append(s)
                continue
            if type(s) is int:
                open_ids.remove(s)
                continue
            if id(s) in open_ids:
                out.append("...")
                continue
            open_ids.add(id(s))
            out.append(type(s).__name__ + "(")
            stack += (id(s), ")")
            names, values = s._fields, s._values()
            for i in reversed(range(len(names))):
                v = values[i]
                text = v if isinstance(v, _Record) else _leaf_repr(v)
                stack += (text, ", " * bool(i) + names[i] + "=")
        return "".join(out)

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _leaf_repr(v: object) -> str:
    """``repr(v)``, with each int past Python's int/str limit shown by its bit length.

    Such an int may also sit in a ``Fraction``, or in a set, dict, list or
    tuple, which is then shown item by item.
    """
    try:
        return repr(v)
    except ValueError:
        if not isinstance(v, (int, Fraction, dict, list, tuple, set, frozenset)):
            raise
    if isinstance(v, int):
        return f"{'-' * (v < 0)}<int of {v.bit_length()} bits>"
    if isinstance(v, Fraction):
        return f"Fraction({_leaf_repr(v.numerator)}, {_leaf_repr(v.denominator)})"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_leaf_repr(k)}: {_leaf_repr(x)}" for k, x in v.items()) + "}"
    items = ", ".join(map(_leaf_repr, v))
    if isinstance(v, list):
        return f"[{items}]"
    if isinstance(v, tuple):
        return f"({items}{',' * (len(v) == 1)})"
    return f"frozenset({{{items}}})" if isinstance(v, frozenset) else f"{{{items}}}"


class _Frozen(_Record):
    """A :class:`_Record` whose attributes cannot change, so it is hashable."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _Node(_Frozen):
    """The base of the six term classes: immutable, compared and hashed by structure.

    ``==`` is :func:`eq_syn` and ``hash`` one :func:`_fold`, so
    neither is bounded by the recursion limit, and nor are ``repr``, ``pickle``
    and ``copy``.  The slot ``_memo`` is not a field: see :func:`_memo_of`.
    """

    __slots__ = ("_memo",)

    def __reduce__(self) -> tuple:
        """Pickle and copy as one flat :func:`postorder` list: leaf values and operator classes."""
        items: list = []
        for s in postorder(self):
            cls = type(s)
            items.append(s.value if cls is Numeral else s.name if cls is Var else cls)
        return _from_postorder, (items,)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return eq_syn(self, other)

    def __hash__(self) -> int:
        return _fold(self, lambda s: hash((type(s), *s._values())), lambda s, *h: hash((type(s), *h)))


class Numeral(_Node):
    """The canonical term for a natural number (the constants 0 and 1 included)."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"numerals denote naturals, got {value}")
        _set_value(self, value)


class Var(_Node):
    """A named variable."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)


class Add(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set_add_left(self, left)
        _set_add_right(self, right)


class Mul(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set_mul_left(self, left)
        _set_mul_right(self, right)


class Neg(_Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Term) -> None:
        _set_arg(self, arg)


class Div(_Node):
    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: Term, denominator: Term) -> None:
        _set_numerator(self, numerator)
        _set_denominator(self, denominator)


# Each __init__ sets its slots through their member descriptors, past __setattr__.
_set_value, _set_name, _set_arg = Numeral.value.__set__, Var.name.__set__, Neg.arg.__set__
_set_add_left, _set_add_right = Add.left.__set__, Add.right.__set__
_set_mul_left, _set_mul_right = Mul.left.__set__, Mul.right.__set__
_set_numerator, _set_denominator = Div.numerator.__set__, Div.denominator.__set__

Term: TypeAlias = Numeral | Var | Add | Mul | Neg | Div


def _from_postorder(items: list) -> Term:
    """The term that :meth:`_Node.__reduce__` encoded as ``items``, on one explicit stack."""
    vals: list[Term] = []
    for x in items:
        if x is Neg:
            vals[-1] = Neg(vals[-1])
        elif x is Add or x is Mul or x is Div:
            right = vals.pop()
            vals[-1] = x(vals[-1], right)
        elif type(x) is str:
            vals.append(Var(x))
        else:
            vals.append(Numeral(x))
    return vals[0]


def _memo_of(t: Term) -> dict:
    """Facts computed about ``t``, made on first use: ids, classes and integers, never a node,
    which would make ``t`` cyclic garbage.  Not part of ``==``, ``hash``, ``repr`` or pickling."""
    if not hasattr(t, "_memo"):
        _Node._memo.__set__(t, {})
    return t._memo


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
    cls = type(t)
    if cls is Div:
        return (t.numerator, t.denominator)
    if cls is Add or cls is Mul:
        return (t.left, t.right)
    return (t.arg,) if cls is Neg else ()


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


def _fold(t: Term, leaf: Callable[[Term], Any], op: Callable[..., Any]) -> Any:
    """``t``'s value: ``leaf(s)`` at a leaf, ``op(s, *values)`` at an operator, operands in constructor order.

    One :func:`postorder` loop with a value stack, behind ``hash``, :func:`depth`,
    :func:`expand_numeral` and ``syntax.term_to_json_obj``.  ``meadows._pair`` and
    ``_residues``, the engine's ``_record_values`` and ``classify._facts`` keep
    their own loops: they are on the benchmark's hot paths, where a Python call
    per node costs real time.  :func:`_from_postorder` folds a list, not a term.
    """
    vals: list = []
    for s in postorder(t):
        cls = type(s)
        if cls is Numeral or cls is Var:
            vals.append(leaf(s))
        elif cls is Neg:
            vals[-1] = op(s, vals[-1])
        else:
            right = vals.pop()
            vals[-1] = op(s, vals[-1], right)
    return vals[0]


def expand_numeral(t: Term) -> Term:
    """Replace every numeral above 1 by its left-nested sum of units."""
    return _fold(
        t,
        lambda s: reduce(Add, [ONE] * s.value) if type(s) is Numeral and s.value > 1 else s,
        lambda s, *operands: type(s)(*operands),
    )


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
            cls = type(a)
            if cls is not type(b):
                return False
            if cls is Numeral:
                if a.value != b.value:
                    return False
            elif cls is Var:
                if a.name != b.name:
                    return False
            else:
                pairs += zip(children(a), children(b))
    return True


def node_count(t: Term) -> int:
    return len(postorder(t))


def depth(t: Term) -> int:
    return _fold(t, lambda s: 0, lambda s, *depths: max(depths) + 1)


def subterms(t: Term) -> list[tuple[Position, Term]]:
    """All (position, subterm) pairs of ``t`` in preorder."""
    out: list[tuple[Position, Term]] = []
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, s = stack.pop()
        out.append((pos, s))
        stack += reversed([(pos + (i,), c) for i, c in enumerate(children(s))])
    return out


#: A position as a linked list: ``(i, parent link)`` for child ``i``, ``None`` at the root.
_Link = tuple[int, "_Link"] | None


def _path(link: _Link) -> Position:
    """The position ``link`` stands for."""
    pos: list[int] = []
    while link is not None:
        i, link = link
        pos.append(i)
    pos.reverse()
    return tuple(pos)


class _Zipper:
    """A term opened at one subterm, its focus (Huet, *The Zipper*, JFP 7(5), 1997).

    ``path`` holds each node above the focus, root first, with the index of
    the operand the path takes and that operand's link; the operand itself is
    stale, the others are current.  ``depths`` maps the id of each of those
    links to its depth.  So moving to a step's link climbs only to the deepest
    node on the path that the link passes through: consecutive engine steps
    move a few levels, and a walk over a whole derivation is linear in its
    steps and depth.
    """

    __slots__ = ("focus", "path", "depths")

    def __init__(self, t: Term):
        self.focus = t
        self.path: list[tuple[Term, int, _Link]] = []
        self.depths: dict[int, int] = {}

    def move(self, link: _Link) -> int:
        """Focus the subterm at ``link``; return how many nodes of the path stay on it."""
        path, depths, down = self.path, self.depths, []
        while link is not None:
            kept = depths.get(id(link))
            if kept is not None:
                break
            down.append(link)
            link = link[1]
        else:
            kept = 0
        focus = self.focus
        while len(path) > kept:
            node, i, up = path.pop()
            del depths[id(up)]
            focus = _with_operand(node, i, focus)
        for link in reversed(down):
            i, kids = link[0], children(focus)
            if type(i) is not int or not 0 <= i < len(kids):
                raise PositionError(f"no operand {i!r} of {type(focus).__name__}, which has {len(kids)}")
            path.append((focus, i, link))
            depths[id(link)] = len(path)
            focus = kids[i]
        self.focus = focus
        return kept

    def descend(self, pos: Position) -> None:
        """Focus the subterm at ``pos`` below the focus; ``pos`` is a tuple or list."""
        if not isinstance(pos, (tuple, list)):
            raise PositionError(f"a position is a list of child indices, got {pos!r}")
        link = self.path[-1][2] if self.path else None
        for i in pos:
            link = (i, link)
        self.move(link)

    def whole(self) -> Term:
        """The whole term, with the focus plugged in."""
        t = self.focus
        for node, i, _ in reversed(self.path):
            t = _with_operand(node, i, t)
        return t


def _with_operand(node: Term, i: int, new: Term) -> Term:
    """``node`` with its operand ``i`` replaced by ``new``."""
    cls = type(node)
    if cls is Neg:
        return Neg(new)
    if cls is Div:
        return Div(new, node.denominator) if i == 0 else Div(node.numerator, new)
    return cls(new, node.right) if i == 0 else cls(node.left, new)


def subterm_at(t: Term, pos: Position) -> Term:
    """Return the subterm addressed by ``pos``."""
    z = _Zipper(t)
    z.descend(pos)
    return z.focus


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """Return a copy of ``t`` with the subterm at ``pos`` replaced by ``new``."""
    z = _Zipper(t)
    z.descend(pos)
    z.focus = new
    return z.whole()
