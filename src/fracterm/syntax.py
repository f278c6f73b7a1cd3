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
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import DomainError, ParseError
from .terms import Add, Div, Mul, Neg, Numeral, Term, Var, postorder

__all__ = [
    "parse",
    "to_text",
    "term_to_json_obj",
    "term_from_json_obj",
    "term_to_json",
    "term_from_json",
]


# The rest of a mixed literal after its whole part: '_' digits '/' digits, no spaces.
_MIXED_TAIL = re.compile(r"_([0-9]+)/([0-9]+)")


#: ``(kind, value, column)``; kind is 'nat', 'mixed', 'ident' or one of + - * / ( ).
_Token = tuple[str, Any, int]


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
            i = _NATURAL.match(src, i).end()
            first = _natural(src[start:i], start)
            if i < n and src[i] == "_":
                m = _MIXED_TAIL.match(src, i)
                if m is None:
                    raise ParseError("malformed mixed literal", start)
                num, den = _natural(m[1], m.start(1)), _natural(m[2], m.start(2))
                tokens.append(("mixed", (first, num, den), start))
                i = m.end()
            elif i < n and src[i] == ".":
                raise ParseError("decimal fractions are not supported", i)
            else:
                tokens.append(("nat", first, start))
        elif c.isalpha():
            i = _IDENT.match(src, i).end()
            tokens.append(("ident", src[start:i], start))
        elif c in "+-*/()":
            tokens.append((c, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


# How tightly a pending operator binds; "neg" is unary minus, and no reduction passes "(".
_PRECEDENCE = {"neg": 3, "*": 2, "/": 2, "+": 1, "-": 1, "(": 0}
_BINARY = {"+": Add, "-": Add, "*": Mul, "/": Div}


def parse(src: str) -> Term:
    """Parse source text into a term; raise :class:`ParseError` with a column.

    One operator-precedence loop over an operand stack and an operator stack.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty input")
    operands: list[Term] = []
    ops: list[str] = []
    want_operand = True
    for kind, value, column in [*tokens, (None, None, None)]:
        if want_operand:
            if kind is None:
                raise ParseError("unexpected end of input")
            if kind == "-" or kind == "(":
                ops.append("neg" if kind == "-" else "(")
                continue
            if kind == "nat":
                operands.append(Numeral(value))
            elif kind == "mixed":
                whole, num, den = value
                operands.append(Add(Numeral(whole), Div(Numeral(num), Numeral(den))))
            elif kind == "ident":
                operands.append(Var(value))
            else:
                raise ParseError(f"unexpected token {value!r}", column)
            want_operand = False
            continue
        # After an operand: a binary operator, a closing parenthesis, or the end.
        binary = kind in _BINARY
        precedence = _PRECEDENCE[kind] if binary else 1
        while ops and _PRECEDENCE[ops[-1]] >= precedence:
            op, right = ops.pop(), operands.pop()
            if op == "neg":
                operands.append(Neg(right))
            else:  # a - b is sugar for a + (-b)
                operands[-1] = _BINARY[op](operands[-1], Neg(right) if op == "-" else right)
        if binary:
            ops.append(kind)
            want_operand = True
        elif not ops:  # no parenthesis is open
            if kind is not None:
                raise ParseError(f"unexpected trailing token {value!r}", column)
        elif kind != ")":
            found = "end of input" if kind is None else repr(value)
            raise ParseError(f"expected ')', found {found}", column)
        else:
            ops.pop()
    return operands[0]


def to_text(t: Term) -> str:
    """Fully parenthesized infix text; ``parse(to_text(t))`` gives ``t`` back."""
    out: list[str] = []
    # Pending subterms and the text around them, rightmost first.
    stack: list[Term | str] = [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is str:
            out.append(s)
        elif cls is Numeral:
            out.append(_decimal(s.value))
        elif cls is Var:
            out.append(s.name)
        elif cls is Neg:
            stack += (")", s.arg, "(-")
        elif cls is Div:
            stack += (")", s.denominator, "/", s.numerator, "(")
        else:
            stack += (")", s.right, "+" if cls is Add else "*", s.left, "(")
    return "".join(out)


_OPS = {"add": Add, "mul": Mul, "neg": Neg, "div": Div}
_OP_NAMES = {cls: op for op, cls in _OPS.items()}
# The text grammar's numerals and identifiers.
_NATURAL = re.compile(r"[0-9]+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def term_to_json_obj(t: Term) -> dict[str, Any]:
    """Tree encoding for machine consumers; numerals as decimal strings."""
    vals: list[dict[str, Any]] = []
    for s in postorder(t):
        cls = type(s)
        if cls is Numeral:
            vals.append({"num": _decimal(s.value)})
        elif cls is Var:
            vals.append({"var": s.name})
        elif cls is Neg:
            vals[-1] = {"op": "neg", "args": [vals[-1]]}
        else:
            right = vals.pop()
            vals[-1] = {"op": _OP_NAMES[cls], "args": [vals[-1], right]}
    return vals[0]


def term_from_json_obj(obj: Any) -> Term:
    """Decode a tree encoding; each object is checked before its arguments."""
    vals: list[Term] = []
    # (object, None) to decode, (object, operator) once its arguments are.
    stack: list[tuple[Any, type | None]] = [(obj, None)]
    open_ids: set[int] = set()  # operator objects being decoded, to stop cycles
    while stack:
        o, cls = stack.pop()
        if cls is not None:
            open_ids.remove(id(o))
            args = [vals.pop() for _ in range(1 if cls is Neg else 2)]
            vals.append(cls(*reversed(args)))
            continue
        if not isinstance(o, dict):
            raise ParseError(f"expected an object, got {type(o).__name__}")
        if "num" in o:
            text = o["num"]
            if not (isinstance(text, str) and _NATURAL.fullmatch(text)):
                raise ParseError(f"bad numeral encoding {text!r}")
            vals.append(Numeral(_natural(text)))
            continue
        if "var" in o:
            name = o["var"]
            if not (isinstance(name, str) and _IDENT.fullmatch(name)):
                raise ParseError(f"bad variable encoding {name!r}")
            vals.append(Var(name))
            continue
        op = o.get("op")
        args = o.get("args")
        if op not in _OPS or not isinstance(args, list):
            raise ParseError(f"bad term encoding {o!r}")
        arity = 1 if op == "neg" else 2
        if len(args) != arity:
            raise ParseError(f"operator {op!r} takes {arity} argument(s)")
        if id(o) in open_ids:
            raise ParseError("cyclic term encoding")
        open_ids.add(id(o))
        stack.append((o, _OPS[op]))
        stack.extend((a, None) for a in reversed(args))
    return vals[0]


# The deepest nesting of JSON containers (objects and lists) any output may
# have.  A sum of n ones nests 2n - 1 deep as a term, so ``parse --json``
# encodes 495 ones (989 deep) and ``normalize --trace``, whose terms sit
# three containers in, 494 (990 deep).  Only terms are checked: no output
# nests its own dicts and lists more than three deep.
_MAX_JSON_DEPTH = 990
_TOO_DEEP = "term nests too deeply for JSON output"


def _term_layout(cls: type, level: int, indent: int | None) -> tuple[str, str, str]:
    """The text before, between and after the operands of a ``cls`` node at ``level``.

    A node's operands sit two levels deeper, inside its ``args`` list.  Nodes
    at ``_MAX_JSON_DEPTH`` or deeper raise :class:`DomainError`.
    """
    key = (cls, level, indent)
    text = _LAYOUTS.get(key)
    if text is None:
        if level >= _MAX_JSON_DEPTH:
            raise DomainError(_TOO_DEEP)
        inner, end = _newline(indent, level + 1), _newline(indent, level) + "}"
        if cls is Numeral:
            text = ("{" + inner + '"num": "', "", '"' + end)
        elif cls is Var:
            text = ("{" + inner + '"var": ', "", end)
        else:
            sep, args = _separator(indent), _newline(indent, level + 2)
            op = f'{{{inner}"op": "{_OP_NAMES[cls]}"{sep}{inner}"args": [{args}'
            text = (op, sep + args, inner + "]" + end)
        _LAYOUTS[key] = text
    return text


_LAYOUTS: dict[tuple[type, int, int | None], tuple[str, str, str]] = {}


def _newline(indent: int | None, level: int) -> str:
    return "" if indent is None else "\n" + " " * (indent * level)


def _separator(indent: int | None) -> str:
    return ", " if indent is None else ","


def _dumps(obj: Any, indent: int | None = None) -> str:
    """``json.dumps(obj, indent=indent)``, with each term encoded as :func:`term_to_json_obj`.

    Integers past the int/str limit and terms nesting ``_MAX_JSON_DEPTH``
    containers deep raise :class:`DomainError`.
    """
    return "".join(_pieces(obj, indent))


def _pieces(obj: Any, indent: int | None, level: int = 0) -> list[str]:
    """The pieces of :func:`_dumps`'s text for ``obj``, as if it sat ``level`` containers deep.

    One explicit stack renders dicts, lists, strings, integers, booleans,
    ``None``, terms and :class:`_Rendered` pieces, straight from the tree.  A
    term's pieces are its own: a leaf gives one, and an operator one before,
    one between and one after its operands', so :func:`_piece_count` finds
    where each subterm's pieces start.
    """
    sep = _separator(indent)
    out: list[str] = []
    # Pieces of text, and (value, level) to render.
    stack: list[Any] = [(obj, level)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, level = item
        cls = type(value)
        if cls is Numeral or cls is Var:
            before, _, after = _term_layout(cls, level, indent)
            leaf = _decimal(value.value) if cls is Numeral else encode_basestring_ascii(value.name)
            out.append(before + leaf + after)
        elif cls in _OP_NAMES:
            before, between, after = _term_layout(cls, level, indent)
            out.append(before)
            stack.append(after)
            if cls is Neg:
                stack.append((value.arg, level + 2))
            else:
                left, right = (value.numerator, value.denominator) if cls is Div else (value.left, value.right)
                stack += ((right, level + 2), between, (left, level + 2))
        elif cls is dict or cls is list:
            opening, closing = "{}" if cls is dict else "[]"
            if not value:
                out.append(opening + closing)
                continue
            if cls is dict:
                entries = [(encode_basestring_ascii(k) + ": ", v) for k, v in value.items()]
            else:
                entries = [("", v) for v in value]
            out.append(opening)
            stack.append(_newline(indent, level) + closing)
            head = _newline(indent, level + 1)
            for i in reversed(range(len(entries))):
                label, v = entries[i]
                stack += ((v, level + 1), (sep + head if i else head) + label)
        elif cls is _Rendered:
            out += value.pieces
        elif cls is str:
            out.append(encode_basestring_ascii(value))
        elif cls is int:
            out.append(_decimal(value))
        elif cls is bool:
            out.append("true" if value else "false")
        elif value is None:
            out.append("null")
        else:
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return out


class _Rendered:
    """Pieces of JSON text that :func:`_pieces` copies as they are: a value rendered at its level."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces


_OWN_PIECES = {Numeral: 1, Var: 1, Neg: 2, Add: 3, Mul: 3, Div: 3}


def _piece_count(t: Term) -> int:
    """How many pieces :func:`_pieces` renders ``t`` in, at any level and indent."""
    return sum(_OWN_PIECES[type(s)] for s in postorder(t))


def term_to_json(t: Term) -> str:
    return _dumps(t)


def term_from_json(text: str) -> Term:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to decode") from None
    return term_from_json_obj(obj)
