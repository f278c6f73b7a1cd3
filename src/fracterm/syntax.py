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
from .terms import Add, Div, Mul, Neg, Numeral, Term, Var, children, postorder

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


# The deepest nesting of JSON containers (objects and lists) any output, or
# any input to ``term_from_json``, may have.  A sum of n ones nests 2n - 1
# deep as a term, so ``parse --json`` encodes 495 ones (989 deep) and
# ``normalize --trace``, whose terms sit three containers in, 494 (990 deep).
# Only terms are checked on output: no output nests its own dicts and lists
# more than three deep.
_MAX_JSON_DEPTH = 990
_TOO_DEEP = "term nests too deeply for JSON output"

# The longest JSON text any output may have, in bytes.  An indented trace
# grows with the cube of a continued fraction's depth (622 MB at depth 100);
# harmonic n = 100's (86 MB) fits.
_MAX_JSON_BYTES = 2**27


def _check_length(n: int) -> None:
    if n > _MAX_JSON_BYTES:
        raise DomainError(f"JSON output exceeds the limit of {_MAX_JSON_BYTES} bytes")


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


def _frame(level: int, indent: int | None, keys: tuple = ()) -> tuple:
    """A list's text before its first entry, before each later one and after its last, cached.

    With ``keys``, a dict's: each entry's label, with its key, and the text after the last.
    """
    head, sep, end = _newline(indent, level + 1), _separator(indent), _newline(indent, level)
    if keys:
        labels = [(sep if i else "{") + head + encode_basestring_ascii(k) + ": " for i, k in enumerate(keys)]
        frame = (labels, end + "}")
    else:
        frame = ("[" + head, sep + head, end + "]")
    if len(_FRAMES) >= 4096:  # dict keys, such as variable names, are unbounded
        _FRAMES.clear()
    _FRAMES[keys, level, indent] = frame
    return frame


_FRAMES: dict[tuple, tuple] = {}


def _dumps(obj: Any, indent: int | None = None) -> str:
    """``json.dumps(obj, indent=indent)``, with each term encoded as :func:`term_to_json_obj`.

    One loop writes dicts, lists, strings, integers, booleans, ``None``, terms
    (:func:`_pieces`) and :class:`_Rendered` pieces straight from the tree, with
    each container's labels from its :func:`_frame`: a few operations per
    entry, and one copy of the text, in the final ``join``.  Integers past the
    int/str limit, terms nesting ``_MAX_JSON_DEPTH`` containers deep and text
    longer than ``_MAX_JSON_BYTES`` raise :class:`DomainError`.
    """
    out: list[str] = []
    # The containers entered: the rest of each one's (label, value) entries,
    # the level of its values and its closing text.
    stack: list[tuple[Any, int, str]] = []
    entries, level, closing = iter((("", obj),)), 0, ""
    while True:
        for label, value in entries:
            out.append(label)
            cls = type(value)
            if cls is _Rendered:
                out += value.pieces
            elif cls is list or cls is dict:
                if not value:
                    out.append("[]" if cls is list else "{}")
                    continue
                if cls is dict:
                    keys = tuple(value)
                    labels, inner = _FRAMES.get((keys, level, indent)) or _frame(level, indent, keys)
                    value = value.values()
                else:
                    first, rest, inner = _FRAMES.get(((), level, indent)) or _frame(level, indent)
                    labels = [first] + [rest] * (len(value) - 1)
                stack.append((entries, level, closing))
                entries, level, closing = zip(labels, value), level + 1, inner
                break
            elif cls is str:
                out.append(encode_basestring_ascii(value))
            elif cls is int:
                out.append(_decimal(value))
            elif cls in _OP_NAMES or cls is Numeral or cls is Var:
                _pieces(value, indent, level, out)
            elif cls is bool or value is None:
                out.append("null" if value is None else "true" if value else "false")
            else:
                raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
        else:
            out.append(closing)
            if not stack:
                text = "".join(out)
                _check_length(len(text))
                return text
            entries, level, closing = stack.pop()


def _pieces(t: Term, indent: int | None, level: int, out: list[str]) -> list[str]:
    """Append the pieces of ``t``'s JSON text at ``level`` to ``out``, and return ``out``.

    A leaf is one piece, and an operator one before, one between (but for
    ``Neg``) and one after its operands', so ``n`` nodes are ``2n - 1`` pieces.
    The walk goes down left operands; its stack holds the text after each
    open operator, and each pending right operand with the text before it.
    """
    stack: list[Any] = []
    while True:
        cls = type(t)
        before, between, after = _LAYOUTS.get((cls, level, indent)) or _term_layout(cls, level, indent)
        if cls is Numeral:
            out.append(before + _decimal(t.value) + after)
        elif cls is Var:
            out.append(before + encode_basestring_ascii(t.name) + after)
        else:
            out.append(before)
            stack.append(after)
            level += 2
            if cls is Neg:
                t = t.arg
                continue
            left, right = (t.numerator, t.denominator) if cls is Div else (t.left, t.right)
            stack.append((right, level, between))
            t = left
            continue
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            else:
                t, level, between = item
                out.append(between)
                break
        else:
            return out


def _measure(t: Term, sizes: dict[int, tuple[Term, int]]) -> int:
    """How many pieces :func:`_pieces` renders ``t`` in, at any level and indent.

    ``sizes`` maps the id of each operator counted to ``(node, count)`` and
    keeps the node alive, so one table counts each node once.
    """
    if not children(t):
        return 1
    new, stack = [], [t]
    while stack:  # the operators not counted yet, each before its operands
        node = stack.pop()
        kids = children(node)
        if kids and id(node) not in sizes:
            new.append((node, kids))
            stack += kids
    for node, kids in reversed(new):
        n = 1
        for kid in kids:
            m = sizes.get(id(kid))
            n += 2 if m is None else m[1] + 1  # a leaf is one piece
        sizes[id(node)] = node, n
    return sizes[id(t)][1]


class _Rendered:
    """Pieces of JSON text that :func:`_dumps` copies as they are: a value rendered at its level."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces


def term_to_json(t: Term) -> str:
    return _dumps(t)


# A JSON string, closed or running to the end of the text, or one bracket.
_JSON_MARKS = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)


def term_from_json(text: str) -> Term:
    """Decode :func:`term_to_json` text; nesting past ``_MAX_JSON_DEPTH`` is a :class:`ParseError`.

    The depth is checked by one scan over the brackets outside JSON strings,
    skipped when there are too few brackets to reach the limit.
    """
    if text.count("[") + text.count("{") > _MAX_JSON_DEPTH:
        depth = 0
        for mark in _JSON_MARKS.finditer(text):
            c = mark[0]
            if c == "[" or c == "{":
                depth += 1
                if depth > _MAX_JSON_DEPTH:
                    raise ParseError(f"invalid JSON: nested too deeply, past {_MAX_JSON_DEPTH} containers")
            elif c == "]" or c == "}":
                depth -= 1
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to decode") from None
    return term_from_json_obj(obj)
