"""Reference semantics the benchmark checks the library against.

Nothing here imports the library.  Terms are plain tuples::

    ("n", k)  ("v", name)  ("+", a, b)  ("*", a, b)  ("-", a)  ("/", a, b)

and every walk uses an explicit stack, so the oracles stay total on terms
deep enough to exhaust the interpreter's recursion limit (the limit probes
build such terms on purpose).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

LEAVES = ("n", "v")


class _Error:
    """The absorbing error element of the common meadow."""

    def __repr__(self) -> str:
        return "a"


ERROR = _Error()


def fold(tree, leaf, combine, memo=None):
    """Post-order fold; with ``memo``, every node's value is kept by ``id``."""
    vals = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if memo is not None and id(node) in memo:
            vals.append(memo[id(node)])
            continue
        if node[0] in LEAVES:
            v = leaf(node)
        elif expanded:
            k = len(node) - 1
            v = combine(node[0], vals[-k:])
            del vals[-k:]
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node[1:]))
            continue
        if memo is not None:
            memo[id(node)] = v
        vals.append(v)
    return vals[0]


# -- construction and text --------------------------------------------------


def left_chain(op, items):
    """Left-nested ``items[0] op items[1] op ...``, as the parser builds it."""
    acc = items[0]
    for item in items[1:]:
        acc = (op, acc, item)
    return acc


_PREC = {"+": 1, "*": 2, "/": 2, "-": 3}


def _text_leaf(node):
    return (str(node[1]), 4)


def _text_combine(op, args):
    if op == "-":
        (a, pa), = args
        return ("-" + (a if pa >= 3 else f"({a})"), 3)
    (a, pa), (b, pb) = args
    p = _PREC[op]
    left = a if pa >= p else f"({a})"
    right = b if pb > p else f"({b})"
    return (f"{left}{op}{right}", p)


def to_text(tree) -> str:
    """Infix text with the fewest parentheses that parse back to ``tree``."""
    return fold(tree, _text_leaf, _text_combine)[0]


def same(a, b) -> bool:
    """Structural equality; ``==`` on tuples recurses and fails on deep terms."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if len(x) != len(y) or x[0] != y[0]:
            return False
        if x[0] in LEAVES:
            if x[1] != y[1]:
                return False
        else:
            stack.extend(zip(x[1:], y[1:]))
    return True


def size(tree) -> int:
    return fold(tree, lambda _: 1, lambda _op, args: 1 + sum(args))


def depth(tree) -> int:
    return fold(tree, lambda _: 0, lambda _op, args: 1 + max(args))


_SHAPES = {
    "Add": ("+", "left", "right"),
    "Mul": ("*", "left", "right"),
    "Div": ("/", "numerator", "denominator"),
    "Neg": ("-", "arg"),
}


def from_program(term):
    """Read a library term back into the tuple encoding (no library calls)."""
    vals = []
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        kind = type(node).__name__
        if kind == "Numeral":
            vals.append(("n", node.value))
        elif kind == "Var":
            vals.append(("v", node.name))
        elif kind not in _SHAPES:
            raise TypeError(f"not a term node: {kind}")
        elif expanded:
            op, *fields = _SHAPES[kind]
            k = len(fields)
            node = (op, *vals[-k:])
            del vals[-k:]
            vals.append(node)
        else:
            stack.append((node, True))
            fields = _SHAPES[kind][1:]
            stack.extend((getattr(node, f), False) for f in reversed(fields))
    return vals[0]


# -- values -------------------------------------------------------------------


def q0_value(tree, env=None, memo=None) -> Fraction:
    """Totalized rationals: ``x/0 = 0``."""

    def leaf(node):
        return Fraction(node[1]) if node[0] == "n" else env[node[1]]

    def combine(op, args):
        if op == "+":
            return args[0] + args[1]
        if op == "*":
            return args[0] * args[1]
        if op == "-":
            return -args[0]
        return Fraction(0) if args[1] == 0 else args[0] / args[1]

    return fold(tree, leaf, combine, memo)


def gf_value(tree, p: int, env=None) -> int:
    """GF(p) with ``0**-1 = 0``; values are residues in ``range(p)``."""

    def leaf(node):
        return node[1] % p if node[0] == "n" else env[node[1]]

    def combine(op, args):
        if op == "+":
            return (args[0] + args[1]) % p
        if op == "*":
            return (args[0] * args[1]) % p
        if op == "-":
            return -args[0] % p
        return args[0] * pow(args[1], p - 2, p) % p if args[1] else 0

    return fold(tree, leaf, combine)


def common_value(tree, env=None):
    """Rationals plus :data:`ERROR`, made by ``x/0`` and absorbed by everything."""

    def leaf(node):
        return Fraction(node[1]) if node[0] == "n" else env[node[1]]

    def combine(op, args):
        if any(a is ERROR for a in args):
            return ERROR
        if op == "+":
            return args[0] + args[1]
        if op == "*":
            return args[0] * args[1]
        if op == "-":
            return -args[0]
        return ERROR if args[1] == 0 else args[0] / args[1]

    return fold(tree, leaf, combine)


def value_in(tree, meadow: str, env=None):
    """Value in ``q0``, ``common`` or ``gf:P``."""
    if meadow == "q0":
        return q0_value(tree, env)
    if meadow == "common":
        return common_value(tree, env)
    return gf_value(tree, int(meadow[3:]), env)


def pair_in(tree, meadow: str):
    """(numerator value, denominator value); a non-fraction is ``x/1``."""
    if tree[0] == "/":
        return (value_in(tree[1], meadow), value_in(tree[2], meadow))
    one = 1 if meadow.startswith("gf:") else Fraction(1)
    return (value_in(tree, meadow), one)


# -- safety and classes --------------------------------------------------------


def unsafe_position(tree):
    """Position of the outermost, leftmost fraction whose denominator is 0 in Q0."""
    memo = {}
    q0_value(tree, memo=memo)
    stack = [(tree, ())]
    while stack:
        node, pos = stack.pop()
        if node[0] in LEAVES:
            continue
        if node[0] == "/" and memo[id(node[2])] == 0:
            return pos
        for i in range(len(node) - 1, 0, -1):
            stack.append((node[i], pos + (i - 1,)))
    return None


def has_div(tree) -> bool:
    return fold(tree, lambda _: False, lambda op, args: op == "/" or any(args))


def q0_classes(tree) -> dict:
    """The Q0 class flags of a closed term that the benchmark checks."""
    fraction = tree[0] == "/"
    return {
        "is_fraction": fraction,
        "is_closed": True,
        "is_flat": fraction and not has_div(tree[1]) and not has_div(tree[2]),
        "is_common": fraction and q0_value(tree[2]) != 0,
        "is_safe_term": unsafe_position(tree) is None,
    }


# -- normal forms and fracpairs -----------------------------------------------


def normal_form(value: Fraction):
    """The unique simplified flat fraction ``(+-k)/l`` denoting ``value``."""
    k, l = value.numerator, value.denominator
    num = ("n", k) if k >= 0 else ("-", ("n", -k))
    return ("/", num, ("n", l))


def normal_form_text(value: Fraction) -> str:
    """The library's fully parenthesized printing of :func:`normal_form`."""
    k, l = value.numerator, value.denominator
    return f"({k}/{l})" if k >= 0 else f"((-{-k})/{l})"


def is_normal_form(tree, value: Fraction) -> bool:
    """``(+-k)/l`` with ``gcd(k, l) = 1``, ``l >= 1``, denoting ``value``."""
    if tree[0] != "/" or tree[2][0] != "n":
        return False
    num, l = tree[1], tree[2][1]
    if num[0] == "n":
        k = num[1]
    elif num[0] == "-" and num[1][0] == "n" and num[1][1] > 0:
        k = -num[1][1]
    else:
        return False
    return l >= 1 and math.gcd(k, l) == 1 and Fraction(k, l) == value


def fracpair_sum(num: int, den: int, k: int, l: int) -> tuple[int, int]:
    """Fracpair addition with positive denominators: the sum over their lcm."""
    lcm = den * l // math.gcd(den, l)
    return (num * (lcm // den) + k * (lcm // l), lcm)


# -- identities ----------------------------------------------------------------


def variables(*trees) -> list[str]:
    names = set()
    for t in trees:
        names |= fold(t, lambda n: {n[1]} if n[0] == "v" else set(),
                      lambda _op, args: set().union(*args))
    return sorted(names)


def is_counterexample(lhs, rhs, conds, meadow: str, env) -> bool:
    """``env`` keeps every condition nonzero and separates the two sides."""
    for c in conds:
        v = value_in(c, meadow, env)
        if v is not ERROR and v == 0:
            return False
    return value_in(lhs, meadow, env) != value_in(rhs, meadow, env)


def gf_identity(lhs, rhs, conds, p: int) -> tuple[bool, int]:
    """(valid, number of assignments) by enumerating GF(p)."""
    names = variables(lhs, rhs, *conds)
    for combo in itertools.product(range(p), repeat=len(names)):
        if is_counterexample(lhs, rhs, conds, f"gf:{p}", dict(zip(names, combo))):
            return (False, p ** len(names))
    return (True, p ** len(names))


def sampled_identity(lhs, rhs, conds, meadow: str, samples) -> bool:
    """Whether no sample assignment is a counterexample."""
    return not any(is_counterexample(lhs, rhs, conds, meadow, env) for env in samples)


# -- a parser for the benchmark's own fixed texts ----------------------------------


def parse(text: str):
    """Parse the small fixed texts of the identity table (ASCII, no mixed literals)."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or c.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            word = text[i:j]
            tokens.append(("n", int(word)) if word.isdigit() else ("v", word))
            i = j
        else:
            tokens.append(c)
            i += 1
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def expr():
        nonlocal pos
        t = term()
        while peek() in ("+", "-"):
            op = tokens[pos]
            pos += 1
            r = term()
            t = ("+", t, r if op == "+" else ("-", r))
        return t

    def term():
        nonlocal pos
        t = factor()
        while peek() in ("*", "/"):
            op = tokens[pos]
            pos += 1
            t = (op, t, factor())
        return t

    def factor():
        nonlocal pos
        if peek() == "-":
            pos += 1
            return ("-", factor())
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            t = expr()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
            return t
        if isinstance(tok, tuple):
            return tok
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    tree = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return tree
