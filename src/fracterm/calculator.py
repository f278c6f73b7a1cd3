"""Normalization of closed terms to simplified flat fractions.

Two normalizers share one bottom-up engine on one explicit stack, with no
depth limit.  Every derivation step records the position rewritten, the rule
applied, the numerals the step assumes nonzero, and the complete term before
and after.  The engine builds no term but the result, and no step: it records
each step's rule, its contractum as a constructor and the integers it takes,
and its position as a link to its parent's.  A trace builds a step, and a
derivation its contracta, a step's position and complete terms, when read: a
read walks one zipper (``terms._Zipper``) over the contracta and links to its
step, from where the previous read left it.  :func:`replay_derivation` and
:meth:`NormalForm.to_json` walk a zipper of their own from each run's first
``before``, and :func:`apply_rule` opens one at its position.

* :func:`normalize_full` works in the totalized-rational reading: a fraction
  whose denominator evaluates to zero is collapsed to ``0/1`` (rule ``DBZ``)
  and sums of fractions are merged in one conditional-addition step
  (``CFAR``).
* :func:`normalize_safe` uses only division-safe rules: fraction sums are
  brought to a common denominator with ``FEQ`` and merged with ``QCR``.  It
  reads the term's ``Q0`` facts, which ``classify`` keeps in the term's memo,
  and refuses an unsafe term before the engine runs, naming the offender with
  :func:`find_unsafe_fraction`.

Shared structural rules: ``DIV1`` flattens a fraction in numerator position,
``DIV2`` one in denominator position, and ``FEQ`` applied right to left
cancels the gcd of the two components.  Ring-level work is aggregated into
``CR-*`` steps: ``CR-eval`` evaluates a division-free subterm to a signed
numeral, ``CR-frac`` moves a minus out of a denominator or into a numerator,
``CR-embed`` wraps a non-fraction as ``x/1``, and ``CR-mul`` merges a
product of two fractions componentwise.  Every step preserves the denoted
value in every backend whenever its recorded numerals are nonzero there.

The result is always ``k/l`` or ``(-k)/l`` with ``gcd(k, l) = 1`` and
``l >= 1``; the value zero is ``0/1``.  The collected conditions are the
numerals asserted nonzero along the way: every surviving denominator plus
every ``FEQ``/``CFAR`` multiplier.  They are sufficient hypotheses for the
calculation, deliberately never discharged, so consumers can re-check a
derivation in a prime field where some of them vanish.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from .classify import _facts
from .errors import DomainError, EvalError, MatchError, PositionError, SafetyError
from .meadows import Q0, _pair, evaluate
from .syntax import _check_length, _dumps, _measure, _pieces, _Rendered, term_to_json_obj, to_text
from .terms import (
    Add,
    Div,
    Mul,
    Neg,
    Numeral,
    ONE,
    Position,
    Term,
    Var,
    ZERO,
    _Frozen,
    _Link,
    _Record,
    _Zipper,
    _memo_of,
    _path,
    as_signed_numeral,
    children,
    eq_syn,
    postorder,
    signed_numeral,
    subterm_at,
)

__all__ = [
    "RULE_CR_EVAL",
    "RULE_CR_FRAC",
    "RULE_CR_EMBED",
    "RULE_CR_MUL",
    "RULE_QCR",
    "RULE_CFAR",
    "RULE_DIV1",
    "RULE_DIV2",
    "RULE_FEQ",
    "RULE_DBZ",
    "Step",
    "NormalForm",
    "normalize_full",
    "normalize_safe",
    "apply_rule",
    "replay_derivation",
    "EqualityEvidence",
    "check_equal",
    "find_unsafe_fraction",
]

RULE_CR_EVAL = "CR-eval"
RULE_CR_FRAC = "CR-frac"
RULE_CR_EMBED = "CR-embed"
RULE_CR_MUL = "CR-mul"
RULE_QCR = "QCR"
RULE_CFAR = "CFAR"
RULE_DIV1 = "DIV1"
RULE_DIV2 = "DIV2"
RULE_FEQ = "FEQ"
RULE_DBZ = "DBZ"


_NO_CONDITIONS: frozenset[int] = frozenset()


class Step(_Frozen):
    """One rewrite: ``before`` becomes ``after`` by ``rule`` at ``position``.

    Immutable, and compared, hashed and shown by those four fields and
    ``conditions``.  A step of a normal form's trace is edit ``_i`` of its
    derivation's record ``_terms``, a :class:`_Terms`, built when read.  A
    hand-built step holds ``(before, after, position)`` in ``_terms``, at
    index 0, with a list position as a tuple and its conditions as a
    ``frozenset``, so a step built from its own JSON equals and hashes as the
    original; its JSON refuses a position ``before`` lacks, as replay
    does.  Either pickles and copies as its ``_terms``, index, rule and
    conditions, so a trace step pickles as a reference to its shared record
    and stays unread.
    """

    __slots__ = ("rule", "conditions", "_terms", "_i")
    _fields = ("rule", "position", "before", "after", "conditions")

    def __init__(
        self, rule: str, position: Position, before: Term, after: Term, conditions=_NO_CONDITIONS
    ) -> None:
        _set_rule(self, rule)
        _set_conditions(self, frozenset(conditions))
        _set_terms(self, (before, after, tuple(position) if type(position) is list else position))
        _set_i(self, 0)

    @property
    def position(self) -> Position:
        terms = self._terms
        return terms[2] if type(terms) is tuple else _path(terms.edits[self._i][0])

    @property
    def before(self) -> Term:
        return self._terms[self._i]

    @property
    def after(self) -> Term:
        return self._terms[self._i + 1]

    def to_json_obj(self) -> dict:
        return self._json_layout(term_to_json_obj(self.before), term_to_json_obj(self.after))

    def _json_layout(self, before: Any, after: Any) -> dict:
        """The JSON object of this step, with ``before`` and ``after`` as its terms."""
        if type(self._terms) is tuple:  # a hand-built position must address a subterm
            subterm_at(self.before, self.position)
        return {
            "rule": self.rule,
            "position": list(self.position),
            "before": before,
            "after": after,
            "conditions": sorted(self.conditions),
        }

    def __reduce__(self) -> tuple:
        return _step_at, (self._terms, self._i, self.rule, self.conditions)


_set_rule, _set_conditions = Step.rule.__set__, Step.conditions.__set__
_set_terms, _set_i = Step._terms.__set__, Step._i.__set__


def _step_at(terms: _Terms, i: int, rule: str, conditions) -> Step:
    """The step of edit ``i`` of ``terms``."""
    step = object.__new__(Step)
    _set_rule(step, rule)
    _set_conditions(step, conditions)
    _set_terms(step, terms)
    _set_i(step, i)
    return step


def _continues(prev: Step | None, step: Step) -> bool:
    """Whether ``step`` is the edit after ``prev``'s in one derivation's record."""
    return prev is not None and step._terms is prev._terms and step._i == prev._i + 1


#: One step's edit ``(link, build, *args)``: its contractum is ``build(*args)``.
_Edit = tuple


class _Terms:
    """The record of one derivation: ``root``, and a rule and an edit for each step.

    ``conditions`` maps each step that assumes numerals nonzero to them.  An
    edit keeps the step's position as a :data:`_Link` and its contractum as a
    module-level constructor and the integers it takes, so the engine records
    a step without building a term.  The first read of a contractum builds
    every contractum (:meth:`contracta`).  ``self[i]``, the whole term before
    edit ``i``, moves a :class:`_Zipper` from the cursor, where the last read
    left it with the whole term it built and the focus each edit it walked
    replaced.  A read after the cursor walks on over the edits, and a read
    before it undoes edits, plugging each replaced focus back in.  So reading
    every step in order, or last-first, walks each edit at most twice.  A read
    takes the cursor with ``list.pop()`` and appends it back when done, so two
    threads never walk one zipper.  Steps point here, and this holds no step,
    so an unread derivation is freed without the cycle collector.  It pickles
    and copies as its root, rules, conditions and edits, with every link
    written once in a flat table, so loading builds nothing and keeps the
    links shared.
    """

    __slots__ = ("root", "rules", "conditions", "edits", "cursor", "_contracta")

    def __init__(self, root: Term):
        self.root = root
        self.rules: list[str] = []
        self.conditions: dict[int, frozenset[int]] = {}
        self.edits: list[_Edit] = []
        self.cursor: list[tuple[int, _Zipper, Term, list[Term]]] = []
        self._contracta: list[Term] | None = None

    def contracta(self) -> list[Term]:
        """Each edit's contractum, all built on the first call."""
        if self._contracta is None:
            self._contracta = [e[1](*e[2:]) for e in self.edits]
        return self._contracta

    def __getitem__(self, i: int) -> Term:
        if i == 0:
            return self.root
        try:
            k, z, whole, replaced = self.cursor.pop()
        except IndexError:
            k, z, replaced = 0, _Zipper(self.root), []
        if k != i:
            edits, contracta = self.edits, self.contracta()
            for j in range(k, i):
                z.move(edits[j][0])
                replaced.append(z.focus)
                z.focus = contracta[j]
            for j in reversed(range(i, k)):
                z.move(edits[j][0])
                z.focus = replaced.pop()
            whole = z.whole()
        self.cursor.append((i, z, whole, replaced))
        return whole

    def __reduce__(self) -> tuple:
        # Each link is two table entries, its child index and its parent's
        # number; the root's ``None`` is number 0 and the n-th link number n.
        numbers, table, edits = {id(None): 0}, [], []
        for e in self.edits:
            new, link = [], e[0]
            while id(link) not in numbers:
                new.append(link)
                link = link[1]
            for link in reversed(new):
                table += (link[0], numbers[id(link[1])])
                numbers[id(link)] = len(table) // 2
            edits.append((numbers[id(e[0])], *e[1:]))
        return _load_terms, (self.root, table, edits, self.rules, self.conditions)


def _load_terms(root: Term, table: list[int], edits: list[tuple], rules, conditions) -> _Terms:
    """The record that :meth:`_Terms.__reduce__` wrote."""
    links: list[_Link] = [None]
    for j in range(0, len(table), 2):
        links.append((table[j], links[table[j + 1]]))
    terms = _Terms(root)
    terms.edits = [(links[e[0]], *e[1:]) for e in edits]
    terms.rules, terms.conditions = rules, conditions
    return terms


class _Trace(Sequence):
    """The steps of one derivation's record, each built when it is read: ``len``
    builds none, a slice is a list.  It equals and shows as the list of its
    steps, and pickles as its record, so an unread trace stays unread."""

    def __init__(self, terms: _Terms):
        self._terms = terms

    def __len__(self) -> int:
        return len(self._terms.edits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        terms, i = self._terms, range(len(self))[i]
        return _step_at(terms, i, terms.rules[i], terms.conditions.get(i, _NO_CONDITIONS))

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (list, _Trace)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


#: A trace step's terms sit this many JSON containers deep in :meth:`NormalForm.to_json`.
_STEP_TERM_LEVEL = 3


class NormalForm(_Record):
    """A simplified flat fraction with its hypotheses and its derivation, a list or a ``_Trace``."""

    _fields = ("result", "conditions", "trace")

    def __init__(self, result: Term, conditions: set[int], trace: Sequence[Step] | None = None):
        self.result, self.conditions = result, conditions
        self.trace = [] if trace is None else trace

    def to_json_obj(self) -> dict:
        return self._json_layout(term_to_json_obj(self.result), [s.to_json_obj() for s in self.trace])

    def to_json(self, indent: int | str | None = 2) -> str:
        """``json.dumps(self.to_json_obj(), indent=indent)``, rendered from the terms.

        Each step's terms come from :func:`_step_texts`, and ``syntax._dumps``
        lays out the objects around them.  Text longer than
        ``syntax._MAX_JSON_BYTES`` raises :class:`DomainError`.
        """
        trace = list(self.trace)
        steps = [s._json_layout(*text) for s, text in zip(trace, _step_texts(trace, indent))]
        return _dumps(self._json_layout(self.result, steps), indent)

    def _json_layout(self, result: Any, steps: list) -> dict:
        """The JSON object of this normal form, with ``result`` and ``steps`` as given."""
        return {"result": result, "conditions": sorted(self.conditions), "steps": steps}


def _step_texts(trace: list[Step], indent: int | str | None) -> list[tuple[_Rendered, _Rendered]]:
    """Each step's ``before`` and ``after`` as JSON text pieces at ``_STEP_TERM_LEVEL``.

    A run of steps along one record renders its first ``before`` and walks a
    :class:`_Zipper` over the edits; a hand-built step is a run of its own,
    one edit at the root whose contractum is its whole ``after``.  A step
    renders its contractum between copies of the pieces around the redex,
    and ``after`` is the next ``before``.  ``spans`` holds, for each node on
    the path and the focus, the index of its first piece and how many pieces
    follow its last; edits inside a node keep both.  An operator's opening,
    separator and closing are one piece each, so an operand's span follows
    from its parent's and the other operand's count (:func:`syntax._measure`,
    which counts each node once per run).  The bytes written are counted as
    they grow, so a refusal holds little more than the limit.
    """
    texts: list[tuple[_Rendered, _Rendered]] = []
    written, prev = 0, None
    for step in trace:
        terms, k = step._terms, step._i
        if not _continues(prev, step):
            if type(terms) is tuple:  # a hand-built step: one edit, at the root, to its ``after``
                edits, contracta = [(None,)], terms[1:2]
            else:
                edits, contracta = terms.edits, terms.contracta()
            z, spans, sizes = _Zipper(step.before), [(0, 0)], {}
            after = _Rendered(_pieces(z.focus, indent, _STEP_TERM_LEVEL, []))
            length = sum(map(len, after.pieces))
        kept, before = z.move(edits[k][0]), after
        text = before.pieces
        del spans[kept + 1 :]
        for node, i, _ in z.path[kept:]:
            s, t = spans[-1]
            if type(node) is Neg:
                spans.append((s + 1, t + 1))
            elif i == 0:  # it ends where the separator before the second operand starts
                spans.append((s + 1, t + 2 + _measure(children(node)[1], sizes)))
            else:  # it starts after the first operand and the separator
                spans.append((s + 2 + _measure(children(node)[0], sizes), t + 1))
        start, tail = spans[-1]
        end, z.focus = len(text) - tail, contracta[k]
        new = _pieces(z.focus, indent, _STEP_TERM_LEVEL + 2 * len(z.path), [])
        after = _Rendered(text[:start] + new + text[end:])
        written += length
        length += sum(map(len, new)) - sum(map(len, text[start:end]))
        written += length
        texts.append((before, after))
        _check_length(written)
        prev = step
    return texts


def _ring_value(t: Term) -> int:
    """Integer value of a division-free closed term: the numerator of its ``Q0`` pair."""
    nodes = postorder(t)
    if {Div, Var}.isdisjoint(map(type, nodes)):
        return _pair(nodes, Q0(), {})[0]
    stack = [t]  # name the outermost offender, the first one in preorder
    while type(stack[-1]) not in (Div, Var):
        stack += reversed(children(stack.pop()))
    raise MatchError(f"not a division-free closed term: {to_text(stack[-1])}")


def find_unsafe_fraction(t: Term) -> tuple[Position, Term] | None:
    """First (outermost, leftmost) fraction whose denominator denotes zero.

    Uses the totalized-rational reading to evaluate denominators, so it is
    total on closed terms.  Reads the ``Q0`` facts of ``classify``'s memo.
    """
    ids = _facts(t, Q0())[1]
    if ids is None:
        evaluate(t, Q0())  # an open term: raises on its first unbound variable
    if not ids:
        return None
    # A shared subterm has one value, so matching by identity is exact.  Each
    # preorder entry links to its parent's, so only the match's position is built.
    stack: list[tuple[Term, tuple | None]] = [(t, None)]
    while True:
        s, link = stack.pop()
        if id(s) in ids:
            return _path(link), s
        kids = children(s)
        stack += [(kids[i], (i, link)) for i in reversed(range(len(kids)))]


def _fold_mul(t: Term, k: int) -> Term:
    """``t * k`` folded for signed numerals, else a syntactic product."""
    v = as_signed_numeral(t)
    if v is not None:
        return signed_numeral(v * k)
    return Mul(t, Numeral(k))


#: ``(n, l)``: the flat fraction ``n/l`` with ``l >= 1`` and ``gcd(n, l) = 1``.
_Frac = tuple[int, int]


# -- contracta -------------------------------------------------------------
#
# An engine step keeps its contractum as one of these constructors and the
# integers it takes (``signed_numeral`` for ``CR-eval``).  Every ``n`` is a
# signed numeral and every ``l`` a numeral.


def _flat(n: int, l: int) -> Div:
    """The flat fraction ``n/l``."""
    return Div(signed_numeral(n), Numeral(l))


def _neg_over(n: int, l: int) -> Div:
    """``(-n)/l``."""
    return Div(Neg(signed_numeral(n)), Numeral(l))


def _cfar(n1: int, l1: int, n2: int, l2: int) -> Div:
    """``(n1*l2 + l1*n2)/(l1*l2)``, the ``CFAR`` contractum of ``n1/l1 + n2/l2``."""
    x, y, u, w = signed_numeral(n1), Numeral(l1), signed_numeral(n2), Numeral(l2)
    return Div(Add(Mul(x, w), Mul(y, u)), Mul(y, w))


def _qcr(n1: int, n2: int, l: int) -> Div:
    """``(n1 + n2)/l``."""
    return Div(Add(signed_numeral(n1), signed_numeral(n2)), Numeral(l))


def _cr_mul(n1: int, l1: int, n2: int, l2: int) -> Div:
    """``(n1*n2)/(l1*l2)``."""
    return Div(Mul(signed_numeral(n1), signed_numeral(n2)), Mul(Numeral(l1), Numeral(l2)))


def _div1(n: int, l1: int, d: int) -> Div:
    """``n/(l1*d)``, the ``DIV1`` contractum of ``(n/l1)/d``."""
    return Div(signed_numeral(n), Mul(Numeral(l1), signed_numeral(d)))


def _div1_over_flat(n: int, l1: int, n2: int, l2: int) -> Div:
    """``n/(l1*(n2/l2))``, the ``DIV1`` contractum of ``(n/l1)/(n2/l2)``."""
    return Div(signed_numeral(n), Mul(Numeral(l1), _flat(n2, l2)))


def _div2(n: int, n2: int, l2: int) -> Div:
    """``(n*l2*l2)/(n2*l2)``, the ``DIV2`` contractum of ``n/(n2/l2)``."""
    z = Numeral(l2)
    return Div(Mul(Mul(signed_numeral(n), z), z), Mul(signed_numeral(n2), z))


class _Engine:
    """One innermost rewriting pass over a whole term, on one explicit stack.

    A frame of ``run`` is ``(subterm, link, embed, done)``, where ``link`` is
    the subterm's position as a :data:`_Link`, so a frame copies no path and
    the engine needs no depth limit.  A division-free
    subterm is evaluated on its first visit; any other is pushed again with
    ``done`` set, and then merges the shapes its operands left on ``shapes``.
    ``embed`` marks the root and the operands of ``+`` and ``*``, whose
    division-free results become ``x/1`` before the next operand is touched.
    ``_rewrite`` appends each step's rule to its :class:`_Terms` and its
    contractum as an edit: a constructor and the integers of the shapes, with
    the step's link.  So the engine builds no term but the result and no
    :class:`Step`, and whether a component is already a signed numeral
    follows from the rule and those integers.

    The engine only rewrites: in safe mode it runs on safe terms alone, so a
    zero denominator ``dv`` can only be full mode's, which ``DBZ`` collapses.
    """

    def __init__(self, safe: bool):
        self.safe = safe
        self.conditions: set[int] = set()

    def _record_values(self, t: Term) -> dict[int, int]:
        """Each division-free subterm's value in the closed term ``t``, by id; kept in its memo."""
        memo = _memo_of(t)
        values = memo.get(_Engine)
        if values is None:
            values = {}
            for s in postorder(t):
                cls = type(s)
                if cls is Numeral:
                    values[id(s)] = s.value
                elif cls is Var:
                    raise EvalError(f"cannot normalize an open term: {to_text(t)}")
                elif cls is Neg:
                    if id(s.arg) in values:
                        values[id(s)] = -values[id(s.arg)]
                elif cls is not Div and id(s.left) in values and id(s.right) in values:
                    x, y = values[id(s.left)], values[id(s.right)]
                    values[id(s)] = x + y if cls is Add else x * y
            memo[_Engine] = values
        return values

    def _rewrite(self, rule: str, edit: _Edit, conds=()) -> None:
        """Record a step by ``rule`` that assumes the numerals ``conds`` nonzero."""
        terms = self.terms
        if conds:
            conds = terms.conditions[len(terms.edits)] = frozenset(conds)
            self.conditions |= conds
        terms.rules.append(rule)
        terms.edits.append(edit)

    # -- canonical shapes -------------------------------------------------
    #
    # Normalized subterms take one of two shapes, and ``run`` keeps the
    # integers of the shape each finished subterm now has:
    #   v       for the signed numeral  k  or  -(k)  denoting v
    #   (n, l)  for the reduced flat fraction  Div(signed numeral n, numeral l)
    # A subterm normalizes to ``(n, l)`` exactly when a division occurs in it.

    def run(self, t: Term) -> NormalForm:
        """Normalize the closed term ``t`` to a flat fraction."""
        self.terms = _Terms(t)
        values = self._record_values(t)
        merge = {Div: self._divide, Add: self._merge_sum, Mul: self._merge_product}
        shapes: list[int | _Frac] = []
        stack: list[tuple[Term, _Link, bool, bool]] = [(t, None, True, False)]
        while stack:
            s, link, embed, done = stack.pop()
            cls = type(s)
            if done:
                if cls is Neg:
                    n, l = shapes[-1]
                    shapes[-1] = self._negate(link, n, l), l
                else:
                    right = shapes.pop()
                    shapes[-1] = merge[cls](link, shapes[-1], right)
                continue
            v = values.get(id(s))
            if v is not None:
                if as_signed_numeral(s) is None:
                    self._rewrite(RULE_CR_EVAL, (link, signed_numeral, v))
                if embed:
                    self._rewrite(RULE_CR_EMBED, (link, _flat, v, 1))
                    v = v, 1
                shapes.append(v)
                continue
            stack.append((s, link, embed, True))
            if cls is Neg:
                stack.append((s.arg, (0, link), False, False))
            elif cls is Div:
                stack.append((s.denominator, (1, link), False, False))
                stack.append((s.numerator, (0, link), False, False))
            else:
                stack.append((s.right, (1, link), True, False))
                stack.append((s.left, (0, link), True, False))
        result = _flat(*shapes[0]) if self.terms.edits else t
        return NormalForm(result, self.conditions, _Trace(self.terms))

    def _negate(self, link: _Link, n: int, l: int) -> int:
        """Rewrite ``-(n/l)`` or ``n/(-l)`` at ``link`` to ``(-n)/l``, evaluated; return ``-n``."""
        self._rewrite(RULE_CR_FRAC, (link, _neg_over, n, l))
        if n <= 0:  # else ``-(n)`` is already the signed numeral of ``-n``
            self._rewrite(RULE_CR_EVAL, ((0, link), signed_numeral, -n))
        return -n

    def _contract(
        self, link: _Link, rule: str, edit: _Edit, nv: int, dv: int, conds=(), numeral_den=False
    ) -> _Frac:
        """Rewrite by ``edit`` to a fraction, evaluate it to ``nv/dv``, and finalize.

        The contractum's numerator is never a numeral, and its denominator is
        one exactly when ``numeral_den``.
        """
        self._rewrite(rule, edit, conds)
        self._rewrite(RULE_CR_EVAL, ((0, link), signed_numeral, nv))
        if not numeral_den:
            self._rewrite(RULE_CR_EVAL, ((1, link), signed_numeral, dv))
        return self._finalize_fraction(link, nv, dv)

    def _finalize_fraction(self, link: _Link, nv: int, dv: int) -> _Frac:
        """Bring ``Div(nv, dv)`` of signed numerals at ``link`` to reduced form."""
        if dv == 0:
            self._rewrite(RULE_DBZ, (link, _flat, 0, 1))
            return 0, 1
        if dv < 0:
            return self._finalize_fraction(link, self._negate(link, nv, -dv), -dv)
        # The calculation relies on this denominator being nonzero; record
        # the witness so the derivation can be re-checked in prime fields.
        self.conditions.add(dv)
        g = math.gcd(nv, dv)
        if g > 1:
            nv, dv = nv // g, dv // g
            self._rewrite(RULE_FEQ, (link, _flat, nv, dv), (g,))
        return nv, dv

    def _merge_sum(self, link: _Link, left: _Frac, right: _Frac) -> _Frac:
        (n1, l1), (n2, l2) = left, right
        if not self.safe:
            edit = (link, _cfar, n1, l1, n2, l2)
            return self._contract(link, RULE_CFAR, edit, n1 * l2 + l1 * n2, l1 * l2, (l1, l2))
        g = math.gcd(l1, l2)
        m1, m2 = l2 // g, l1 // g
        for i, n, l, mult in ((0, n1, l1, m1), (1, n2, l2, m2)):
            if mult > 1:
                self._rewrite(RULE_FEQ, ((i, link), _flat, n * mult, l * mult), (mult,))
        n1, n2, den = n1 * m1, n2 * m2, l1 * m1
        edit = (link, _qcr, n1, n2, den)
        return self._contract(link, RULE_QCR, edit, n1 + n2, den, numeral_den=True)

    def _merge_product(self, link: _Link, left: _Frac, right: _Frac) -> _Frac:
        (n1, l1), (n2, l2) = left, right
        return self._contract(link, RULE_CR_MUL, (link, _cr_mul, n1, l1, n2, l2), n1 * n2, l1 * l2)

    def _divide(self, link: _Link, num: int | _Frac, den: int | _Frac) -> _Frac:
        if isinstance(num, tuple):
            # Normalize the new denominator ``l1 * den`` as its own subterm.
            num, l1 = num
            if isinstance(den, tuple):
                self._rewrite(RULE_DIV1, (link, _div1_over_flat, num, l1, *den))
                self._rewrite(RULE_CR_EMBED, ((0, (1, link)), _flat, l1, 1))
                den = self._merge_product((1, link), (l1, 1), den)
            else:
                self._rewrite(RULE_DIV1, (link, _div1, num, l1, den))
                den *= l1
                self._rewrite(RULE_CR_EVAL, ((1, link), signed_numeral, den))
        if isinstance(den, tuple):
            n2, l2 = den
            edit = (link, _div2, num, n2, l2)
            return self._contract(link, RULE_DIV2, edit, num * l2 * l2, n2 * l2)
        return self._finalize_fraction(link, num, den)


def _normalize(t: Term, safe: bool) -> NormalForm:
    # Every workload classifies a term in Q0 first, so its memo already decides safety.
    if safe and _facts(t, Q0())[1]:  # an open term's None falls through: the engine names it open
        pos, sub = find_unsafe_fraction(t)
        raise SafetyError(
            f"unsafe term: fraction {to_text(sub)} at position {list(pos)} "
            "has a denominator denoting zero",
            term=sub,
            position=pos,
        )
    return _Engine(safe).run(t)


def normalize_full(t: Term) -> NormalForm:
    """Normalize with the full calculus; zero denominators vanish as ``0/1``."""
    return _normalize(t, safe=False)


def normalize_safe(t: Term) -> NormalForm:
    """Normalize with division-safe rules only; unsafe input raises.

    The raised :class:`SafetyError` names the outermost fraction whose
    denominator denotes zero, so an unsafe term is never silently identified
    with a safe flat fraction.
    """
    return _normalize(t, safe=True)


# -- single-step rewriting -------------------------------------------------


def apply_rule(
    t: Term,
    rule: str,
    position: Position,
    instantiation: dict | None = None,
    *,
    enable_dbz: bool = False,
) -> Term:
    """Apply one rule instance at ``position`` and return the rewritten term.

    ``instantiation`` carries scheme parameters: ``FEQ`` takes ``{"k": int}``
    and optionally ``{"direction": "lr" | "rl"}`` (default left to right).
    ``DBZ`` must be enabled explicitly.  A non-matching instance raises
    :class:`MatchError`.
    """
    z = _Zipper(t)
    z.descend(position)
    z.focus = _apply_at(z.focus, rule, instantiation or {}, enable_dbz)
    return z.whole()


def _apply_at(sub: Term, rule: str, inst: dict, enable_dbz: bool) -> Term:
    if rule == RULE_DBZ:
        if not enable_dbz:
            raise MatchError("DBZ is disabled; pass enable_dbz=True to allow it")
        if isinstance(sub, Div) and eq_syn(sub.denominator, ZERO):
            return Div(ZERO, ONE)
        raise MatchError(f"DBZ expects x/0, found {to_text(sub)}")

    if rule == RULE_DIV1:
        if isinstance(sub, Div) and isinstance(sub.numerator, Div):
            inner = sub.numerator
            return Div(inner.numerator, Mul(inner.denominator, sub.denominator))
        raise MatchError(f"DIV1 expects (x/y)/z, found {to_text(sub)}")

    if rule == RULE_DIV2:
        if isinstance(sub, Div) and isinstance(sub.denominator, Div):
            x = sub.numerator
            y = sub.denominator.numerator
            z = sub.denominator.denominator
            return Div(Mul(Mul(x, z), z), Mul(y, z))
        raise MatchError(f"DIV2 expects x/(y/z), found {to_text(sub)}")

    if rule == RULE_QCR:
        if (
            isinstance(sub, Add)
            and isinstance(sub.left, Div)
            and isinstance(sub.right, Div)
            and eq_syn(sub.left.denominator, sub.right.denominator)
        ):
            return Div(Add(sub.left.numerator, sub.right.numerator), sub.left.denominator)
        raise MatchError(f"QCR expects x/y + u/y, found {to_text(sub)}")

    if rule == RULE_CFAR:
        if isinstance(sub, Add) and isinstance(sub.left, Div) and isinstance(sub.right, Div):
            x, y = sub.left.numerator, sub.left.denominator
            u, v = sub.right.numerator, sub.right.denominator
            return Div(Add(Mul(x, v), Mul(y, u)), Mul(y, v))
        raise MatchError(f"CFAR expects x/y + u/v, found {to_text(sub)}")

    if rule == RULE_FEQ:
        k = inst.get("k")
        if not isinstance(k, int) or k < 1:
            raise MatchError(f"FEQ needs a positive numeral k, got {k!r}")
        direction = inst.get("direction", "lr")
        if not isinstance(sub, Div):
            raise MatchError(f"FEQ expects a fraction, found {to_text(sub)}")
        if direction == "lr":
            return Div(_fold_mul(sub.numerator, k), _fold_mul(sub.denominator, k))
        if direction == "rl":
            nv = as_signed_numeral(sub.numerator)
            dv = as_signed_numeral(sub.denominator)
            if nv is None or dv is None or nv % k or dv % k:
                raise MatchError(
                    f"FEQ right-to-left needs numeral components divisible by {k}"
                )
            return Div(signed_numeral(nv // k), signed_numeral(dv // k))
        raise MatchError(f"FEQ direction must be 'lr' or 'rl', got {direction!r}")

    if rule == RULE_CR_EVAL:
        return signed_numeral(_ring_value(sub))

    if rule == RULE_CR_FRAC:
        if isinstance(sub, Neg) and isinstance(sub.arg, Div):
            return Div(Neg(sub.arg.numerator), sub.arg.denominator)
        if isinstance(sub, Div) and isinstance(sub.denominator, Neg):
            return Div(Neg(sub.numerator), sub.denominator.arg)
        raise MatchError(f"CR-frac expects -(x/y) or x/(-y), found {to_text(sub)}")

    if rule == RULE_CR_EMBED:
        if isinstance(sub, Div):
            raise MatchError("CR-embed expects a non-fraction")
        return Div(sub, ONE)

    if rule == RULE_CR_MUL:
        if isinstance(sub, Mul) and isinstance(sub.left, Div) and isinstance(sub.right, Div):
            return Div(
                Mul(sub.left.numerator, sub.right.numerator),
                Mul(sub.left.denominator, sub.right.denominator),
            )
        raise MatchError(f"CR-mul expects (x/y)*(u/v), found {to_text(sub)}")

    raise DomainError(f"unknown rule {rule!r}")


def replay_derivation(steps: Sequence[Step]) -> Term:
    """Re-derive every step, check it against the record, and return the final term.

    Each step's redex is re-contracted with its rule, whose recorded
    conditions must be exactly the numerals that rule instance assumes
    nonzero: ``{k}`` for ``FEQ``, the two denominators for ``CFAR`` and none
    for any other rule.  A run of steps along one record is checked at their
    redexes, in one :class:`_Zipper` walk over its edits from the run's first
    ``before``, and a hand-built step's whole ``after`` must match as well.
    A step that does not continue the previous step's record must start from
    the term the previous step left.  A step that does not reproduce or chain,
    or whose position addresses no subterm, raises :class:`MatchError`; an
    empty derivation raises :class:`DomainError`.
    """
    if not steps:
        raise DomainError("empty derivation")
    prev = z = None
    for i, step in enumerate(steps):
        terms, k = step._terms, step._i
        if not _continues(prev, step):
            previous, z = z, _Zipper(step.before)
            if previous is not None and not eq_syn(previous.whole(), z.focus):
                raise MatchError(f"step {i} does not chain from step {i - 1}")
        prev = step
        try:
            if type(terms) is not tuple:
                z.move(terms.edits[k][0])
                contractum, after = terms.contracta()[k], None
            else:  # a hand-built step, whose whole ``after`` must match
                z.descend(step.position)
                after = step.after
                contractum = subterm_at(after, step.position)
        except PositionError as exc:
            raise MatchError(f"step {i} ({step.rule}): {exc}") from None
        reproduced = eq_syn(_contract(step, z.focus, contractum), contractum)
        if reproduced:
            z.focus = contractum
        if not reproduced or after is not None and not eq_syn(z.whole(), after):
            raise MatchError(f"step {i} ({step.rule} at {list(step.position)}) does not reproduce")
    return z.whole()


def _contract(step: Step, redex: Term, contractum: Term) -> Term:
    """``step``'s rule applied at ``redex``, once its conditions are the rule instance's.

    ``FEQ`` runs in the direction that gives ``contractum``, if either does.
    """
    conditions = frozenset(step.conditions)
    if step.rule == RULE_FEQ:
        if len(conditions) != 1:
            raise MatchError(f"FEQ step records {len(conditions)} conditions, not one")
        (k,) = conditions
        forward = _apply_at(redex, RULE_FEQ, {"k": k}, False)
        if eq_syn(forward, contractum):
            return forward
        return _apply_at(redex, RULE_FEQ, {"k": k, "direction": "rl"}, False)
    needs = _cfar_conditions(redex) if step.rule == RULE_CFAR else _NO_CONDITIONS
    if conditions != needs:
        raise MatchError(
            f"{step.rule} step records conditions {sorted(conditions)}, not {sorted(needs)}"
        )
    return _apply_at(redex, step.rule, {}, True)


def _cfar_conditions(redex: Term) -> frozenset[int]:
    """The denominators of the ``CFAR`` redex ``x/k + u/l``, over numerals ``k`` and ``l``."""
    if type(redex) is Add and type(redex.left) is Div and type(redex.right) is Div:
        k, l = redex.left.denominator, redex.right.denominator
        if type(k) is Numeral and type(l) is Numeral:
            return frozenset((k.value, l.value))
    raise MatchError(f"CFAR replays only over numeral denominators, found {to_text(redex)}")


# -- normal-form comparison --------------------------------------------------


class EqualityEvidence(_Record):
    """Outcome of comparing two terms through their normal forms."""

    equal: bool
    left: NormalForm
    right: NormalForm
    _fields = tuple(__annotations__)

    @property
    def conditions(self) -> set[int]:
        return self.left.conditions | self.right.conditions

    def to_json_obj(self) -> dict:
        return {
            "equal": self.equal,
            "left": to_text(self.left.result),
            "right": to_text(self.right.result),
            "conditions": sorted(self.conditions),
        }

    def to_json(self, indent: int | str | None = 2) -> str:
        return _dumps(self.to_json_obj(), indent)


def check_equal(s: Term, t: Term, mode: str = "safe") -> EqualityEvidence:
    """Compare normal forms of two closed terms (``mode``: safe or full)."""
    if mode == "full":
        left, right = normalize_full(s), normalize_full(t)
    elif mode == "safe":
        left, right = normalize_safe(s), normalize_safe(t)
    else:
        raise DomainError(f"mode must be 'full' or 'safe', got {mode!r}")
    return EqualityEvidence(eq_syn(left.result, right.result), left, right)
