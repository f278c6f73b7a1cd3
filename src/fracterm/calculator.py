"""Normalization of closed terms to simplified flat fractions.

Two normalizers share one bottom-up engine.  Both rewrite the whole term
step by step, so every derivation step records the complete term before and
after, the position rewritten, the rule applied, and the numerals the step
assumes nonzero.

* :func:`normalize_full` works in the totalized-rational reading: a fraction
  whose denominator evaluates to zero is collapsed to ``0/1`` (rule ``DBZ``)
  and sums of fractions are merged in one conditional-addition step
  (``CFAR``).
* :func:`normalize_safe` refuses unsafe input up front (any fraction whose
  denominator denotes zero) and then uses only division-safe rules: fraction
  sums are brought to a common denominator with ``FEQ`` and merged with
  ``QCR``.

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

import json
import math
from dataclasses import dataclass, field

from .errors import DomainError, EvalError, MatchError, SafetyError
from .meadows import Q0, evaluate
from .syntax import term_to_json_obj, to_text
from .terms import (
    Add,
    Div,
    Mul,
    Neg,
    Numeral,
    ONE,
    Position,
    Term,
    ZERO,
    as_signed_numeral,
    contains_div,
    eq_syn,
    is_closed,
    replace_at,
    signed_numeral,
    subterm_at,
    subterms,
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
    "Derivation",
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


@dataclass(frozen=True)
class Step:
    """One rewrite: ``before`` becomes ``after`` by ``rule`` at ``position``."""

    rule: str
    position: Position
    before: Term
    after: Term
    conditions: frozenset[int] = frozenset()

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule,
            "position": list(self.position),
            "before": term_to_json_obj(self.before),
            "after": term_to_json_obj(self.after),
            "conditions": sorted(self.conditions),
        }


Derivation = list[Step]


@dataclass
class NormalForm:
    """A simplified flat fraction with its hypotheses and derivation."""

    result: Term
    conditions: set[int]
    trace: Derivation = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "result": term_to_json_obj(self.result),
            "conditions": sorted(self.conditions),
            "steps": [s.to_json_obj() for s in self.trace],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)


def _ring_value(t: Term) -> int:
    """Integer value of a division-free closed term."""
    if isinstance(t, Numeral):
        return t.value
    if isinstance(t, Add):
        return _ring_value(t.left) + _ring_value(t.right)
    if isinstance(t, Mul):
        return _ring_value(t.left) * _ring_value(t.right)
    if isinstance(t, Neg):
        return -_ring_value(t.arg)
    raise MatchError(f"not a division-free closed term: {to_text(t)}")


def find_unsafe_fraction(t: Term) -> tuple[Position, Term] | None:
    """First (outermost, leftmost) fraction whose denominator denotes zero.

    Uses the totalized-rational reading to evaluate denominators, so it is
    total on closed terms.
    """
    unsafe: list[Div] = []
    evaluate(t, Q0(), unsafe=unsafe)
    if not unsafe:
        return None
    # A shared subterm has one value, so matching by identity is exact.
    ids = {id(s) for s in unsafe}
    return next((pos, s) for pos, s in subterms(t) if id(s) in ids)


def _fold_mul(t: Term, k: int) -> Term:
    """``t * k`` folded for signed numerals, else a syntactic product."""
    v = as_signed_numeral(t)
    if v is not None:
        return signed_numeral(v * k)
    return Mul(t, Numeral(k))


class _Engine:
    """Bottom-up rewriting session over one whole term."""

    def __init__(self, term: Term, safe: bool):
        self.current = term
        self.safe = safe
        self.steps: Derivation = []
        self.conditions: set[int] = set()

    def _sub(self, pos: Position) -> Term:
        return subterm_at(self.current, pos)

    def _rewrite(self, pos: Position, rule: str, new_sub: Term, conds=()) -> None:
        before = self.current
        after = replace_at(before, pos, new_sub)
        conds = frozenset(conds)
        self.steps.append(Step(rule, pos, before, after, conds))
        self.conditions |= conds
        self.current = after

    # -- canonical shapes -------------------------------------------------
    #
    # Normalized subterms take one of two shapes:
    #   pure:  k  or  -(k)          (a signed numeral)
    #   frac:  Div(pure, l) with l a positive numeral, gcd-reduced
    # ``_norm`` returns which shape the subterm at ``pos`` now has; a
    # subterm normalizes to ``frac`` exactly when a division occurs in it.

    def _canon_pure(self, pos: Position) -> None:
        t = self._sub(pos)
        canon = signed_numeral(_ring_value(t))
        if not eq_syn(t, canon):
            self._rewrite(pos, RULE_CR_EVAL, canon)

    def _embed(self, pos: Position) -> None:
        self._rewrite(pos, RULE_CR_EMBED, Div(self._sub(pos), ONE))

    def _frac_parts(self, pos: Position) -> tuple[int, int]:
        t = self._sub(pos)
        assert isinstance(t, Div)
        nv = as_signed_numeral(t.numerator)
        dv = as_signed_numeral(t.denominator)
        assert nv is not None and dv is not None
        return nv, dv

    def _finalize_fraction(self, pos: Position) -> None:
        """Bring ``Div(pure, pure)`` at ``pos`` to canonical reduced form."""
        nv, dv = self._frac_parts(pos)
        if dv == 0:
            if self.safe:  # pragma: no cover - excluded by the safety precheck
                raise AssertionError("zero denominator reached in safe mode")
            self._rewrite(pos, RULE_DBZ, Div(ZERO, ONE))
            return
        if dv < 0:
            t = self._sub(pos)
            assert isinstance(t, Div) and isinstance(t.denominator, Neg)
            self._rewrite(pos, RULE_CR_FRAC, Div(Neg(t.numerator), t.denominator.arg))
            self._canon_pure(pos + (0,))
            nv, dv = -nv, -dv
        # The calculation relies on this denominator being nonzero; record
        # the witness so the derivation can be re-checked in prime fields.
        self.conditions.add(dv)
        g = math.gcd(abs(nv), dv)
        if g > 1:
            self._rewrite(
                pos,
                RULE_FEQ,
                Div(signed_numeral(nv // g), Numeral(dv // g)),
                conds=(g,),
            )

    # -- structural cases --------------------------------------------------

    def _norm(self, pos: Position) -> str:
        t = self._sub(pos)
        if not contains_div(t):
            self._canon_pure(pos)
            return "pure"
        if isinstance(t, Neg):
            self._norm(pos + (0,))
            inner = self._sub(pos + (0,))
            assert isinstance(inner, Div)
            self._rewrite(pos, RULE_CR_FRAC, Div(Neg(inner.numerator), inner.denominator))
            self._canon_pure(pos + (0,))
            return "frac"
        if isinstance(t, Add):
            self._norm_binary_operands(pos)
            self._merge_sum(pos)
            return "frac"
        if isinstance(t, Mul):
            self._norm_binary_operands(pos)
            self._merge_product(pos)
            return "frac"
        # Only Div remains: leaves never contain a division.
        assert isinstance(t, Div)
        self._norm_division(pos)
        return "frac"

    def _norm_binary_operands(self, pos: Position) -> None:
        """Normalize both operands and embed any pure one as ``x/1``."""
        for i in (0, 1):
            if self._norm(pos + (i,)) == "pure":
                self._embed(pos + (i,))

    def _merge_sum(self, pos: Position) -> None:
        _, l1 = self._frac_parts(pos + (0,))
        _, l2 = self._frac_parts(pos + (1,))
        if self.safe:
            g = math.gcd(l1, l2)
            for i, mult in ((0, l2 // g), (1, l1 // g)):
                if mult > 1:
                    sub = self._sub(pos + (i,))
                    assert isinstance(sub, Div) and isinstance(sub.denominator, Numeral)
                    self._rewrite(
                        pos + (i,),
                        RULE_FEQ,
                        Div(
                            _fold_mul(sub.numerator, mult),
                            Numeral(sub.denominator.value * mult),
                        ),
                        conds=(mult,),
                    )
            left = self._sub(pos + (0,))
            right = self._sub(pos + (1,))
            assert isinstance(left, Div) and isinstance(right, Div)
            self._rewrite(
                pos,
                RULE_QCR,
                Div(Add(left.numerator, right.numerator), left.denominator),
            )
            self._canon_pure(pos + (0,))
        else:
            left = self._sub(pos + (0,))
            right = self._sub(pos + (1,))
            assert isinstance(left, Div) and isinstance(right, Div)
            self._rewrite(
                pos,
                RULE_CFAR,
                Div(
                    Add(
                        Mul(left.numerator, right.denominator),
                        Mul(left.denominator, right.numerator),
                    ),
                    Mul(left.denominator, right.denominator),
                ),
                conds=(l1, l2),
            )
            self._canon_pure(pos + (0,))
            self._canon_pure(pos + (1,))
        self._finalize_fraction(pos)

    def _merge_product(self, pos: Position) -> None:
        left = self._sub(pos + (0,))
        right = self._sub(pos + (1,))
        assert isinstance(left, Div) and isinstance(right, Div)
        self._rewrite(
            pos,
            RULE_CR_MUL,
            Div(
                Mul(left.numerator, right.numerator),
                Mul(left.denominator, right.denominator),
            ),
        )
        self._canon_pure(pos + (0,))
        self._canon_pure(pos + (1,))
        self._finalize_fraction(pos)

    def _norm_division(self, pos: Position) -> None:
        num_shape = self._norm(pos + (0,))
        den_shape = self._norm(pos + (1,))
        if num_shape == "frac":
            t = self._sub(pos)
            assert isinstance(t, Div) and isinstance(t.numerator, Div)
            self._rewrite(
                pos,
                RULE_DIV1,
                Div(
                    t.numerator.numerator,
                    Mul(t.numerator.denominator, t.denominator),
                ),
            )
            den_shape = self._norm(pos + (1,))
        if den_shape == "frac":
            t = self._sub(pos)
            assert isinstance(t, Div) and isinstance(t.denominator, Div)
            x = t.numerator
            y = t.denominator.numerator
            z = t.denominator.denominator
            self._rewrite(pos, RULE_DIV2, Div(Mul(Mul(x, z), z), Mul(y, z)))
            self._canon_pure(pos + (0,))
            self._canon_pure(pos + (1,))
        self._finalize_fraction(pos)


def _normalize(t: Term, safe: bool) -> NormalForm:
    if not is_closed(t):
        raise EvalError(f"cannot normalize an open term: {to_text(t)}")
    if safe:
        offender = find_unsafe_fraction(t)
        if offender is not None:
            pos, sub = offender
            raise SafetyError(
                f"unsafe term: fraction {to_text(sub)} at position {list(pos)} "
                "has a denominator denoting zero",
                term=sub,
                position=pos,
            )
    engine = _Engine(t, safe)
    if engine._norm(()) == "pure":
        engine._embed(())
    return NormalForm(engine.current, engine.conditions, engine.steps)


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
    inst = instantiation or {}
    sub = subterm_at(t, tuple(position))
    return replace_at(t, tuple(position), _apply_at(sub, rule, inst, enable_dbz))


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


def replay_derivation(steps: Derivation) -> Term:
    """Re-apply every step and verify the recorded terms; return the final term.

    Raises :class:`MatchError` if a step does not reproduce or consecutive
    steps fail to chain.
    """
    if not steps:
        raise DomainError("empty derivation")
    for i, step in enumerate(steps):
        if i > 0 and not eq_syn(steps[i - 1].after, step.before):
            raise MatchError(f"step {i} does not chain from step {i - 1}")
        redone = _replay_step(step)
        if not eq_syn(redone, step.after):
            raise MatchError(
                f"step {i} ({step.rule} at {list(step.position)}) does not reproduce"
            )
    return steps[-1].after


def _replay_step(step: Step) -> Term:
    if step.rule == RULE_FEQ:
        if len(step.conditions) != 1:
            raise MatchError(f"FEQ step records {len(step.conditions)} conditions, not one")
        (k,) = step.conditions
        forward = apply_rule(step.before, RULE_FEQ, step.position, {"k": k})
        if eq_syn(forward, step.after):
            return forward
        return apply_rule(step.before, RULE_FEQ, step.position, {"k": k, "direction": "rl"})
    return apply_rule(step.before, step.rule, step.position, enable_dbz=True)


# -- normal-form comparison --------------------------------------------------


@dataclass
class EqualityEvidence:
    """Outcome of comparing two terms through their normal forms."""

    equal: bool
    left: NormalForm
    right: NormalForm

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


def check_equal(s: Term, t: Term, mode: str = "safe") -> EqualityEvidence:
    """Compare normal forms of two closed terms (``mode``: safe or full)."""
    if mode == "full":
        left, right = normalize_full(s), normalize_full(t)
    elif mode == "safe":
        left, right = normalize_safe(s), normalize_safe(t)
    else:
        raise DomainError(f"mode must be 'full' or 'safe', got {mode!r}")
    return EqualityEvidence(eq_syn(left.result, right.result), left, right)
