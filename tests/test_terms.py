"""Tests for the term algebra: construction, traversal, syntactic equality."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from fracterm.calculator import EqualityEvidence, apply_rule, normalize_safe
from fracterm.errors import PositionError
from fracterm.fracpairs import Fracpair
from fracterm.meadows import CommonQ, Gfp, Q0, check_identity, denote
from fracterm.syntax import parse, term_to_json_obj
from fracterm.terms import (
    Add,
    Div,
    Mul,
    Neg,
    Numeral,
    ONE,
    Var,
    as_signed_numeral,
    children,
    depth,
    eq_syn,
    expand_numeral,
    free_vars,
    is_closed,
    node_count,
    numeral,
    replace_at,
    signed_numeral,
    subterm_at,
    subterms,
)

from termgen import open_term, random_closed_term


def terms_strategy(with_vars: bool = True):
    leaves = [st.builds(Numeral, st.integers(min_value=0, max_value=20))]
    if with_vars:
        leaves.append(st.builds(Var, st.sampled_from(["x", "y", "z", "u", "v"])))
    return st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            st.builds(Add, sub, sub),
            st.builds(Mul, sub, sub),
            st.builds(Neg, sub),
            st.builds(Div, sub, sub),
        ),
        max_leaves=25,
    )


class TestConstruction:
    def test_numeral(self):
        assert numeral(0) == Numeral(0)
        assert numeral(1) == Numeral(1)
        assert numeral(5) == Numeral(5)

    def test_negative_numeral_rejected(self):
        with pytest.raises(ValueError):
            Numeral(-1)

    def test_signed_numeral(self):
        assert signed_numeral(3) == Numeral(3)
        assert signed_numeral(-3) == Neg(Numeral(3))
        assert signed_numeral(0) == Numeral(0)

    def test_as_signed_numeral(self):
        assert as_signed_numeral(Numeral(4)) == 4
        assert as_signed_numeral(Neg(Numeral(4))) == -4
        assert as_signed_numeral(Neg(Numeral(0))) is None  # not canonical
        assert as_signed_numeral(Add(Numeral(1), Numeral(1))) is None

    def test_repr_past_the_digit_limit(self):
        # An int too long for str() shows its bit length; shorter ones show their digits.
        n = (10**4000 - 1) ** 2
        summary = f"<int of {n.bit_length()} bits>"
        result = normalize_safe(parse("9" * 4000 + "*" + "9" * 4000)).result
        assert repr(result) == f"Div(numerator=Numeral(value={summary}), denominator=Numeral(value=1))"
        assert repr(Fracpair(-n, 1)) == f"Fracpair(num=-{summary}, den=1)"
        assert repr(Numeral(10**4299)) == f"Numeral(value={10**4299})"

    def test_repr_past_the_digit_limit_inside_containers(self):
        # Conditions are a set, a trace a list, a counterexample a dict of Fractions.
        n = (10**3000 - 1) ** 2
        summary = f"<int of {n.bit_length()} bits>"
        nf = normalize_safe(parse("1/(" + "9" * 3000 + "*" + "9" * 3000 + ")"))
        text = repr(nf)
        assert f"conditions={{{summary}}}, trace=[Step(rule='CR-eval'" in text
        after = f"Div(numerator=Numeral(value=1), denominator=Numeral(value={summary}))"
        assert text.endswith(f"after={after}, conditions=frozenset())])")
        big = 10**5000
        report = check_identity(parse("x"), parse("x+1"), [], Q0(), [{"x": Fraction(big)}])
        summary = f"<int of {big.bit_length()} bits>"
        assert repr(report).endswith(f"counterexample={{'x': Fraction({summary}, 1)}})")
        shown = [
            ((big,), f"({summary},)"),
            ((1, -big), f"(1, -{summary})"),
            (frozenset({big}), f"frozenset({{{summary}}})"),
            (Fraction(1, big), f"Fraction(1, {summary})"),
            ([{"a": big}], f"[{{'a': {summary}}}]"),
        ]
        for value, text in shown:
            shown_as = f"EqualityEvidence(equal={text}, left=None, right=None)"
            assert repr(EqualityEvidence(value, None, None)) == shown_as

    def test_repr_of_a_value_that_cannot_be_shown_raises(self):
        class Unshown:
            def __repr__(self):
                raise ValueError("not shown")

        with pytest.raises(ValueError, match="not shown"):
            repr(EqualityEvidence(Unshown(), None, None))


class TestRecord:
    def test_fields_each_once(self):
        EqualityEvidence(True, left=None, right=None)
        too_few, twice, unknown = (True, None), (True, None, None), (True,)
        for args, kwargs in [(too_few, {}), (twice, {"left": None}), (unknown, {"left": None, "other": None})]:
            with pytest.raises(TypeError, match="takes the fields"):
                EqualityEvidence(*args, **kwargs)

    def test_compares_only_with_its_own_type(self):
        e = EqualityEvidence(True, None, None)
        assert e.__eq__((True, None, None)) is NotImplemented
        assert e != (True, None, None) and e == EqualityEvidence(True, None, None)

    def test_repr_of_a_record_inside_itself(self):
        e = EqualityEvidence(True, None, None)
        e.left = e
        assert repr(e) == "EqualityEvidence(equal=True, left=..., right=None)"
        e.right = EqualityEvidence(False, e, None)
        inner = "EqualityEvidence(equal=False, left=..., right=None)"
        assert repr(e) == f"EqualityEvidence(equal=True, left=..., right={inner})"


class TestExpandNumeral:
    def test_three_is_left_nested(self):
        assert expand_numeral(Numeral(3)) == Add(Add(Numeral(1), Numeral(1)), Numeral(1))

    def test_base_cases_unchanged(self):
        assert expand_numeral(Numeral(0)) == Numeral(0)
        assert expand_numeral(Numeral(1)) == Numeral(1)

    def test_recurses_structurally(self):
        t = Div(Numeral(2), Var("x"))
        assert expand_numeral(t) == Div(Add(Numeral(1), Numeral(1)), Var("x"))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            t = random_closed_term(rng, 4)
            once = expand_numeral(t)
            assert expand_numeral(once) == once

    def test_preserves_value_in_every_backend(self):
        rng = random.Random(12)
        backends = (Q0(), Gfp(5), CommonQ())
        for _ in range(100):
            t = random_closed_term(rng, 5)
            for m in backends:
                assert denote(expand_numeral(t), m) == denote(t, m)


class TestClosednessAndEquality:
    def test_is_closed(self):
        assert is_closed(Div(Numeral(1), Numeral(2)))
        assert not is_closed(Div(Var("x"), Numeral(2)))
        assert is_closed(Numeral(7))

    def test_free_vars(self):
        t = Add(Div(Var("x"), Var("y")), Var("x"))
        assert free_vars(t) == {"x", "y"}

    def test_eq_syn_identity(self):
        t = Div(Numeral(1), Numeral(2))
        assert eq_syn(t, Div(Numeral(1), Numeral(2)))

    def test_eq_syn_distinguishes_equivalent_fractions(self):
        assert not eq_syn(Div(Numeral(1), Numeral(2)), Div(Numeral(2), Numeral(4)))

    def test_eq_syn_distinguishes_variables(self):
        assert not eq_syn(Var("x"), Var("y"))
        assert not eq_syn(Div(ONE, Var("x")), Div(ONE, Var("y")))

    def test_numeral_is_not_a_sum_of_units(self):
        assert not eq_syn(Numeral(2), Add(Numeral(1), Numeral(1)))

    @given(terms_strategy())
    def test_eq_syn_reflexive(self, t):
        assert eq_syn(t, t)


class TestTraversal:
    def test_subterm_at(self):
        t = Div(Add(Numeral(1), Numeral(2)), Numeral(7))
        assert subterm_at(t, (0,)) == Add(Numeral(1), Numeral(2))
        assert subterm_at(t, (0, 1)) == Numeral(2)
        assert subterm_at(t, ()) == t

    def test_subterms_of_leaf(self):
        assert subterms(Numeral(1)) == [((), Numeral(1))]

    def test_subterm_at_invalid_position(self):
        with pytest.raises(PositionError):
            subterm_at(Numeral(1), (0,))
        # A position is a list of in-range ints; a bool or float is not an index.
        t = parse("(1/2)/3")
        for pos in (("a",), (0.0,), (True,), (-1,), (2,), (0, 0, 0), None, 5):
            with pytest.raises(PositionError):
                subterm_at(t, pos)
            with pytest.raises(PositionError):
                replace_at(t, pos, Numeral(1))
            with pytest.raises(PositionError):
                apply_rule(t, "DIV1", pos)
        with pytest.raises(PositionError):
            apply_rule(t, "DIV1", None)

    @given(terms_strategy())
    def test_subterm_count_matches_node_count(self, t):
        entries = subterms(t)
        assert len(entries) == node_count(t)
        for pos, sub in entries:
            assert subterm_at(t, pos) == sub

    @given(terms_strategy())
    def test_replace_round_trip(self, t):
        for pos, sub in subterms(t):
            assert replace_at(t, pos, sub) == t

    def test_replace_at(self):
        t = Div(Add(Numeral(1), Numeral(2)), Numeral(7))
        assert replace_at(t, (0,), Numeral(3)) == Div(Numeral(3), Numeral(7))

    def test_depth(self):
        assert depth(Numeral(3)) == 0
        assert depth(Neg(Div(Numeral(1), Numeral(2)))) == 2


def _ref_hash(t):
    leaf = (t.value,) if type(t) is Numeral else (t.name,) if type(t) is Var else None
    return hash((type(t), *(leaf or map(_ref_hash, children(t)))))


def _ref_depth(t):
    return max((_ref_depth(c) + 1 for c in children(t)), default=0)


def _ref_expand(t):
    if type(t) is Numeral:
        return reduce(Add, [ONE] * t.value) if t.value > 1 else t
    return t if type(t) is Var else type(t)(*map(_ref_expand, children(t)))


def _ref_json(t):
    if type(t) is Numeral:
        return {"num": str(t.value)}
    if type(t) is Var:
        return {"var": t.name}
    op = {Add: "add", Mul: "mul", Neg: "neg", Div: "div"}[type(t)]
    return {"op": op, "args": [_ref_json(c) for c in children(t)]}


def _rebuilt(t):
    return type(t)(*map(_rebuilt, children(t))) if children(t) else type(t)(*t._values())


class TestFolds:
    def test_folds_equal_recursive_references(self):
        # The references walk operands in constructor order, so an operand
        # order slip in the fold shows in the non-commutative encodings.
        rng = random.Random(31)
        for i in range(300):
            t = random_closed_term(rng, 6, 12)
            if i % 2:
                t = open_term(rng, t)
            assert hash(t) == _ref_hash(t)
            twin = _rebuilt(t)
            assert twin == t and hash(twin) == hash(t)
            assert depth(t) == _ref_depth(t)
            assert eq_syn(expand_numeral(t), _ref_expand(t))
            assert term_to_json_obj(t) == _ref_json(t)
