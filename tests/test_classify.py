"""Fraction classification and the three-equality hierarchy."""

import gc
import importlib
import random

import pytest

from fracterm.calculator import find_unsafe_fraction, normalize_full, normalize_safe
from fracterm.classify import classify, eq_pair, eq_val, simple_equivalent
from fracterm.errors import DomainError, EvalError, SafetyError
from fracterm.meadows import ERROR, CommonQ, Gfp, Q0, Residue, denote
from fracterm.syntax import parse
from fracterm.terms import (
    ONE,
    Add,
    Div,
    Neg,
    Numeral,
    Var,
    eq_syn,
    is_closed,
    replace_at,
    subterms,
)

from termgen import random_closed_term, random_fracterm, random_unsafe_biased_term

Q = Q0()


class TestClassifyExamples:
    def test_invalid_denominator_is_uncommon(self):
        c = classify(parse("(2+7)/(1+((7-5)-3))"), Q)
        assert c.is_fraction
        assert c.is_common is False
        assert c.is_uncommon is True
        assert c.is_safe_term is False

    def test_composed_fraction_keeps_its_numerator(self):
        c = classify(parse("(1+1/2)/3"), Q)
        assert c.is_fraction
        assert not c.is_flat
        assert c.is_composed
        assert c.numerator == parse("1+1/2")
        assert c.denominator == Numeral(3)

    def test_reducible_improper_fraction(self):
        c = classify(parse("4/2"), Q)
        assert c.is_simple
        assert c.is_scheinbruch
        assert c.is_improper
        assert not c.is_proper
        assert not c.is_simplified

    def test_unit_proper_simplified(self):
        c = classify(parse("1/2"), Q)
        assert c.is_unit
        assert c.is_proper
        assert c.is_simplified
        assert not c.is_scheinbruch

    def test_non_fraction_has_no_components(self):
        c = classify(Numeral(7), Q)
        assert not c.is_fraction
        assert c.numerator is None and c.denominator is None
        assert c.is_common is False and c.is_uncommon is False

    def test_flat_versus_composed(self):
        assert classify(parse("(2+3)/7"), Q).is_flat
        assert not classify(parse("(2+3)/7"), Q).is_composed
        assert classify(parse("((1/2))/7"), Q).is_composed

    def test_safety_looks_inside(self):
        c = classify(parse("1/1 + 1/0"), Q)
        assert not c.is_fraction
        assert c.is_safe_term is False
        safe = classify(parse("(1/2)/3"), Q)
        assert safe.is_safe_term is True

    def test_safe_fraction_requires_common_root(self):
        c = classify(parse("(1/2)/(1-1)"), Q)
        assert c.is_common is False
        assert c.is_safe_fraction is False

    def test_simplicity_is_backend_relative(self):
        t = parse("4/2")
        assert classify(t, Gfp(5)).is_simple
        assert classify(t, Gfp(2)).is_simple is False  # denominator vanishes mod 2

    def test_error_element_denominator_is_uncommon(self):
        c = classify(parse("1/(1/0)"), CommonQ())
        assert c.is_common is False
        assert c.is_uncommon is True

    def test_signed_numerator_records_sign(self):
        c = classify(Div(Neg(Numeral(2)), Numeral(4)), Q)
        assert c.is_simple
        assert c.sign == -1
        assert not c.is_simplified
        assert c.is_proper  # by the unsigned numerator 2 < 4

    def test_unit_fraction_with_non_numeral_denominator(self):
        c = classify(parse("1/(2+3)"), Q)
        assert c.is_unit
        assert c.is_simple is False


class TestOpenTerms:
    def test_backend_flags_indeterminate(self):
        c = classify(Div(Var("x"), Var("y")), Q)
        assert c.is_fraction and not c.is_closed
        assert c.is_common is None
        assert c.is_uncommon is None
        assert c.is_safe_term is None
        assert c.is_safe_fraction is None

    def test_unit_indeterminate_for_open_denominator(self):
        c = classify(Div(Numeral(1), Var("y")), Q)
        assert c.is_unit is None

    def test_structural_flags_still_computed(self):
        c = classify(Div(Var("x"), Var("y")), Q)
        assert c.is_flat
        assert c.is_simple is False

    def test_open_non_fraction(self):
        c = classify(Var("x"), Q)
        assert c.is_common is False and c.is_uncommon is False
        assert c.is_safe_term is None


class TestClassificationInvariants:
    def test_on_random_terms(self):
        rng = random.Random(21)
        for _ in range(300):
            t = random_closed_term(rng, 5)
            c = classify(t, Q)
            assert c.is_composed == (c.is_fraction and not c.is_flat)
            assert c.is_uncommon == (c.is_fraction and not c.is_common)
            assert (c.numerator is not None) == c.is_fraction
            assert (c.denominator is not None) == c.is_fraction
            if c.is_simple:
                assert c.is_common and c.is_flat
            assert not (c.is_proper and c.is_improper)
            if c.is_proper or c.is_improper:
                assert c.is_simple

    @pytest.mark.parametrize("meadow", [Q, CommonQ(), Gfp(2), Gfp(5)], ids=repr)
    def test_common_and_safe_follow_the_definition(self, meadow):
        # The definition, applied directly: denote every fraction's denominator.
        def nonzero(s):
            v = denote(s, meadow)
            return v is not ERROR and (v.value if isinstance(v, Residue) else v) != 0

        def with_variable(t):
            pos, sub = rng.choice(subterms(t))
            return replace_at(t, pos, Add(sub, Var("x")))

        rng = random.Random(24)
        for _ in range(150):
            closed = (random_closed_term(rng), random_unsafe_biased_term(rng))
            for t in (*closed, with_variable(closed[1])):
                c = classify(t, meadow)
                fraction = isinstance(t, Div)
                if not is_closed(t):
                    assert c.is_common == (None if fraction else False)
                    assert c.is_safe_term is None
                    continue
                assert c.is_common == (fraction and nonzero(t.denominator))
                assert c.is_safe_term == all(
                    nonzero(s.denominator) for _, s in subterms(t) if isinstance(s, Div)
                )

    def test_one_walk_per_term_for_all_its_callers(self, monkeypatch):
        # classify and the precheck share one walk of a term, and both
        # normalizers another; an open term is walked once and not evaluated.
        walked, evaluated = [], []
        for name in ("classify", "calculator", "meadows"):
            module = importlib.import_module(f"fracterm.{name}")
            real = module.postorder
            monkeypatch.setattr(module, "postorder", lambda t, real=real: walked.append(t) or real(t))
        module = importlib.import_module("fracterm.classify")
        pair = module._pair
        monkeypatch.setattr(module, "_pair", lambda nodes, *rest: evaluated.append(nodes[-1]) or pair(nodes, *rest))
        t = ONE
        for _ in range(60):
            t = Div(ONE, Add(ONE, t))
        for _ in range(2):
            c = classify(t, Q)
            assert c.is_closed and c.is_composed and (c.is_common, c.is_safe_term) == (True, True)
            assert find_unsafe_fraction(t) is None
            normalize_safe(t), normalize_full(t)
            assert len(walked) == 2 and all(s is t for s in walked) and evaluated == [t]
        walked.clear()
        open_term = Div(t, Var("x"))
        for _ in range(2):
            c = classify(open_term, Q)
            assert not c.is_closed and (c.is_common, c.is_safe_term) == (None, None)
        assert walked == [open_term] and evaluated == [t]
        with pytest.raises(EvalError, match="unbound variable 'x'"):
            find_unsafe_fraction(open_term)

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("text", ["1/2 + 1/3 + (4/6)/(2/3)", "1/2 + 3/(1 + -1)"], ids=["safe", "unsafe"])
    def test_memos_make_no_cycle(self, text, read):
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                t = parse(text)
                for meadow in (Q, Gfp(7), CommonQ()):
                    classify(t, meadow)
                found = find_unsafe_fraction(t)
                try:
                    nf = normalize_safe(t)
                except SafetyError:
                    nf = None
                for form in (nf, normalize_full(t)):
                    if read and form is not None:
                        form.trace[-1].after, form.to_json()
                del t, found, nf, form
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_each_meadow_has_its_own_facts(self):
        t = parse("1/7")
        flags = lambda m: (classify(t, m).is_common, classify(t, m).is_safe_term)
        for _ in range(2):
            assert flags(Q) == (True, True)
            assert flags(Gfp(7)) == (False, False)
            assert flags(Gfp(5)) == (True, True)
            assert flags(CommonQ()) == (True, True)
        assert classify(t, Gfp(7)) == classify(parse("1/7"), Gfp(7))

    def test_a_memo_hit_names_the_same_offender(self):
        text = "1/2 + (3/(1 + -1) + 5/0)"
        with pytest.raises(SafetyError) as cold:
            normalize_safe(parse(text))
        t = parse(text)
        assert not classify(t, Q).is_safe_term and find_unsafe_fraction(t)[0] == (1, 0)
        with pytest.raises(SafetyError) as warm:
            normalize_safe(t)
        assert str(warm.value) == str(cold.value)
        assert warm.value.position == cold.value.position == (1, 0)
        assert eq_syn(warm.value.term, cold.value.term)

    def test_json_shape(self):
        obj = classify(parse("4/2"), Q).to_json_obj()
        assert obj["is_simple"] is True
        assert obj["numerator"] == "4"
        assert obj["denominator"] == "2"
        assert obj["sign"] == 1
        none_obj = classify(Numeral(3), Q).to_json_obj()
        assert none_obj["numerator"] is None


class TestSimpleEquivalent:
    def test_cross_products_equal(self):
        assert simple_equivalent(parse("1/2"), parse("2/4"), Q)

    def test_cross_products_differ(self):
        assert not simple_equivalent(parse("1/2"), parse("2/3"), Q)

    def test_modular_equivalence(self):
        # 1*1 = 1 and 2*3 = 6 = 1 (mod 5), so the fractions agree in GF(5).
        assert simple_equivalent(parse("1/2"), parse("3/1"), Gfp(5))

    def test_rejects_non_simple(self):
        with pytest.raises(DomainError):
            simple_equivalent(parse("(1+1)/2"), parse("1/2"), Q)
        with pytest.raises(DomainError):
            simple_equivalent(parse("1/2"), parse("1/0"), Q)

    def test_reflexive_on_random_simple_fractions(self):
        rng = random.Random(24)
        for _ in range(100):
            f = Div(Numeral(rng.randint(0, 12)), Numeral(rng.randint(1, 12)))
            assert simple_equivalent(f, f, Q)


class TestEqualityHierarchy:
    def test_pair_distinguishes_value_identifies(self):
        s, t = parse("1/2"), parse("2/4")
        assert not eq_syn(s, t)
        assert not eq_pair(s, t, Q)
        assert eq_val(s, t, Q)

    def test_pair_identifies_componentwise_values(self):
        s, t = parse("(1+0)/2"), parse("1/2")
        assert not eq_syn(s, t)
        assert eq_pair(s, t, Q)

    def test_value_equality_spans_totalized_division(self):
        assert eq_val(parse("1/1 + 1/0"), Numeral(1), Q)

    def test_non_fraction_embeds_with_denominator_one(self):
        assert eq_pair(Numeral(3), parse("3/1"), Q)
        assert not eq_pair(Numeral(3), parse("6/2"), Q)

    def test_open_terms_rejected(self):
        with pytest.raises(EvalError):
            eq_pair(Var("x"), Var("x"), Q)
        with pytest.raises(EvalError):
            eq_val(Var("x"), Var("x"), Q)

    def test_hierarchy_on_random_pairs(self):
        rng = random.Random(22)
        backends = (Q, Gfp(5))
        for _ in range(300):
            s = random_fracterm(rng, 3)
            roll = rng.random()
            if roll < 0.4:
                t = s
            elif roll < 0.6:
                t = Div(Add(s.numerator, Numeral(0)), s.denominator)
            else:
                t = random_fracterm(rng, 3)
            for m in backends:
                if eq_syn(s, t):
                    assert eq_pair(s, t, m)
                if eq_pair(s, t, m):
                    assert eq_val(s, t, m)

    def test_same_denominator_sum_never_syntactically_flat(self):
        # x/y + u/y has a sum at the root, its merged form a division, so
        # the two are never the same tree.
        rng = random.Random(23)
        for _ in range(100):
            t = random_closed_term(rng, 3)
            r = random_closed_term(rng, 3)
            s = random_closed_term(rng, 3)
            lhs = Add(Div(t, r), Div(s, r))
            rhs = Div(Add(t, s), r)
            assert not eq_syn(lhs, rhs)
