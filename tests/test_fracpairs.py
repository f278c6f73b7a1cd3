"""Integer-pair arithmetic: gcd-based addition and the zero-denominator axioms."""

import math
import random
from fractions import Fraction

import pytest

from fracterm.errors import DomainError, ParseError
from fracterm.fracpairs import (
    Fracpair,
    ZeroMode,
    fp_add,
    fp_div,
    fp_eq,
    fp_equiv,
    fp_mul,
    fp_neg,
    fp_value,
    fracpair_to_json_obj,
    int_div,
    parse_fracpair,
)


class TestIntDiv:
    def test_zero_divisor_gives_zero(self):
        assert int_div(5, 0) == 0
        assert int_div(-5, 0) == 0
        assert int_div(0, 0) == 0

    def test_exact_divisions(self):
        assert int_div(6, 3) == 2
        assert int_div(-6, 3) == -2
        assert int_div(6, -3) == -2
        assert int_div(-6, -3) == 2

    def test_truncates_toward_zero(self):
        assert int_div(7, 2) == 3
        assert int_div(-7, 2) == -3


class TestAddition:
    def test_equal_denominators_keep_the_denominator(self):
        assert fp_add(Fracpair(1, 2), Fracpair(1, 2)) == Fracpair(2, 2)

    def test_coprime_denominators(self):
        # By hand: (1*3 + 2*1) / (2*3), gcd(2, 3) = 1.
        assert fp_add(Fracpair(1, 2), Fracpair(1, 3)) == Fracpair(5, 6)

    def test_zero_denominator_operand_is_dropped(self):
        assert fp_add(Fracpair(7, 3), Fracpair(9, 0)) == Fracpair(7, 3)
        assert fp_add(Fracpair(9, 0), Fracpair(7, 3)) == Fracpair(7, 3)

    def test_both_zero_collapse(self):
        assert fp_add(Fracpair(2, 0), Fracpair(3, 0), ZeroMode.COLLAPSE) == Fracpair(0, 0)

    def test_both_zero_sum_numerators(self):
        assert fp_add(
            Fracpair(2, 0), Fracpair(3, 0), ZeroMode.SUM_NUMERATORS
        ) == Fracpair(5, 0)

    def test_denominator_is_lcm_for_positive_inputs(self):
        rng = random.Random(31)
        for _ in range(500):
            p, r = rng.randint(-20, 20), rng.randint(-20, 20)
            q, s = rng.randint(1, 20), rng.randint(1, 20)
            out = fp_add(Fracpair(p, q), Fracpair(r, s))
            assert out.den == math.lcm(q, s)

    def test_negative_denominators_flow_through(self):
        # gcd over absolute values; no sign normalization on the result.
        out = fp_add(Fracpair(1, -2), Fracpair(1, 4))
        assert out == Fracpair(int_div(1 * 4 + (-2) * 1, 2), int_div(-8, 2))
        assert out == Fracpair(1, -4)

    def test_conditional_same_denominator_law(self):
        # Componentwise for positive denominators; a negative q comes out as
        # (-(p+r))/(-q), still cross-multiplication equivalent.
        for q in (-3, -1, 1, 2, 6):
            for p in range(-6, 7):
                for r in range(-6, 7):
                    got = fp_add(Fracpair(p, q), Fracpair(r, q))
                    want = Fracpair(p + r, q)
                    if q > 0:
                        assert fp_eq(got, want)
                    else:
                        assert fp_eq(got, Fracpair(-(p + r), -q))
                        assert fp_equiv(got, want)

    def test_unconditional_law_under_sum_mode(self):
        for q in (0, 1, 3):
            for p in range(-5, 6):
                for r in range(-5, 6):
                    got = fp_add(Fracpair(p, q), Fracpair(r, q), ZeroMode.SUM_NUMERATORS)
                    assert fp_eq(got, Fracpair(p + r, q))

    def test_collapse_mode_breaks_unconditional_law(self):
        got = fp_add(Fracpair(2, 0), Fracpair(3, 0), ZeroMode.COLLAPSE)
        assert not fp_eq(got, Fracpair(5, 0))


class TestComponentwiseOps:
    def test_mul_is_unreduced(self):
        assert fp_mul(Fracpair(1, 2), Fracpair(2, 3)) == Fracpair(2, 6)

    def test_div_swaps(self):
        assert fp_div(Fracpair(1, 4), Fracpair(3, 2)) == Fracpair(2, 12)

    def test_neg(self):
        assert fp_neg(Fracpair(-3, 5)) == Fracpair(3, 5)

    def test_zero_denominators_flow_literally(self):
        assert fp_mul(Fracpair(1, 0), Fracpair(2, 3)) == Fracpair(2, 0)
        assert fp_div(Fracpair(1, 2), Fracpair(0, 3)) == Fracpair(3, 0)


class TestEqualitiesAndValue:
    def test_pair_equality_is_componentwise(self):
        assert not fp_eq(Fracpair(1, 2), Fracpair(2, 4))
        assert fp_eq(Fracpair(1, 2), Fracpair(1, 2))

    def test_cross_multiplication_equivalence(self):
        assert fp_equiv(Fracpair(1, 2), Fracpair(2, 4))
        assert not fp_equiv(Fracpair(1, 2), Fracpair(2, 3))

    def test_zero_denominators_are_all_equivalent(self):
        assert fp_equiv(Fracpair(1, 0), Fracpair(2, 0))

    def test_value_of_zero_denominator_is_zero(self):
        assert fp_value(Fracpair(3, 0)) == Fraction(0)

    def test_value_reduces(self):
        assert fp_value(Fracpair(2, 4)) == Fraction(1, 2)
        assert fp_value(Fracpair(1, -2)) == Fraction(-1, 2)

    def test_value_coherence_with_nonzero_denominators(self):
        rng = random.Random(32)
        for _ in range(500):
            a = Fracpair(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]))
            b = Fracpair(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]))
            assert fp_value(fp_add(a, b)) == fp_value(a) + fp_value(b)
            assert fp_value(fp_mul(a, b)) == fp_value(a) * fp_value(b)
            assert fp_value(fp_neg(a)) == -fp_value(a)
            if b.num != 0:
                assert fp_value(fp_div(a, b)) == fp_value(a) / fp_value(b)


class TestTextAndJson:
    def test_parse(self):
        assert parse_fracpair("3/4") == Fracpair(3, 4)
        assert parse_fracpair("-3/4") == Fracpair(-3, 4)
        assert parse_fracpair("3/-4") == Fracpair(3, -4)
        assert parse_fracpair(" 12 / 0 ") == Fracpair(12, 0)

    @pytest.mark.parametrize("bad", ["", "3", "3/", "/4", "a/b", "1/2/3", "1.5/2", "\u0663/\u0664"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_fracpair(bad)

    def test_str(self):
        assert str(Fracpair(-3, 4)) == "-3/4"

    def test_json(self):
        assert fracpair_to_json_obj(Fracpair(10**30, -1)) == {
            "num": str(10**30),
            "den": "-1",
        }

    def test_zero_mode_names(self):
        assert ZeroMode.from_name("sum") is ZeroMode.SUM_NUMERATORS
        assert ZeroMode.from_name("collapse") is ZeroMode.COLLAPSE
        with pytest.raises(DomainError):
            ZeroMode.from_name("other")
