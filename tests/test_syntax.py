"""Parser and printer tests, including the round-trip property."""

import pytest
from hypothesis import given

from fracterm.errors import ParseError
from fracterm.syntax import (
    parse,
    term_from_json,
    term_from_json_obj,
    term_to_json,
    term_to_json_obj,
    to_text,
)
from fracterm.terms import Add, Div, Mul, Neg, Numeral, Var

from test_terms import terms_strategy


class TestParse:
    def test_grouped_sum_over_literal(self):
        assert parse("(2+3)/7") == Div(Add(Numeral(2), Numeral(3)), Numeral(7))

    def test_mixed_literal(self):
        assert parse("3_1/2") == Add(Numeral(3), Div(Numeral(1), Numeral(2)))

    def test_negated_mixed_literal_covers_whole_sum(self):
        assert parse("-3_1/2") == Neg(Add(Numeral(3), Div(Numeral(1), Numeral(2))))

    def test_division_is_left_associative(self):
        assert parse("1/2/3") == Div(Div(Numeral(1), Numeral(2)), Numeral(3))

    def test_mul_and_div_share_precedence(self):
        assert parse("1/2*3") == Mul(Div(Numeral(1), Numeral(2)), Numeral(3))
        assert parse("1*2/3") == Div(Mul(Numeral(1), Numeral(2)), Numeral(3))

    def test_additive_precedence(self):
        assert parse("1+2*3") == Add(Numeral(1), Mul(Numeral(2), Numeral(3)))

    def test_subtraction_desugars(self):
        assert parse("2-3") == Add(Numeral(2), Neg(Numeral(3)))

    def test_subtraction_left_associative(self):
        assert parse("1-2-3") == Add(Add(Numeral(1), Neg(Numeral(2))), Neg(Numeral(3)))

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse("-2*3") == Mul(Neg(Numeral(2)), Numeral(3))

    def test_double_unary_minus(self):
        assert parse("--2") == Neg(Neg(Numeral(2)))

    def test_variables(self):
        assert parse("(x+y)/z") == Div(Add(Var("x"), Var("y")), Var("z"))

    def test_whitespace_tolerated(self):
        assert parse(" 1 + 2 ") == Add(Numeral(1), Numeral(2))

    REJECTED = [
        ("", "empty input", None),
        ("0.5", "decimal fractions are not supported (at column 1)", 1),
        ("(1", "expected ')', found end of input", None),
        ("1)", "unexpected trailing token ')' (at column 1)", 1),
        ("1 2", "unexpected trailing token 2 (at column 2)", 2),
        ("1+", "unexpected end of input", None),
        ("*3", "unexpected token '*' (at column 0)", 0),
        ("3_1", "malformed mixed literal (at column 0)", 0),
        ("3_1/", "malformed mixed literal (at column 0)", 0),
        ("3_/2", "malformed mixed literal (at column 0)", 0),
        ("1//2", "unexpected token '/' (at column 2)", 2),
        ("#", "unexpected character '#' (at column 0)", 0),
        ("\u0661/2", "only ASCII input is supported", None),
    ]

    @pytest.mark.parametrize(
        ("bad", "message", "column"), REJECTED, ids=[bad for bad, _, _ in REJECTED]
    )
    def test_rejects(self, bad, message, column):
        with pytest.raises(ParseError) as exc_info:
            parse(bad)
        assert str(exc_info.value) == message
        assert exc_info.value.position == column

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse("1+$")
        assert exc_info.value.position == 2

    @pytest.mark.parametrize(
        ("src", "column"),
        [("9" * 5000, 0), ("1+" + "9" * 5000, 2), ("1_1/" + "9" * 5000, 4)],
        ids=["alone", "summand", "mixed"],
    )
    def test_oversized_numeral(self, src, column):
        with pytest.raises(ParseError, match="limit of 4300 digits") as exc_info:
            parse(src)
        assert exc_info.value.position == column

    def test_oversized_json_numeral(self):
        with pytest.raises(ParseError, match="limit of 4300 digits"):
            term_from_json_obj({"num": "9" * 5000})


class TestPrint:
    def test_fraction(self):
        assert to_text(Div(Numeral(1), Numeral(2))) == "(1/2)"

    def test_negation_in_sum(self):
        assert to_text(Add(Numeral(1), Neg(Numeral(1)))) == "(1+(-1))"

    def test_nested_fraction(self):
        t = Div(Div(Numeral(1), Numeral(4)), Div(Numeral(3), Numeral(2)))
        assert to_text(t) == "((1/4)/(3/2))"

    @given(terms_strategy())
    def test_round_trip(self, t):
        assert parse(to_text(t)) == t


def _cyclic_neg():
    obj = {"op": "neg", "args": []}
    obj["args"].append(obj)
    return obj


class TestJson:
    def test_encoding_shape(self):
        t = Div(Add(Numeral(2), Var("x")), Numeral(7))
        assert term_to_json_obj(t) == {
            "op": "div",
            "args": [
                {"op": "add", "args": [{"num": "2"}, {"var": "x"}]},
                {"num": "7"},
            ],
        }

    @given(terms_strategy())
    def test_round_trip(self, t):
        assert term_from_json(term_to_json(t)) == t

    @pytest.mark.parametrize(
        "obj",
        [
            {"num": "-1"},
            {"num": 3},
            {"var": ""},
            {"op": "pow", "args": []},
            {"op": "neg", "args": []},
            {"op": "add", "args": [{"num": "1"}]},
            [],
            {"num": "\u00b2"},
            {"num": "\u0663"},
            {"var": "\u00e9"},
            {"var": "1x"},
            _cyclic_neg(),
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(ParseError):
            term_from_json_obj(obj)

    def test_rejects_bad_json_text(self):
        with pytest.raises(ParseError):
            term_from_json("{not json")
