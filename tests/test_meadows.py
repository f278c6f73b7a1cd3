"""Backend semantics: totalized division, error propagation, identity checks."""

import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracterm.cli import AXIOMS
from fracterm.errors import DomainError, EvalError
from fracterm.meadows import (
    _MAX_MODULUS,
    ERROR,
    CheckReport,
    CommonQ,
    Gfp,
    Q0,
    Residue,
    check_identity,
    denote,
    evaluate,
    format_value,
    meadow_from_name,
)
from fracterm.syntax import parse
from fracterm.terms import Add, Div, Mul, Neg, Numeral, Var, free_vars, postorder

from termgen import open_term, random_closed_term, random_unsafe_biased_term

Q = Q0()
C = CommonQ()


def _value_cases():
    """(operator, operand tuples, expected results): ``a`` absorbs, residues wrap."""
    q = Fraction(3, 4)
    for op in (operator.add, operator.mul, operator.truediv):
        yield pytest.param(op, [(ERROR, q)], [ERROR], id=f"a-{op.__name__}-q")
        yield pytest.param(op, [(q, ERROR)], [ERROR], id=f"q-{op.__name__}-a")
    yield pytest.param(operator.neg, [(ERROR,)], [ERROR], id="neg-a")
    for p in (2, 3, 5, 7):
        for op, arity in ((operator.add, 2), (operator.mul, 2), (operator.neg, 1)):
            ints = list(itertools.product(range(p), repeat=arity))
            operands = [tuple(Residue(v, p) for v in args) for args in ints]
            expected = [Residue(op(*args) % p, p) for args in ints]
            yield pytest.param(op, operands, expected, id=f"gf{p}-{op.__name__}")


@pytest.mark.parametrize("op, operands, expected", _value_cases())
def test_values_carry_their_arithmetic(op, operands, expected):
    assert [op(*args) for args in operands] == expected


class TestTotalizedRationals:
    def test_one_over_zero_is_zero(self):
        assert denote(parse("1/0"), Q) == Fraction(0)

    def test_zero_denominator_vanishes_in_sums(self):
        assert denote(parse("1/1 + 1/0"), Q) == Fraction(1)

    def test_zero_over_zero(self):
        assert denote(parse("0/0"), Q) == Fraction(0)

    def test_lowest_terms(self):
        v = denote(parse("2/4"), Q)
        assert v == Fraction(1, 2)
        assert (v.numerator, v.denominator) == (1, 2)

    def test_nested_fraction_value(self):
        # Oracle: (1/4) / (3/2) computed directly with exact rationals.
        expected = Fraction(1, 4) / Fraction(3, 2)
        assert expected == Fraction(1, 6)
        assert denote(parse("(1/4)/(3/2)"), Q) == expected

    def test_simplified_denominators_of_nested_fractions(self):
        # The three classic nested shapes reduce to denominators 6, 2, 6.
        cases = {"(1/2)/3": 6, "(1+1/2)/3": 2, "(1/4)/(3/2)": 6}
        for src, den in cases.items():
            assert denote(parse(src), Q).denominator == den


class TestPrimeFields:
    def test_characteristic(self):
        assert denote(Numeral(7), Gfp(7)) == Residue(0, 7)

    def test_sum_of_unit_fractions_mod_five(self):
        # Oracle: brute-force inverse table for GF(5), with 0 mapped to 0.
        inv = {0: 0}
        for a in range(1, 5):
            inv[a] = next(b for b in range(5) if (a * b) % 5 == 1)
        expected = (inv[2] + inv[3]) % 5
        assert expected == 0
        assert denote(parse("1/2 + 1/3"), Gfp(5)) == Residue(expected, 5)

    def test_inverse_of_zero_is_zero(self):
        for p in (2, 3, 5, 7):
            g = Gfp(p)
            assert g.inv(Residue(0, p)) == Residue(0, p)

    def test_inverse_in_gf2(self):
        g = Gfp(2)
        assert g.inv(Residue(1, 2)) == Residue(1, 2)

    def test_inverses_multiply_to_one(self):
        for p in (2, 3, 5, 7):
            g = Gfp(p)
            for v in range(1, p):
                assert Residue(v, p) * g.inv(Residue(v, p)) == Residue(1, p)

    def test_non_prime_rejected(self):
        for bad in (0, 1, 4, 9, 15, 7.0, True, "7", Fraction(7)):
            with pytest.raises(DomainError):
                Gfp(bad)

    def test_large_prime_accepted(self):
        p = 2**61 - 1
        start = time.perf_counter()
        assert Gfp(p).p == p
        assert time.perf_counter() - start < 1.0
        assert evaluate(parse("1/2"), Gfp(p)) == Residue((p + 1) // 2, p)

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael number
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            318665857834031151167461,  # strong pseudoprime to every prime base below 41
        ],
    )
    def test_pseudoprimes_rejected(self, n):
        with pytest.raises(DomainError, match="must be prime"):
            Gfp(n)

    def test_modulus_bound(self):
        with pytest.raises(DomainError, match="3317044064679887385961981"):
            Gfp(3317044064679887385961981)

    def test_primality_agrees_with_a_sieve(self):
        n = 10_000
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, n, i))
        for k in range(n):
            try:
                Gfp(k)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == sieve[k], k


class TestCommonMeadow:
    def test_division_by_zero_is_error(self):
        assert denote(parse("1/0"), C) is ERROR

    def test_error_propagates(self):
        assert denote(parse("5 + 1/0"), C) is ERROR
        assert denote(parse("(1/0) * 5"), C) is ERROR
        assert denote(parse("-(1/0)"), C) is ERROR
        assert denote(parse("(1/0)/3"), C) is ERROR
        assert denote(parse("3/(1/0)"), C) is ERROR

    def test_ordinary_arithmetic_untouched(self):
        assert denote(parse("(1/4)/(3/2)"), C) == Fraction(1, 6)

    def test_sink_laws(self):
        rng = random.Random(7)
        sink = Div(Numeral(1), Numeral(0))
        for _ in range(100):
            u = random_closed_term(rng, 4)
            assert evaluate(Add(u, sink), C) is ERROR
            assert evaluate(Mul(sink, u), C) is ERROR

    def test_far_holds_unconditionally(self):
        rng = random.Random(8)
        for _ in range(500):
            x, y, u, v = (random_closed_term(rng, 3) for _ in range(4))
            lhs = Add(Div(x, y), Div(u, v))
            rhs = Div(Add(Mul(x, v), Mul(y, u)), Mul(y, v))
            assert evaluate(lhs, C) == evaluate(rhs, C)


class TestEvaluateContract:
    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(Var("x"), Q)

    def test_open_term_rejected_by_denote(self):
        with pytest.raises(EvalError):
            denote(Div(Var("x"), Numeral(2)), Q)

    def test_assignment(self):
        env = {"x": Fraction(3)}
        assert evaluate(Div(Var("x"), Numeral(2)), Q, env) == Fraction(3, 2)

    @pytest.mark.parametrize("meadow", [Q, C], ids=["q0", "common"])
    def test_bound_ints_divide_exactly(self, meadow):
        got = evaluate(parse("x/y"), meadow, {"x": 1, "y": 3})
        assert type(got) is Fraction and got == Fraction(1, 3)
        samples = [{"x": 1, "y": 49}]
        report = check_identity(parse("(x/y)*y"), parse("x"), [parse("y")], meadow, samples)
        assert (report.valid, report.assignments_checked) == (True, 1)

    @pytest.mark.parametrize(
        "meadow, value",
        [
            (Gfp(5), Residue(3, 7)),
            (Gfp(5), Residue(7, 5)),
            (Gfp(5), Fraction(3)),
            (Gfp(5), 3),
            (Q, Residue(3, 5)),
            (Q, True),
            (Q, ERROR),
            (C, Residue(3, 5)),
            (C, 1.5),
        ],
        ids=["gf-residue-mod-7", "gf-unreduced", "gf-fraction", "gf-int", "q0-residue", "q0-bool", "q0-error",
             "common-residue", "common-float"],
    )
    def test_value_outside_the_carrier(self, meadow, value):
        x_plus_one = parse("x+1")
        with pytest.raises(EvalError, match=f"'x' .* {meadow.name}$"):
            evaluate(x_plus_one, meadow, {"x": value})
        if not isinstance(meadow, Gfp):  # the exhaustive check builds its own values
            with pytest.raises(EvalError, match=f"'x' .* {meadow.name}$"):
                check_identity(x_plus_one, x_plus_one, [], meadow, [{"x": value}])

    def test_totality_on_random_closed_terms(self):
        rng = random.Random(9)
        backends = (Q, Gfp(5), C)
        for _ in range(200):
            t = random_closed_term(rng, 5)
            for m in backends:
                evaluate(t, m)  # must not raise


def _value_fold(t, meadow, env, unsafe):
    """``evaluate`` as one ``Fraction``, ``Residue`` or ``a`` per node, the reference."""
    field = isinstance(meadow, Gfp)
    over_zero = Residue(0, meadow.p) if field else ERROR if meadow is C else Fraction(0)
    vals = []
    for s in postorder(t):
        if isinstance(s, Numeral):
            vals.append(Residue(s.value % meadow.p, meadow.p) if field else Fraction(s.value))
        elif isinstance(s, Var):
            vals.append(env[s.name])
        elif isinstance(s, Neg):
            vals[-1] = -vals[-1]
        else:
            y = vals.pop()
            if isinstance(s, Add):
                vals[-1] = vals[-1] + y
            elif isinstance(s, Mul):
                vals[-1] = vals[-1] * y
            elif y is ERROR or (y.value if field else y) == 0:
                unsafe.append(s)
                vals[-1] = over_zero
            elif field:
                vals[-1] = vals[-1] * Residue(pow(y.value, -1, meadow.p), meadow.p)
            else:
                vals[-1] = vals[-1] / y
    return vals[0]


PAIR_MEADOWS = [Q, C, Gfp(2), Gfp(3), Gfp(7), Gfp(2**61 - 1)]


def _random_value(rng, meadow):
    if isinstance(meadow, Gfp):
        return Residue(rng.choice([0, 1, rng.randrange(meadow.p)]), meadow.p)
    values = [0, Fraction(0), rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))]
    return rng.choice(values + [ERROR] * (meadow is C))


class TestPairEvaluation:
    """The integer-pair evaluator against a fold that builds a value at every node."""

    @pytest.mark.parametrize("meadow", PAIR_MEADOWS, ids=lambda m: m.name)
    def test_matches_the_value_fold(self, meadow):
        rng = random.Random(14)
        for i in range(300):
            make = random_closed_term if i % 2 else random_unsafe_biased_term
            closed = make(rng, 6, 12 if i % 3 else 10**20)
            env = {name: _random_value(rng, meadow) for name in "xyz"}
            exact = {k: Fraction(v) if type(v) is int else v for k, v in env.items()}
            for t in (closed, open_term(rng, closed)):
                want_unsafe, got_unsafe = [], []
                want = _value_fold(t, meadow, exact, want_unsafe)
                got = evaluate(t, meadow, env, unsafe=got_unsafe)
                assert type(got) is type(want) and got == want, (t, env)
                assert list(map(id, got_unsafe)) == list(map(id, want_unsafe)), (t, env)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("+".join(["1/2"] * 2000), Fraction(1000)),
            ("*".join(f"{k + 1}/{k}" for k in range(1, 2001)), Fraction(2001)),
        ],
        ids=["halves-2000", "telescoping-2000"],
    )
    def test_unreduced_pairs_stay_fast(self, text, value):
        # The pairs grow unreduced to thousands of digits and are reduced once.
        t = parse(text)
        start = time.perf_counter()
        assert denote(t, Q) == value and denote(t, C) == value
        p = 2**61 - 1  # above every denominator, so no division is by zero
        assert denote(t, Gfp(p)) == Residue(value.numerator, p)
        assert time.perf_counter() - start < 2.0


class TestCheckIdentity:
    def test_div1_valid_everywhere_in_gf5(self):
        report = check_identity(
            parse("(x/y)/z"), parse("x/(y*z)"), [], Gfp(5)
        )
        assert report.valid
        assert report.assignments_checked == 125

    def test_far_fails_in_gf3(self):
        report = check_identity(
            parse("x/y + u/v"), parse("(x*v + y*u)/(y*v)"), [], Gfp(3)
        )
        assert report.status == "counterexample"
        assert report.counterexample is not None

    def test_cfar_valid_under_conditions_in_gf5(self):
        report = check_identity(
            parse("x/y + u/v"),
            parse("(x*v + y*u)/(y*v)"),
            [parse("y"), parse("v")],
            Gfp(5),
        )
        assert report.valid

    def test_infinite_backend_needs_samples(self):
        with pytest.raises(DomainError):
            check_identity(parse("x/y"), parse("x/y"), [], Q)

    def test_q0_far_counterexample_from_samples(self):
        one, zero = Fraction(1), Fraction(0)
        samples = [{"x": one, "y": one, "u": one, "v": zero}]
        report = check_identity(
            parse("x/y + u/v"), parse("(x*v + y*u)/(y*v)"), [], Q, samples
        )
        assert report.status == "counterexample"
        assert report.counterexample == samples[0]

    def test_involution_and_cancellation(self):
        for p in (2, 3):
            assert check_identity(parse("1/(1/x)"), parse("x"), [], Gfp(p)).valid
            assert check_identity(
                parse("x*(1/x)"), parse("1"), [parse("x")], Gfp(p)
            ).valid
            assert check_identity(parse("x/y + z/y"), parse("(x+z)/y"), [], Gfp(p)).valid

    def test_closure_identities(self):
        g = Gfp(5)
        assert check_identity(parse("(x/y)*(u/v)"), parse("(x*u)/(y*v)"), [], g).valid
        assert check_identity(parse("1/(x/y)"), parse("y/x"), [], g).valid
        assert check_identity(parse("-(x/y)"), parse("(-x)/y"), [], g).valid

    def test_exhaustive_limit(self):
        # 1009**3 assignments, about a thousand times the limit.
        with pytest.raises(DomainError, match="the limit is 1000000 assignments"):
            check_identity(parse("x/y + u/y"), parse("(x+u)/y"), [], Gfp(1009))
        assert check_identity(parse("x*x"), parse("x*x"), [], Gfp(1009)).valid

    def test_closed_terms_do_not_list_the_field(self, monkeypatch):
        # An inverse table of the field would call inv for each of its 2**61 - 2
        # nonzero residues; this check divides by one residue.
        calls = []
        inv = Gfp.inv

        def counted_inv(self, x):
            calls.append(x)
            return inv(self, x)

        monkeypatch.setattr(Gfp, "inv", counted_inv)
        report = check_identity(parse("1/2 + 1/2"), parse("1"), [], Gfp(2**61 - 1))
        assert (report.valid, report.assignments_checked) == (True, 1)
        assert len(calls) == 1

    def test_report_json_shape(self):
        report = check_identity(parse("x"), parse("x+1"), [], Gfp(2))
        obj = report.to_json_obj()
        assert obj["status"] == "counterexample"
        assert obj["assignments_checked"] == 1
        assert obj["counterexample"] == {"x": "0 mod 2"}


def _is_zero(v):
    """Whether a meadow value is zero: ``0`` in Q0 and CommonQ, ``0 mod p`` in GF(p)."""
    return (v.value if isinstance(v, Residue) else v) == 0


def _one_at_a_time(lhs, rhs, conds, meadow, samples=None):
    """The report of the check done one assignment at a time through ``evaluate``."""
    names = sorted(set().union(*(free_vars(t) for t in (lhs, rhs, *conds))))
    if samples is None:
        field = [Residue(v, meadow.p) for v in range(meadow.p)]
        samples = (dict(zip(names, c)) for c in itertools.product(field, repeat=len(names)))
    checked = 0
    for env in samples:
        checked += 1
        if any(_is_zero(evaluate(c, meadow, env)) for c in conds):
            continue
        if evaluate(lhs, meadow, env) != evaluate(rhs, meadow, env):
            return CheckReport("counterexample", checked, dict(env)).to_json()
    return CheckReport("valid", checked, None).to_json()


class TestBlockwiseCheck:
    """Blocks of assignments give the reports of one assignment at a time."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_axioms(self, p):
        g = Gfp(p)
        for name, (lhs, rhs, conds) in AXIOMS.items():
            args = (parse(lhs), parse(rhs), [parse(c) for c in conds], g)
            assert check_identity(*args).to_json() == _one_at_a_time(*args), name

    def test_random_open_pairs(self):
        rng = random.Random(12)
        statuses = set()
        for k in range(300):
            lhs, rhs = (open_term(rng, random_closed_term(rng, 4, 4)) for _ in range(2))
            conds = [open_term(rng, random_closed_term(rng, 2, 3)) for _ in range(k % 3)]
            g = Gfp(rng.choice((2, 3, 5, 7)))
            report = check_identity(lhs, rhs, conds, g)
            assert report.to_json() == _one_at_a_time(lhs, rhs, conds, g), (lhs, rhs, conds)
            statuses.add((report.status, bool(conds)))
            names = sorted(set().union(*(free_vars(t) for t in (lhs, rhs, *conds))))
            samples = [
                {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in names}
                for _ in range(rng.randrange(1, 80))
            ]
            # In CommonQ some samples bind a, so that a side or condition denotes it.
            common = [{v: ERROR if rng.random() < 0.05 else q for v, q in s.items()} for s in samples]
            for m, ss in ((Q, samples), (C, common)):
                got = check_identity(lhs, rhs, conds, m, ss).to_json()
                assert got == _one_at_a_time(lhs, rhs, conds, m, ss), (lhs, rhs, conds)
        assert len(statuses) == 4  # valid and not, each with and without conditions

    @pytest.mark.parametrize(
        "p, digits",
        [
            (5, (0, 0, 0)),
            (5, (2, 2, 3)),  # index 63, the last of the first block
            (5, (2, 2, 4)),  # index 64, the first of the second
            (5, (2, 3, 0)),
            (5, (4, 4, 4)),
            (2, (1,)),
        ],
    )
    def test_counterexample_at_a_single_assignment(self, p, digits):
        # s counts the variables that differ from their digit; with fewer
        # variables than p, s*(1/s) = 1 fails only where none differs.
        names = [f"v{j}" for j in range(len(digits))]
        s = " + ".join(f"({v}+{-d % p})/({v}+{-d % p})" for v, d in zip(names, digits))
        report = check_identity(parse(f"({s}) * (1/({s}))"), parse("1"), [], Gfp(p))
        index = sum(d * p**e for e, d in enumerate(reversed(digits)))
        assert report.assignments_checked == index + 1
        assert report.counterexample == {v: Residue(d, p) for v, d in zip(names, digits)}

    def test_last_assignment_of_gf7_to_the_fourth(self):
        s = " + ".join(f"({v}+1)/({v}+1)" for v in "wxyz")
        report = check_identity(parse(f"({s}) * (1/({s}))"), parse("1"), [], Gfp(7))
        assert (report.status, report.assignments_checked) == ("counterexample", 2401)
        assert report.to_json_obj()["counterexample"] == dict.fromkeys("wxyz", "6 mod 7")

    def test_endless_samples_stop_at_the_counterexample(self):
        samples = ({"x": Fraction(0 if k == 3 else k)} for k in itertools.count(1))
        report = check_identity(parse("x/x"), parse("1"), [], Q, samples)
        assert (report.status, report.assignments_checked) == ("counterexample", 3)
        assert report.counterexample == {"x": Fraction(0)}

    def test_every_sample_binds_every_variable(self):
        with pytest.raises(EvalError, match="unbound variable 'y'"):
            check_identity(parse("x"), parse("y"), [], Q, [{"x": Fraction(1)}])
        one, two = Fraction(1), Fraction(2)
        # A sample before the counterexample must bind every variable ...
        samples = [{"x": one, "y": one}, {"x": one}, {"x": one, "y": two}]
        with pytest.raises(EvalError, match="unbound variable 'y'"):
            check_identity(parse("x"), parse("y"), [], Q, samples)
        # ... but the samples after it are never read.
        report = check_identity(parse("x"), parse("y"), [], Q, [{"x": one, "y": two}, {"x": one}])
        assert (report.status, report.assignments_checked) == ("counterexample", 1)


class TestFormatting:
    def test_values(self):
        assert format_value(Fraction(5, 7)) == "5/7"
        assert format_value(Fraction(3)) == "3"
        assert format_value(Residue(2, 5)) == "2 mod 5"
        assert format_value(ERROR) == "a"

    def test_meadow_from_name(self):
        assert isinstance(meadow_from_name("q0"), Q0)
        assert isinstance(meadow_from_name("common"), CommonQ)
        g = meadow_from_name("gf:7")
        assert isinstance(g, Gfp) and g.p == 7
        # "gf:1…1" has more digits than int() converts.
        bad_names = ("gf:", "gf:six", "gf:8", "r", "gf:\u0667", "gf: 7", "gf:+7", "gf:1_009")
        for bad in (*bad_names, "gf:" + "1" * 5000):
            with pytest.raises(DomainError):
                meadow_from_name(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=6),
            st.from_regex(r"[0-9 +\-_\u0660-\u0669\u0966-\u096f]{0,6}", fullmatch=True),
            st.builds(lambda z, n: "0" * z + str(n), st.integers(0, 3), st.integers(0, 10**5)),
            st.integers(_MAX_MODULUS, 10**30).map(str),
        )
    )
    def test_meadow_name_after_gf(self, text):
        # Only ASCII digits naming a prime below the modulus limit build a field.
        ascii_digits = text != "" and all(c in "0123456789" for c in text)
        p = int(text) if ascii_digits else 0
        if 1 < p < _MAX_MODULUS and all(p % d for d in range(2, math.isqrt(p) + 1)):
            g = meadow_from_name(f"gf:{text}")
            assert isinstance(g, Gfp) and g.p == p
        else:
            with pytest.raises(DomainError):
                meadow_from_name(f"gf:{text}")
