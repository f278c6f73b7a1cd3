"""Acceptance suite.

Each test implements one acceptance criterion end to end, prints a single
pass/fail line (visible with ``pytest -s``), and enforces the stated runtime
budget where one exists.  Golden artifacts live in ``tests/golden`` and are
compared byte for byte.
"""

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from fracterm.calculator import (
    check_equal,
    normalize_full,
    normalize_safe,
    replay_derivation,
)
from fracterm.classify import classify, eq_pair, eq_val
from fracterm.cli import main
from fracterm.errors import SafetyError
from fracterm.fracpairs import Fracpair, ZeroMode, fp_add, fp_eq, int_div
from fracterm.meadows import ERROR, CommonQ, Gfp, Q0, check_identity, denote, evaluate
from fracterm.syntax import parse, to_text
from fracterm.terms import (
    Add,
    Div,
    Mul,
    Numeral,
    as_signed_numeral,
    eq_syn,
)

from termgen import (
    is_safe,
    random_closed_term,
    random_fracterm,
    random_unsafe_biased_term,
)

GOLDEN = Path(__file__).parent / "golden"
Q = Q0()
C = CommonQ()


@contextmanager
def criterion(number: int, name: str):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS  [{perf_counter() - start:.2f}s]")


def in_simplified_flat_form(t) -> bool:
    if not isinstance(t, Div) or not isinstance(t.denominator, Numeral):
        return False
    nv = as_signed_numeral(t.numerator)
    l = t.denominator.value
    if nv is None or l < 1 or math.gcd(abs(nv), l) != 1:
        return False
    return nv != 0 or l == 1


def test_c1_exhaustive_prime_field_validity():
    with criterion(1, "exhaustive GF(p) validity"):
        start = perf_counter()
        valid_identities = [
            ("x/y + u/y", "(x+u)/y", ()),  # QCR
            ("(x/y)/z", "x/(y*z)", ()),  # DIV1
            ("x/(y/z)", "(x*z*z)/(y*z)", ()),  # DIV2
            ("x/0", "0/1", ()),  # DBZ
            ("1/(1/x)", "x", ()),
            ("(x*x)/x", "x", ()),
            ("x/y", "x*(1/y)", ()),
        ]
        far_lhs, far_rhs = "x/y + u/v", "(x*v + y*u)/(y*v)"
        for p in (2, 3, 5, 7):
            g = Gfp(p)
            for lhs, rhs, conds in valid_identities:
                report = check_identity(
                    parse(lhs), parse(rhs), [parse(c) for c in conds], g
                )
                assert report.valid, f"{lhs} = {rhs} failed in GF({p})"
            cfar = check_identity(
                parse(far_lhs), parse(far_rhs), [parse("y"), parse("v")], g
            )
            assert cfar.valid
            far = check_identity(parse(far_lhs), parse(far_rhs), [], g)
            assert far.status == "counterexample"
            env = far.counterexample
            assert evaluate(parse(far_lhs), g, env) != evaluate(parse(far_rhs), g, env)

        # In the rationals the witness is the 1/1 + 1/0 instance.
        instance = {"x": Fraction(1), "y": Fraction(1), "u": Fraction(1), "v": Fraction(0)}
        far_q0 = check_identity(parse(far_lhs), parse(far_rhs), [], Q, [instance])
        assert far_q0.status == "counterexample"
        assert denote(parse("1/1 + 1/0"), Q) == Fraction(1)
        assert denote(parse("(1*0 + 1*1)/(1*0)"), Q) == Fraction(0)

        assert perf_counter() - start < 1.0, "criterion 1 exceeded 1 s"


def test_c2_normalizer_differential():
    with criterion(2, "normalizer differential, 10000 safe terms"):
        start = perf_counter()
        rng = random.Random(20250801)
        checked = 0
        while checked < 10_000:
            t = random_closed_term(rng, 6, 12)
            if not is_safe(t):
                continue
            checked += 1
            nf = normalize_safe(t)
            assert in_simplified_flat_form(nf.result), to_text(t)
            assert denote(nf.result, Q) == denote(t, Q), to_text(t)
            assert eq_syn(nf.result, normalize_full(t).result), to_text(t)
        assert perf_counter() - start < 30.0, "criterion 2 exceeded 30 s"


def test_c3_safety_exactness():
    with criterion(3, "safety exactness, 10000 terms with forced zeros"):
        rng = random.Random(20250802)
        unsafe_seen = 0
        for _ in range(10_000):
            t = random_unsafe_biased_term(rng, 6, 12)
            expected_safe = classify(t, Q).is_safe_term
            try:
                nf = normalize_safe(t)
            except SafetyError:
                assert not expected_safe, f"false negative on {to_text(t)}"
                unsafe_seen += 1
            else:
                assert expected_safe, f"false positive on {to_text(t)}"
                for step in nf.trace:
                    assert is_safe(step.after), (
                        f"unsafe intermediate {to_text(step.after)} in {to_text(t)}"
                    )
        assert unsafe_seen > 1000, "generator failed to force unsafe terms"


def test_c4_trace_soundness_replay():
    with criterion(4, "trace soundness replay, 1000 derivations"):
        rng = random.Random(20250803)
        fields = (Gfp(5), Gfp(7))
        for i in range(1000):
            t = random_unsafe_biased_term(rng, 5, 12)
            if i % 2 and is_safe(t):
                nf = normalize_safe(t)
            else:
                nf = normalize_full(t)
            if nf.trace:
                assert eq_syn(replay_derivation(nf.trace), nf.result)
            for step in nf.trace:
                assert denote(step.before, Q) == denote(step.after, Q)
                for g in fields:
                    if all(k % g.p for k in step.conditions):
                        assert evaluate(step.before, g) == evaluate(step.after, g), (
                            f"{step.rule} at {list(step.position)} unsound in GF({g.p})"
                        )


def test_c5_fracpair_suite():
    with criterion(5, "exhaustive fracpair addition"):
        start = perf_counter()
        gcd = math.gcd
        lcm = math.lcm
        nums = range(-20, 21)
        dens = range(1, 21)
        for q in dens:
            for s in dens:
                g = gcd(q, s)
                den_formula = int_div(q * s, g)
                want_den = lcm(q, s)
                assert den_formula == want_den
                for p in nums:
                    for r in nums:
                        got = fp_add(Fracpair(p, q), Fracpair(r, s))
                        assert got.num == int_div(p * s + q * r, g)
                        assert got.den == want_den
        # Conditional same-denominator law, exhaustively on the same box.
        for q in dens:
            for p in nums:
                for r in nums:
                    assert fp_eq(
                        fp_add(Fracpair(p, q), Fracpair(r, q)), Fracpair(p + r, q)
                    )
        # Zero-denominator axioms, both completions.
        for p in nums:
            for r in nums:
                for q in (1, 7):
                    assert fp_add(Fracpair(p, q), Fracpair(r, 0)) == Fracpair(p, q)
                    assert fp_add(Fracpair(r, 0), Fracpair(p, q)) == Fracpair(p, q)
                both_sum = fp_add(
                    Fracpair(p, 0), Fracpair(r, 0), ZeroMode.SUM_NUMERATORS
                )
                both_collapse = fp_add(
                    Fracpair(p, 0), Fracpair(r, 0), ZeroMode.COLLAPSE
                )
                assert both_sum == Fracpair(p + r, 0)
                assert both_collapse == Fracpair(0, 0)
                if p + r != 0:
                    assert not fp_eq(both_sum, both_collapse)
        assert perf_counter() - start < 5.0, "criterion 5 exceeded 5 s"


def test_c6_three_equality_hierarchy():
    with criterion(6, "three-equality hierarchy, 5000 pairs"):
        rng = random.Random(20250804)
        backends = (Q, Gfp(5))
        syn_hits = pair_hits = 0
        for _ in range(5000):
            s = random_fracterm(rng, 3, 12)
            roll = rng.random()
            if roll < 0.30:
                t = s
            elif roll < 0.55:
                t = Div(Add(s.numerator, Numeral(0)), s.denominator)
            elif roll < 0.70:
                t = Div(Mul(s.numerator, Numeral(1)), s.denominator)
            else:
                t = random_fracterm(rng, 3, 12)
            for m in backends:
                syn = eq_syn(s, t)
                pair = eq_pair(s, t, m)
                val = eq_val(s, t, m)
                if syn:
                    syn_hits += 1
                    assert pair, f"syn without pair: {to_text(s)} vs {to_text(t)}"
                if pair:
                    pair_hits += 1
                    assert val, f"pair without val: {to_text(s)} vs {to_text(t)}"
        assert syn_hits > 500 and pair_hits > syn_hits  # the chain was exercised

        half, two_quarters = parse("1/2"), parse("2/4")
        assert not eq_syn(half, two_quarters)
        assert not eq_pair(half, two_quarters, Q)
        assert eq_val(half, two_quarters, Q)


def test_c7_common_meadow_semantics():
    with criterion(7, "common-meadow FAR and sink laws"):
        rng = random.Random(20250805)
        for _ in range(5000):
            x, y, u, v = (random_closed_term(rng, 3, 12) for _ in range(4))
            lhs = Add(Div(x, y), Div(u, v))
            rhs = Div(Add(Mul(x, v), Mul(y, u)), Mul(y, v))
            assert evaluate(lhs, C) == evaluate(rhs, C)
        sink = Div(Numeral(1), Numeral(0))
        for _ in range(100):
            u = random_closed_term(rng, 4, 12)
            assert evaluate(Add(u, sink), C) is ERROR
            assert evaluate(Mul(sink, u), C) is ERROR


def _render(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def test_c8_golden_examples(capsys):
    with criterion(8, "golden worked examples"):
        uncommon = classify(parse("(2+7)/(1+((7-5)-3))"), Q)
        assert uncommon.is_fraction and uncommon.is_common is False

        composed = classify(parse("(1+1/2)/3"), Q)
        assert composed.is_composed
        assert eq_syn(composed.numerator, parse("1+1/2"))

        nf = normalize_safe(parse("(2+3)/7"))
        assert to_text(nf.result) == "(5/7)"

        halves = check_equal(parse("1/2 + 1/2"), parse("2/2"), "full")
        assert halves.equal
        assert eq_val(parse("1/2 + 1/2"), parse("2/2"), Q)

        # Between them these two derivations use all ten rules.
        safe_rules = normalize_safe(parse("-(1/2) + 3/(-6) + (4/6)/(2/3) + 5"))
        full_rules = normalize_full(parse("(1/2)/(3/0) + 1/1 + 1/0 + (2/3)*(3/4)"))
        # A 19-step family derivation, whose terms are built when read.
        harmonic = normalize_safe(parse("1/1+1/2+1/3+1/4+1/5+1/6"))

        artifacts = {
            "classify_uncommon.json": uncommon.to_json_obj(),
            "classify_composed.json": composed.to_json_obj(),
            "normalize_sum_over_seven.json": nf.to_json_obj(),
            "equal_halves.json": halves.to_json_obj(),
            "normalize_safe_all_safe_rules.json": safe_rules.to_json_obj(),
            "normalize_full_zero_denominators.json": full_rules.to_json_obj(),
            "normalize_harmonic_6.json": harmonic.to_json_obj(),
        }
        for name, obj in artifacts.items():
            path = GOLDEN / name
            assert path.exists(), f"missing golden file {name}"
            assert _render(obj) == path.read_text(), f"golden mismatch for {name}"

        # The library's own encoder writes the same bytes, and so does the CLI.
        library = {
            "normalize_sum_over_seven.json": nf,
            "equal_halves.json": halves,
            "normalize_safe_all_safe_rules.json": safe_rules,
            "normalize_full_zero_denominators.json": full_rules,
            "normalize_harmonic_6.json": harmonic,
        }
        for name, result in library.items():
            assert result.to_json() + "\n" == (GOLDEN / name).read_text(), name
        commands = {
            "classify_uncommon.json": ["classify", "(2+7)/(1+((7-5)-3))"],
            "classify_composed.json": ["classify", "(1+1/2)/3"],
            "normalize_sum_over_seven.json": ["normalize", "(2+3)/7", "--trace"],
            "equal_halves.json": ["equal", "1/2 + 1/2", "2/2", "--mode", "full"],
            "normalize_safe_all_safe_rules.json": [
                "normalize", "-(1/2) + 3/(-6) + (4/6)/(2/3) + 5", "--trace",
            ],
            "normalize_full_zero_denominators.json": [
                "normalize", "(1/2)/(3/0) + 1/1 + 1/0 + (2/3)*(3/4)", "--mode", "full", "--trace",
            ],
            "normalize_harmonic_6.json": ["normalize", "1/1+1/2+1/3+1/4+1/5+1/6", "--trace"],
        }
        for name, argv in commands.items():
            capsys.readouterr()
            assert main(argv) == 0, name
            assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
