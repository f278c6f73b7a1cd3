"""Normalizer, single-step rewriting, and derivation-trace tests."""

import copy
import gc
import hashlib
import json
import math
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from fracterm import calculator
from fracterm.calculator import (
    RULE_CFAR,
    RULE_CR_EMBED,
    RULE_CR_EVAL,
    RULE_CR_FRAC,
    RULE_CR_MUL,
    RULE_DBZ,
    RULE_DIV1,
    RULE_DIV2,
    RULE_FEQ,
    RULE_QCR,
    NormalForm,
    Step,
    apply_rule,
    check_equal,
    find_unsafe_fraction,
    normalize_full,
    normalize_safe,
    replay_derivation,
)
from fracterm.classify import classify
from fracterm.errors import DomainError, EvalError, MatchError, PositionError, SafetyError
from fracterm.fracpairs import Fracpair
from fracterm.meadows import Gfp, Q0, Residue, denote, evaluate
from fracterm.syntax import parse, term_to_json, term_to_json_obj, to_text
from fracterm.terms import (
    Add,
    Div,
    Mul,
    Neg,
    Numeral,
    Var,
    as_signed_numeral,
    depth,
    eq_syn,
    node_count,
    postorder,
    subterms,
)

from termgen import is_safe, q0_value, random_closed_term, random_unsafe_biased_term

Q = Q0()


def assert_normal_form(nf):
    """Result must be (+-k)/l with l >= 1 and gcd(k, l) = 1; zero is 0/1."""
    t = nf.result
    assert isinstance(t, Div)
    nv = as_signed_numeral(t.numerator)
    assert nv is not None
    assert isinstance(t.denominator, Numeral)
    l = t.denominator.value
    assert l >= 1
    assert math.gcd(abs(nv), l) == 1
    if nv == 0:
        assert l == 1
    for k in nf.conditions:
        assert isinstance(k, int) and k >= 1


class TestNormalizeFull:
    def test_sum_over_literal(self):
        nf = normalize_full(parse("(2+3)/7"))
        assert to_text(nf.result) == "(5/7)"
        assert {7} <= nf.conditions
        assert_normal_form(nf)

    def test_composed_fraction(self):
        nf = normalize_full(parse("(1+1/2)/3"))
        assert to_text(nf.result) == "(1/2)"

    def test_zero_denominator_vanishes(self):
        nf = normalize_full(parse("1/1 + 1/0"))
        assert to_text(nf.result) == "(1/1)"
        assert any(s.rule == RULE_DBZ for s in nf.trace)

    def test_zero(self):
        nf = normalize_full(Numeral(0))
        assert to_text(nf.result) == "(0/1)"

    def test_uses_cfar_for_sums(self):
        nf = normalize_full(parse("1/2 + 1/3"))
        cfar_steps = [s for s in nf.trace if s.rule == RULE_CFAR]
        assert len(cfar_steps) == 1
        assert cfar_steps[0].conditions == {2, 3}
        assert to_text(nf.result) == "(5/6)"

    def test_open_term_rejected(self):
        with pytest.raises(EvalError):
            normalize_full(Var("x"))
        # Openness is reported before safety, in both modes.
        for normalize in (normalize_safe, normalize_full):
            for text in ("x + 1/0", "1/0 + x", "(1/(1/0))*x"):
                with pytest.raises(EvalError, match="cannot normalize an open term"):
                    normalize(parse(text))


class TestNormalizeSafe:
    def test_numerator_flattening(self):
        nf = normalize_safe(parse("(1/2)/3"))
        assert to_text(nf.result) == "(1/6)"
        assert [s.rule for s in nf.trace] == [RULE_DIV1, RULE_CR_EVAL]

    def test_denominator_flattening_and_reduction(self):
        nf = normalize_safe(parse("1/(2/3)"))
        assert to_text(nf.result) == "(3/2)"
        assert [s.rule for s in nf.trace] == [
            RULE_DIV2,
            RULE_CR_EVAL,
            RULE_CR_EVAL,
            RULE_FEQ,
        ]
        # DIV2 emits ((1*3)*3)/(2*3) = 9/6, which FEQ cancels by k = 3.
        assert nf.trace[-1].conditions == {3}

    def test_common_denominator_route(self):
        nf = normalize_safe(parse("1/2 + 1/3"))
        assert to_text(nf.result) == "(5/6)"
        feq = [s for s in nf.trace if s.rule == RULE_FEQ]
        assert [s.conditions for s in feq] == [{3}, {2}]
        assert any(s.rule == RULE_QCR for s in nf.trace)

    def test_unsafe_input_raises(self):
        with pytest.raises(SafetyError) as exc_info:
            normalize_safe(parse("1/1 + 1/0"))
        assert exc_info.value.position == (1,)
        assert to_text(exc_info.value.term) == "(1/0)"

    def test_outermost_unsafe_fraction_reported(self):
        # 1/(1/2 - 1/2) reaches its zero denominator through DIV2.
        for text in ("1/(1/0)", "1/(1/2 - 1/2)", "(1/0)/(2-2)"):
            with pytest.raises(SafetyError) as exc_info:
                normalize_safe(parse(text))
            assert exc_info.value.position == ()

    @pytest.mark.parametrize("text", ["(1/2)*0", "0*(1/2)", "(1/2)+0"])
    def test_zero_operand_outside_a_denominator(self, text):
        assert_normal_form(normalize_safe(parse(text)))

    def test_refusal_runs_no_engine(self, monkeypatch):
        def refuse(self, t):
            raise AssertionError("the engine ran on unsafe input")

        monkeypatch.setattr(calculator._Engine, "run", refuse)
        deep = Div(Numeral(1), Numeral(0))
        for _ in range(2000):
            deep = Div(Numeral(1), Add(Numeral(1), deep))
        cases = [
            (parse("1/1 + 1/0"), (1,)),
            (parse("1/(1/2 - 1/2)"), ()),
            (parse("(1/0)/(2-2)"), ()),
            (deep, (1, 1) * 2000),
        ]
        for t, position in cases:
            with pytest.raises(SafetyError) as exc_info:
                normalize_safe(t)
            assert exc_info.value.position == position

    def test_safe_input_never_calls_find_unsafe_fraction(self, monkeypatch):
        def refuse(t):
            raise AssertionError("find_unsafe_fraction called on safe input")

        monkeypatch.setattr("fracterm.calculator.find_unsafe_fraction", refuse)
        rng = random.Random(48)
        checked = 0
        while checked < 300:
            t = random_closed_term(rng, 6)
            if is_safe(t):
                checked += 1
                assert_normal_form(normalize_safe(t))
        assert q0_value(normalize_safe(_harmonic(50)).result) == q0_value(_harmonic(50))

    def test_conditions_are_exactly_the_used_numerals(self):
        assert normalize_safe(parse("(2+3)/7")).conditions == {7}

    def test_trace_is_mandatory_and_chains(self):
        nf = normalize_safe(parse("(1+1/2)/3"))
        assert nf.trace
        assert eq_syn(nf.trace[0].before, parse("(1+1/2)/3"))
        assert eq_syn(nf.trace[-1].after, nf.result)
        for prev, cur in zip(nf.trace, nf.trace[1:]):
            assert eq_syn(prev.after, cur.before)

    def test_negative_denominator_normalizes(self):
        nf = normalize_safe(parse("1/(0-2)"))
        assert to_text(nf.result) == "((-1)/2)"
        assert any(s.rule == RULE_CR_FRAC for s in nf.trace)


class TestFindUnsafeFraction:
    def test_safe_term(self):
        assert find_unsafe_fraction(parse("(1/2)/3")) is None

    def test_reports_first_in_preorder(self):
        pos, sub = find_unsafe_fraction(parse("1/0 + 2/0"))
        assert pos == (0,)
        assert to_text(sub) == "(1/0)"

    def test_computed_zero_denominator(self):
        pos, sub = find_unsafe_fraction(parse("5/(2-2)"))
        assert pos == ()

    def test_memory_is_linear_in_size(self):
        # The offender sits beside the root of a sum 2,000 levels deep; a
        # position per node would hold about two million indices.
        t = parse("+".join(["1"] * 2000) + " + 1/0")
        tracemalloc.start()
        try:
            pos, sub = find_unsafe_fraction(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pos == (1,) and to_text(sub) == "(1/0)"
        assert peak < 2_000_000

    def test_agrees_with_a_subterms_scan(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            t = random_unsafe_biased_term(rng)
            # The reference evaluates each denominator alone, apart from classify's walk.
            expected = next(
                (
                    (p, s)
                    for p, s in subterms(t)
                    if isinstance(s, Div) and evaluate(s.denominator, Q0()) == 0
                ),
                None,
            )
            got = find_unsafe_fraction(t)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got[0] == expected[0] and got[1] is expected[1]
                # normalize_safe names the same offender.
                with pytest.raises(SafetyError) as exc_info:
                    normalize_safe(t)
                assert exc_info.value.position == got[0]
                assert exc_info.value.term is got[1]


class TestApplyRule:
    def test_dbz(self):
        t = parse("4/0 + 1/2")
        out = apply_rule(t, RULE_DBZ, (0,), enable_dbz=True)
        assert eq_syn(out, parse("0/1 + 1/2"))

    def test_dbz_requires_enabling(self):
        with pytest.raises(MatchError):
            apply_rule(parse("4/0"), RULE_DBZ, ())

    def test_dbz_requires_literal_zero(self):
        with pytest.raises(MatchError):
            apply_rule(parse("4/(1-1)"), RULE_DBZ, (), enable_dbz=True)

    def test_feq_folds_numerals(self):
        out = apply_rule(parse("1/2"), RULE_FEQ, (), {"k": 3})
        assert eq_syn(out, parse("3/6"))

    def test_feq_general_operands_stay_products(self):
        out = apply_rule(parse("x/y"), RULE_FEQ, (), {"k": 3})
        assert eq_syn(out, parse("(x*3)/(y*3)"))

    def test_feq_right_to_left(self):
        out = apply_rule(parse("9/6"), RULE_FEQ, (), {"k": 3, "direction": "rl"})
        assert eq_syn(out, parse("3/2"))

    def test_feq_right_to_left_needs_divisibility(self):
        with pytest.raises(MatchError):
            apply_rule(parse("9/6"), RULE_FEQ, (), {"k": 4, "direction": "rl"})

    def test_feq_needs_positive_k(self):
        with pytest.raises(MatchError):
            apply_rule(parse("1/2"), RULE_FEQ, (), {"k": 0})

    def test_feq_by_one_is_the_identity(self):
        for direction in ("lr", "rl"):
            out = apply_rule(parse("1/2"), RULE_FEQ, (), {"k": 1, "direction": direction})
            assert eq_syn(out, parse("1/2"))

    def test_qcr(self):
        out = apply_rule(parse("1/2 + 1/2"), RULE_QCR, ())
        assert eq_syn(out, parse("(1+1)/2"))

    def test_qcr_needs_equal_denominators(self):
        with pytest.raises(MatchError):
            apply_rule(parse("1/2 + 1/3"), RULE_QCR, ())

    def test_cfar(self):
        out = apply_rule(parse("1/2 + 1/3"), RULE_CFAR, ())
        assert eq_syn(out, parse("(1*3 + 2*1)/(2*3)"))

    def test_div1(self):
        out = apply_rule(parse("(1/2)/3"), RULE_DIV1, ())
        assert eq_syn(out, parse("1/(2*3)"))

    def test_div2(self):
        out = apply_rule(parse("1/(2/3)"), RULE_DIV2, ())
        assert eq_syn(out, parse("((1*3)*3)/(2*3)"))

    def test_cr_eval(self):
        out = apply_rule(parse("(2+3)/7"), RULE_CR_EVAL, (0,))
        assert eq_syn(out, parse("5/7"))
        out = apply_rule(parse("2-3"), RULE_CR_EVAL, ())
        assert eq_syn(out, Neg(Numeral(1)))

    def test_cr_eval_rejects_divisions(self):
        with pytest.raises(MatchError):
            apply_rule(parse("(1/2)+1"), RULE_CR_EVAL, ())

    def test_cr_frac_neg_pull(self):
        out = apply_rule(parse("-(1/2)"), RULE_CR_FRAC, ())
        assert eq_syn(out, Div(Neg(Numeral(1)), Numeral(2)))

    def test_cr_frac_sign_migration(self):
        out = apply_rule(Div(Numeral(1), Neg(Numeral(2))), RULE_CR_FRAC, ())
        assert eq_syn(out, Div(Neg(Numeral(1)), Numeral(2)))

    def test_cr_embed(self):
        out = apply_rule(Numeral(5), RULE_CR_EMBED, ())
        assert eq_syn(out, parse("5/1"))
        with pytest.raises(MatchError):
            apply_rule(parse("1/2"), RULE_CR_EMBED, ())

    def test_cr_mul(self):
        out = apply_rule(parse("(1/2)*(2/3)"), RULE_CR_MUL, ())
        assert eq_syn(out, parse("(1*2)/(2*3)"))

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            apply_rule(Numeral(1), "NOPE", ())

    def test_position_addresses_subterm(self):
        t = Add(Numeral(1), parse("2/4"))
        out = apply_rule(t, RULE_FEQ, (1,), {"k": 2, "direction": "rl"})
        assert eq_syn(out, Add(Numeral(1), parse("1/2")))


class TestCheckEqual:
    def test_sum_over_literal(self):
        ev = check_equal(parse("(2+3)/7"), parse("5/7"), "full")
        assert ev.equal
        assert to_text(ev.left.result) == to_text(ev.right.result) == "(5/7)"

    def test_half_plus_half(self):
        ev = check_equal(parse("1/2 + 1/2"), parse("2/2"), "full")
        assert ev.equal
        assert to_text(ev.left.result) == "(1/1)"

    def test_safe_mode_propagates_safety_errors(self):
        with pytest.raises(SafetyError):
            check_equal(parse("1/0"), Numeral(0), "safe")

    def test_unequal(self):
        ev = check_equal(parse("1/2"), parse("1/3"), "safe")
        assert not ev.equal
        assert ev.conditions == {2, 3}

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            check_equal(Numeral(1), Numeral(1), "fast")


class TestNormalizerProperties:
    def test_results_match_evaluation(self):
        rng = random.Random(41)
        q0 = Q
        checked = 0
        while checked < 400:
            t = random_closed_term(rng, 6)
            if not is_safe(t):
                continue
            checked += 1
            nf = normalize_safe(t)
            assert_normal_form(nf)
            assert denote(nf.result, q0) == denote(t, q0) == q0_value(t)

    def test_safe_and_full_agree_on_safe_terms(self):
        rng = random.Random(42)
        checked = 0
        while checked < 400:
            t = random_closed_term(rng, 6)
            if not is_safe(t):
                continue
            checked += 1
            assert eq_syn(normalize_safe(t).result, normalize_full(t).result)

    def test_full_handles_unsafe_terms(self):
        rng = random.Random(43)
        for _ in range(400):
            t = random_unsafe_biased_term(rng, 5)
            nf = normalize_full(t)
            assert_normal_form(nf)
            assert denote(nf.result, Q) == denote(t, Q)

    def test_safety_exactness_against_classifier(self):
        rng = random.Random(44)
        for _ in range(400):
            t = random_unsafe_biased_term(rng, 5)
            expected_safe = classify(t, Q).is_safe_term
            try:
                normalize_safe(t)
                succeeded = True
            except SafetyError:
                succeeded = False
            assert succeeded == expected_safe

    def test_intermediate_terms_stay_safe(self):
        rng = random.Random(45)
        checked = 0
        while checked < 150:
            t = random_closed_term(rng, 5)
            if not is_safe(t):
                continue
            checked += 1
            nf = normalize_safe(t)
            for step in nf.trace:
                assert is_safe(step.after)

    def test_steps_preserve_value_in_q0_and_prime_fields(self):
        rng = random.Random(46)
        fields = (Gfp(5), Gfp(7))
        checked = 0
        while checked < 150:
            t = random_closed_term(rng, 5)
            if not is_safe(t):
                continue
            checked += 1
            for nf in (normalize_safe(t), normalize_full(t)):
                for step in nf.trace:
                    assert denote(step.before, Q) == denote(step.after, Q)
                    for g in fields:
                        if all(k % g.p for k in step.conditions):
                            assert evaluate(step.before, g) == evaluate(step.after, g)

    def test_replay(self):
        rng = random.Random(47)
        for _ in range(150):
            t = random_unsafe_biased_term(rng, 5)
            nf = normalize_full(t)
            assert eq_syn(replay_derivation(nf.trace), nf.result)

    @pytest.mark.parametrize("conditions", [frozenset(), frozenset({2, 3})])
    def test_replay_feq_needs_one_condition(self, conditions):
        step = Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), conditions)
        with pytest.raises(MatchError, match="FEQ step records"):
            replay_derivation([step])

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_json_matches_json_dumps(self, normalize):
        # json.dumps of the plain objects is the reference for the library's encoder.
        rng = random.Random(43)
        for i in range(300):
            t = (random_unsafe_biased_term if i % 2 else random_closed_term)(rng, 5)
            assert term_to_json(t) == json.dumps(term_to_json_obj(t))
            if normalize is normalize_safe and not is_safe(t):
                continue
            nf = normalize(t)
            obj = nf.to_json_obj()
            assert nf.to_json() == json.dumps(obj, indent=2)
            assert nf.to_json(indent=None) == json.dumps(obj)

    def test_trace_json_is_deterministic(self):
        nf1 = normalize_safe(parse("1/2 + 1/3"))
        nf2 = normalize_safe(parse("1/2 + 1/3"))
        assert nf1.to_json() == nf2.to_json()
        obj = nf1.to_json_obj()
        assert set(obj) == {"result", "conditions", "steps"}
        assert obj["conditions"] == sorted(obj["conditions"])

    def test_random_corpus_traces_are_pinned(self):
        # Any change to a rule, a step's order or position, or the JSON layout
        # changes this digest; the goldens pin only four derivations.
        rng = random.Random(2026)
        lines = []
        for i in range(600):
            t = (random_unsafe_biased_term if i % 2 else random_closed_term)(rng, 6)
            lines.append(normalize_full(t).to_json(indent=None))
            try:
                lines.append(normalize_safe(t).to_json(indent=None))
            except SafetyError as e:
                lines.append(str(e))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "bd6c872df24ed92035d9ba8e3a9448295865073466b9d39345686c72cba18d87"


def _left_sum(items):
    acc = items[0]
    for item in items[1:]:
        acc = Add(acc, item)
    return acc


def _continued_fraction(depth):
    t = Numeral(1)
    for _ in range(depth):
        t = Div(Numeral(1), Add(Numeral(1), t))
    return t


DEEP_TERMS = {
    "harmonic_300": lambda: _left_sum([Div(Numeral(1), Numeral(i)) for i in range(1, 301)]),
    "halves_400": lambda: _left_sum([Div(Numeral(1), Numeral(2))] * 400),
    "continued_200": lambda: _continued_fraction(200),
}


class TestDeepTerms:
    """Terms deep enough that a rewrite step must not recurse per level."""

    @pytest.mark.parametrize("name", sorted(DEEP_TERMS))
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_normalizes_and_replays(self, name, normalize):
        t = DEEP_TERMS[name]()
        nf = normalize(t)
        assert q0_value(nf.result) == q0_value(t)
        assert eq_syn(replay_derivation(nf.trace), nf.result)


def _harmonic(n):
    return _left_sum([Div(Numeral(1), Numeral(i)) for i in range(1, n + 1)])


@pytest.fixture
def count_nodes(monkeypatch):
    """Call it once to record every term node constructed from then on, in the list it returns."""

    def start():
        built = []
        for cls in (Numeral, Var, Add, Mul, Neg, Div):

            def counting(self, *args, _init=cls.__init__):
                built.append(self)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        return built

    return start


def _count_contractum_builds(nf):
    """Make each edit of ``nf``'s record count the builds of its contractum; return the counts."""
    record = nf.trace[0]._terms
    builds = [0] * len(record.edits)

    def counted(k, build, *args):
        builds[k] += 1
        return build(*args)

    record.edits = [(link, counted, k, *rest) for k, (link, *rest) in enumerate(record.edits)]
    return builds


READS = {
    "after": lambda nf: nf.trace[len(nf.trace) // 2].after,
    "to_json": lambda nf: nf.to_json(),
    "replay": lambda nf: replay_derivation(nf.trace),
}


class TestLocalSteps:
    """The engine records each step's contractum as integers; terms are built when read."""

    @pytest.mark.parametrize(
        "make", [lambda: _harmonic(200), lambda: _continued_fraction(100)],
        ids=["harmonic_200", "continued_100"],
    )
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_normalizing_builds_no_whole_term(self, monkeypatch, count_nodes, normalize, make):
        # Until a step is read, the engine builds the result's nodes and no other.
        def refuse(*args):
            raise AssertionError("a whole term was built")

        t = make()
        monkeypatch.setattr("fracterm.terms.replace_at", refuse)
        built = count_nodes()
        nf = normalize(t)
        assert q0_value(nf.result) == q0_value(t)
        assert_normal_form(nf)
        for step in nf.trace:
            assert isinstance(step.rule, str) and isinstance(step.position, tuple)
            assert step.conditions <= nf.conditions
        assert len(nf.trace) > 100
        result = postorder(nf.result)
        assert len(built) == len(result) and {id(b) for b in built} == {id(s) for s in result}
        assert eq_syn(nf.trace[-1].after, nf.result)
        assert len(built) > len(result)

    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_first_read_builds_each_contractum_once(self, normalize, read):
        nf = normalize(parse("-(1/2) + 3/(-6) + (4/6)/(2/3) + 5*(1+1/2) + 1/(2/(-3))"))
        builds = _count_contractum_builds(nf)
        read(nf)
        assert builds == [1] * len(nf.trace)
        for again in READS.values():
            again(nf)
        nf.trace[0].before, nf.trace[1].position
        assert builds == [1] * len(nf.trace)

    def test_a_pickled_trace_stays_unread(self, count_nodes):
        # Steps pickle as indices into one shared record of the root and the
        # edits' integers; loading builds the root and the result, nothing else.
        t = _continued_fraction(495)
        nf = normalize_safe(t)
        built = count_nodes()
        twin = pickle.loads(pickle.dumps(nf))
        assert len(built) == node_count(t) + node_count(nf.result)
        record, loaded = nf.trace[0]._terms, twin.trace[0]._terms
        assert all(s._terms is loaded for s in twin.trace)
        assert [s._i for s in twin.trace] == list(range(len(nf.trace)))
        assert [s.rule for s in twin.trace] == [s.rule for s in nf.trace]
        assert [s.conditions for s in twin.trace] == [s.conditions for s in nf.trace]
        assert [e[1:] for e in loaded.edits] == [e[1:] for e in record.edits]
        # every link is loaded once and stays shared between the steps that pass through it
        links = lambda r: len({id(e[0]) for e in r.edits})
        assert links(loaded) == links(record)
        for r in (record, loaded):
            assert r._contracta is None and r.cursor == []
        assert eq_syn(replay_derivation(twin.trace), nf.result)
        assert loaded.cursor == []

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_step_to_json_obj(self, normalize):
        t = parse("-(1/2) + 3/(-6) + (4/6)/(2/3) + 5*(1+1/2) + 1/(2/(-3))")
        expected = normalize(t).to_json_obj()["steps"]
        for i in range(len(expected)):  # each step of a trace no step of which was read
            assert normalize(t).trace[i].to_json_obj() == expected[i]
        nf = normalize(t)
        hand_built = [Step(s.rule, s.position, s.before, s.after, s.conditions) for s in nf.trace]
        assert [s.to_json_obj() for s in hand_built] == expected
        assert NormalForm(nf.result, nf.conditions, hand_built).to_json_obj()["steps"] == expected

    def test_an_unread_or_read_derivation_needs_no_cycle_collector(self):
        t = _harmonic(50)
        gc.collect()
        gc.disable()
        try:
            for normalize in (normalize_safe, normalize_full):
                nf = normalize(t)
                del nf
                nf = normalize(t)
                nf.trace[3].after
                del nf
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_reading_order_does_not_matter(self, normalize):
        t = parse("-(1/2) + 3/(-6) + (4/6)/(2/3) + 5*(1+1/2)")
        in_order, last_first = normalize(t), normalize(t)
        expected = [(s.before, s.after) for s in in_order.trace]
        assert in_order.trace[0].before is t
        assert eq_syn(last_first.trace[-1].after, expected[-1][1])
        assert eq_syn(last_first.trace[0].before, expected[0][0])
        for step, (before, after) in zip(last_first.trace, expected):
            assert eq_syn(step.before, before) and eq_syn(step.after, after)

    def test_hand_built_step(self):
        before, after = parse("1/2"), parse("2/4")
        step = Step(RULE_FEQ, (), before, after, frozenset({2}))
        assert (step.rule, step.position, step.before, step.after) == (RULE_FEQ, (), before, after)
        assert step.conditions == {2}
        assert Step(RULE_FEQ, (), before, after).conditions == frozenset()
        same = Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), frozenset({2}))
        assert step == same and hash(step) == hash(same)
        assert step != Step(RULE_FEQ, (), before, after, frozenset({3}))
        assert step != Step(RULE_FEQ, (), before, parse("4/8"), frozenset({2}))
        assert step != Step(RULE_DIV1, (), before, after, frozenset({2}))
        assert step != Step(RULE_FEQ, (0,), before, after, frozenset({2}))
        assert repr(step) == (
            "Step(rule='FEQ', position=(), "
            "before=Div(numerator=Numeral(value=1), denominator=Numeral(value=2)), "
            "after=Div(numerator=Numeral(value=2), denominator=Numeral(value=4)), "
            "conditions=frozenset({2}))"
        )
        for name in ("rule", "position", "before", "after", "conditions", "other"):
            with pytest.raises(AttributeError):
                setattr(step, name, None)
            with pytest.raises(AttributeError):
                delattr(step, name)
        assert step == same

    def test_the_writers_refuse_what_replay_refuses(self):
        # A hand-built step's position must address a subterm of its ``before``.
        for position in [(7, True), (0, 0), (True,), 0]:
            step = Step(RULE_FEQ, position, parse("1/2"), parse("2/4"), frozenset({2}))
            form = NormalForm(parse("1/2"), {2}, [step])
            for write in (step.to_json_obj, form.to_json_obj, form.to_json):
                with pytest.raises(PositionError):
                    write()
            with pytest.raises(MatchError):
                replay_derivation([step])
        step = Step(RULE_FEQ, [], parse("1/2"), parse("2/4"), frozenset({2}))
        assert step.to_json_obj()["position"] == [] and eq_syn(replay_derivation([step]), parse("2/4"))

    def test_trace_steps_equal_their_hand_built_copies(self):
        # Also when built from the lists a step's JSON holds, as replay from JSON will be.
        nf = normalize_full(parse("(1/2)/(3/0) + 1/1 + 1/0 + (2/3)*(3/4)"))
        for s in nf.trace:
            obj = s.to_json_obj()
            for copy_ in (
                Step(s.rule, s.position, s.before, s.after, s.conditions),
                Step(s.rule, obj["position"], s.before, s.after, obj["conditions"]),
            ):
                assert copy_ == s and hash(copy_) == hash(s)
        step = Step(RULE_FEQ, [], parse("1/2"), parse("2/4"), {2})
        assert step == Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), frozenset({2}))
        assert hash(step) == hash(Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), frozenset({2})))

    def test_positions_cost_linear_memory(self):
        # Each frame links to its parent's position, so an unread derivation
        # holds no position tuple and grows about linearly with depth; a
        # tuple per step would make it grow with depth squared.
        def retained(depth):
            t = _continued_fraction(depth)
            gc.collect()
            tracemalloc.start()
            try:
                nf = normalize_safe(t)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert retained(400) < 2.5 * retained(200)



MIXED = "-(1/2) + 3/(-6) + (4/6)/(2/3) + 5*(1+1/2) + 1/(2/(-3))"


def _hand_built(step):
    return Step(step.rule, step.position, step.before, step.after, step.conditions)


class TestReads:
    """A read walks a zipper to its step, from where the previous read left it."""

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_reading_in_order_moves_once_per_edit(self, monkeypatch, normalize):
        nf = normalize(_continued_fraction(100))
        moves = []
        move = calculator._Zipper.move
        monkeypatch.setattr(calculator._Zipper, "move", lambda z, link: moves.append(link) or move(z, link))
        terms = [(s.before, s.after) for s in nf.trace]
        assert len(moves) == len(nf.trace)
        assert eq_syn(terms[-1][1], nf.result)
        for (_, after), (before, _) in zip(terms, terms[1:]):
            assert after is before

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_reading_last_first_moves_at_most_twice_per_edit(self, monkeypatch, normalize):
        # A read before the cursor undoes edits instead of walking from the root.
        t = _continued_fraction(100)
        forward = [s.after for s in normalize(t).trace]
        nf = normalize(t)
        moves = []
        move = calculator._Zipper.move
        monkeypatch.setattr(calculator._Zipper, "move", lambda z, link: moves.append(link) or move(z, link))
        backward = [s.after for s in reversed(nf.trace)][::-1]
        assert len(moves) <= 2 * len(nf.trace)
        assert all(eq_syn(a, b) for a, b in zip(backward, forward))
        assert all(eq_syn(s.before, b) for s, b in zip(nf.trace[1:], forward))

    @pytest.mark.parametrize(
        "make", [lambda: _harmonic(200), lambda: _continued_fraction(100)],
        ids=["harmonic_200", "continued_100"],
    )
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_one_read_builds_the_contracta_and_one_spine(self, count_nodes, normalize, make):
        # The parent built every step's whole term here, steps × depth nodes.
        t = make()
        nf = normalize(t)
        built = count_nodes()
        nf.trace[1].after
        contracta = {id(s) for c in nf.trace[0]._terms.contracta() for s in postorder(c)}
        others = [b for b in built if id(b) not in contracta]
        assert len(built) - len(others) == len(contracta)
        assert 0 < len(others) <= depth(t)

    def test_threads_reading_one_trace(self):
        # Each read takes the cursor from its list, so two reads never walk one zipper.
        t = _harmonic(60)
        expected = [(s.before, s.after) for s in normalize_safe(t).trace]
        nf = normalize_safe(t)
        n = len(nf.trace)
        orders = [
            range(n),
            range(n - 1, -1, -1),
            random.Random(5).sample(range(n), n),
            [*range(0, n, 3), *range(1, n, 3), *range(2, n, 3)],
        ]
        wrong, errors = [], []

        def read(order):
            try:
                for _ in range(5):
                    for i in order:
                        step = nf.trace[i]
                        if not (eq_syn(step.after, expected[i][1]) and eq_syn(step.before, expected[i][0])):
                            wrong.append(i)
            except Exception as exc:  # a broken walk may raise anything
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_hand_built_copy_writes_the_same_json(self, normalize):
        nf = normalize(parse(MIXED))
        copied = NormalForm(nf.result, nf.conditions, [_hand_built(s) for s in nf.trace])
        assert copied.to_json() == nf.to_json()
        assert copied.to_json(indent=None) == nf.to_json(indent=None)
        assert eq_syn(replay_derivation(copied.trace), nf.result)

    @pytest.mark.parametrize("indent", [2, None])
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_mixed_and_sliced_traces_write_their_json(self, normalize, indent):
        nf = normalize(parse(MIXED))
        k = len(nf.trace) // 2
        mixed = [*nf.trace[:k], _hand_built(nf.trace[k]), *nf.trace[k + 1 :]]
        for trace in (mixed, nf.trace[k:]):
            form = NormalForm(nf.result, nf.conditions, trace)
            assert form.to_json(indent) == json.dumps(form.to_json_obj(), indent=indent)
            assert eq_syn(replay_derivation(trace), nf.result)


class TestLazyTrace:
    """A normalizer's trace builds a step only when it is read."""

    @pytest.fixture
    def built(self, monkeypatch):
        steps = []
        step_at = calculator._step_at
        monkeypatch.setattr(calculator, "_step_at", lambda *args: steps.append(args[1]) or step_at(*args))
        return steps

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_length_and_truth_build_no_step(self, built, normalize):
        nf = normalize(parse(MIXED))
        assert len(nf.trace) > 10 and nf.trace and not normalize(parse("1/2")).trace
        assert built == []
        nf.trace[-1], nf.trace[3]
        assert built == [len(nf.trace) - 1, 3]

    def test_reads_as_the_list_of_its_steps(self):
        nf = normalize_full(parse(MIXED))
        copies = [_hand_built(s) for s in nf.trace]
        assert nf.trace == copies and copies == nf.trace and nf.trace == nf.trace
        assert nf.trace != copies[1:] and nf.trace != tuple(copies)
        assert repr(nf.trace) == repr(copies) and list(nf.trace) == copies
        assert NormalForm(nf.result, nf.conditions, copies) == nf
        assert repr(NormalForm(nf.result, nf.conditions, copies)) == repr(nf)
        k = len(copies) // 2
        assert nf.trace[k:] == copies[k:] and nf.trace[::-3] == copies[::-3]
        assert nf.trace[-1] == copies[-1] and copies[k] in nf.trace
        with pytest.raises(IndexError):
            nf.trace[len(copies)]
        with pytest.raises(TypeError):
            hash(nf.trace)

    def test_a_list_passed_to_a_normal_form_is_kept(self):
        nf = normalize_safe(parse(MIXED))
        steps = list(nf.trace)
        form = NormalForm(nf.result, nf.conditions, steps)
        assert form.trace is steps and form.to_json() == nf.to_json()
        assert NormalForm(nf.result, nf.conditions).trace == []

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_an_unread_trace_pickles_unread(self, built, protocol):
        nf = normalize_safe(parse(MIXED))
        twin = pickle.loads(pickle.dumps(nf, protocol))
        assert built == [] and twin.trace._terms._contracta is None
        assert twin == nf and built != []
        for s, t in zip(twin.trace, nf.trace):
            assert (s.rule, s.position, s.conditions) == (t.rule, t.position, t.conditions)


def _normal_form_with_reads(text, reads):
    nf = normalize_safe(parse(text))
    for i in reads:
        nf.trace[i].after
    return nf


# Each makes a fresh object, so an unread trace step is still unread when copied.
COPIED = {
    "term": lambda: parse("(1/2)/(3/4) + x*(-5)"),
    "hand_built_step": lambda: Step(RULE_FEQ, (0,), parse("1/2"), parse("2/4"), frozenset({2})),
    "unread_step": lambda: _normal_form_with_reads("1/2 + 1/3", []).trace[1],
    "read_step": lambda: _normal_form_with_reads("1/2 + 1/3", [1]).trace[1],
    "normal_form": lambda: _normal_form_with_reads("(1/2)/(2/3) + 1", []),
    "residue": lambda: Residue(3, 7),
    "fracpair": lambda: Fracpair(-1, 0),
}


@pytest.mark.parametrize("make", COPIED.values(), ids=COPIED.keys())
@pytest.mark.parametrize(
    "copier", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_pickle_and_copy_round_trip(make, copier):
    obj, reference = make(), make()
    twin = copier(obj)
    assert type(twin) is type(obj)
    assert twin == reference and repr(twin) == repr(reference)
