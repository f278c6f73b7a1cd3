"""JSON output: the writer against ``json.dumps`` at every indent, and the byte limit."""

import json
import random
import tracemalloc

import pytest

from fracterm import calculator, syntax
from fracterm.calculator import (
    RULE_CR_EVAL,
    RULE_FEQ,
    NormalForm,
    Step,
    check_equal,
    normalize_full,
    normalize_safe,
)
from fracterm.classify import classify
from fracterm.cli import main
from fracterm.errors import DomainError, PositionError
from fracterm.meadows import CommonQ, Gfp, Q0, check_identity
from fracterm.syntax import _dumps, parse, term_to_json
from fracterm.terms import Add, Div, Numeral, children, postorder

from termgen import is_safe, random_closed_term, random_unsafe_biased_term

# Indent 0 writes newlines with no spaces; None writes one line.
INDENTS = (None, 0, 1, 2, 4)


def _assert_written_as_json_dumps(nf):
    obj = nf.to_json_obj()
    for indent in INDENTS:
        assert nf.to_json(indent) == json.dumps(obj, indent=indent), indent


def _continued_fraction(depth):
    t = Numeral(1)
    for _ in range(depth):
        t = Div(Numeral(1), Add(Numeral(1), t))
    return t


def _hand_built(step):
    return Step(step.rule, step.position, step.before, step.after, step.conditions)


class TestWriterAgreesWithJsonDumps:
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_random_derivations(self, normalize):
        rng = random.Random(19)
        for i in range(120):
            t = (random_unsafe_biased_term if i % 2 else random_closed_term)(rng, 5, 999)
            if normalize is normalize_safe and not is_safe(t):
                continue
            _assert_written_as_json_dumps(normalize(t))

    def test_hand_built_steps_with_variables_and_long_numerals(self):
        steps = [
            Step(RULE_FEQ, (0,), parse("x/12345 + y"), parse("(x*7)/(12345*7) + y"), frozenset({7})),
            Step(RULE_CR_EVAL, (1, 0), parse("a1/(987654321*10)"), parse("a1/9876543210")),
            Step(RULE_FEQ, (), parse("-(zz)/100"), parse("-(zz)/100"), frozenset({1, 31, 4000})),
        ]
        _assert_written_as_json_dumps(NormalForm(parse("x/9876543210"), {9876543210, 7}, steps))

    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_mixed_and_sliced_traces(self, normalize):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            t = random_closed_term(rng, 5, 99)
            if not is_safe(t):
                continue
            nf = normalize(t)
            if len(nf.trace) < 3:
                continue
            checked += 1
            k = rng.randrange(1, len(nf.trace) - 1)
            mixed = [*nf.trace[:k], _hand_built(nf.trace[k]), *nf.trace[k + 1 :]]
            spliced = [*nf.trace[k:], *nf.trace[:k]]  # two runs, the second from the record's root
            for trace in (mixed, nf.trace[k:], nf.trace[:k], spliced):
                _assert_written_as_json_dumps(NormalForm(nf.result, nf.conditions, trace))

    def test_each_run_renders_its_first_term_and_then_only_contracta(self, monkeypatch):
        # One splice for every step: an engine run renders its first ``before``
        # and each contractum once, and a hand-built step its ``before`` and ``after``.
        rendered = []

        def counting(t, indent, level, out):
            rendered.append(t)
            return syntax._pieces(t, indent, level, out)

        monkeypatch.setattr(calculator, "_pieces", counting)
        nf = normalize_safe(parse("1/1+1/2+1/3+1/4+1/5+1/6"))
        record, k = nf.trace[0]._terms, len(nf.trace) // 2
        built = _hand_built(nf.trace[k])
        trace = [*nf.trace[:k], built, *nf.trace[k + 1 :]]
        NormalForm(nf.result, nf.conditions, trace).to_json()
        contracta = record.contracta()
        want = [record.root, *contracta[:k], built.before, built.after, nf.trace[k + 1].before, *contracta[k + 1 :]]
        assert [id(t) for t in rendered] == [id(t) for t in want]

    @pytest.mark.parametrize("position", [5, None, "0"])
    def test_position_that_is_not_a_sequence(self, position):
        step = Step(RULE_FEQ, position, parse("1/2"), parse("2/4"), {2})
        with pytest.raises(PositionError, match="a position is a list of child indices"):
            NormalForm(parse("2/4"), {2}, [step]).to_json()
        with pytest.raises(PositionError, match="a position is a list of child indices"):
            step.to_json_obj()

    def test_other_outputs_with_indents_interleaved(self):
        # A frame is cached per keys, level and indent; interleaving the indents
        # shows that none is reused for another.
        x, y = parse("x"), parse("y")
        outputs = [
            check_identity(parse("x*1"), parse("x"), [], Gfp(5), None).to_json_obj(),
            check_identity(parse("(x+y)*x"), parse("x*x + y*x"), [], Q0(), [{"x": 2, "y": 3}]).to_json_obj(),
            check_identity(parse("x/x + y"), parse("1 + y"), [], CommonQ(), [{"x": 0, "y": 1}]).to_json_obj(),
            classify(parse("3/(-4)"), Q0()).to_json_obj(),
            classify(parse("(1/2)/x"), Gfp(7)).to_json_obj(),
            check_equal(parse("1/2 + 1/3"), parse("5/6")).to_json_obj(),
            check_equal(parse("1/0"), parse("0"), mode="full").to_json_obj(),
            {"a": {"a": [1, {"a": []}], "b": {}}, "c": [[2, 3], [], [True, 1], ["s", None]]},
            [x, [y, {"t": Add(x, y)}], 10**40, -1, False],
            [],
            {},
        ]
        assert outputs[0]["status"] == "valid" and outputs[2]["counterexample"] is not None
        for order in (INDENTS, INDENTS[::-1]):
            for indent in order:
                for obj in outputs:
                    plain = json.loads(json.dumps(obj, default=syntax.term_to_json_obj))
                    assert _dumps(obj, indent) == json.dumps(plain, indent=indent), (indent, obj)

    def test_measure_counts_each_operator_once(self):
        rng = random.Random(29)
        for _ in range(50):
            t = random_closed_term(rng, 5, 99)
            operators = [s for s in postorder(t) if children(s)]
            sizes = {}
            assert syntax._measure(t, sizes) == len(syntax._pieces(t, 2, 0, []))
            # The table holds operators only, each once, and a second call adds nothing.
            assert sorted(sizes) == sorted({id(s) for s in operators})
            before = dict(sizes)
            assert syntax._measure(t, sizes) == len(syntax._pieces(t, None, 0, []))
            assert sizes == before

    @pytest.mark.parametrize("value", [object(), {"k": {3}}, [1, 2.5]])
    def test_values_outside_the_writers_types(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumps(value)

    def test_frame_cache_stays_bounded(self):
        # Dict keys such as variable names are unbounded, so the cache of frames is too.
        for i in range(5000):
            obj = {f"x{i}": [i, {"y": i}]}
            assert _dumps(obj, i % 3) == json.dumps(obj, indent=i % 3)
            assert len(syntax._FRAMES) <= 4096


class TestByteLimit:
    def test_limit_is_at_least_2_27_bytes(self):
        assert syntax._MAX_JSON_BYTES >= 2**27

    @pytest.mark.parametrize("indent", [2, None])
    def test_limit_just_above_and_below_a_trace(self, monkeypatch, indent):
        nf = normalize_safe(parse("1/1+1/2+1/3+1/4+1/5+1/6"))
        text = nf.to_json(indent)
        monkeypatch.setattr(syntax, "_MAX_JSON_BYTES", len(text))
        assert nf.to_json(indent) == text
        monkeypatch.setattr(syntax, "_MAX_JSON_BYTES", len(text) - 1)
        with pytest.raises(DomainError, match=f"limit of {len(text) - 1} bytes"):
            nf.to_json(indent)

    def test_limit_on_other_outputs(self, monkeypatch):
        t = parse("(1/2)/(3/4) + 5")
        text = term_to_json(t)
        monkeypatch.setattr(syntax, "_MAX_JSON_BYTES", len(text))
        assert term_to_json(t) == text
        monkeypatch.setattr(syntax, "_MAX_JSON_BYTES", len(text) - 1)
        with pytest.raises(DomainError, match="JSON output exceeds the limit"):
            term_to_json(t)

    def test_refusal_holds_little_more_than_the_limit(self, monkeypatch):
        # Continued depth 60 writes about 140 MB; the terms written are counted
        # as the trace grows, so the refusal comes long before that.
        nf = normalize_safe(_continued_fraction(60))
        monkeypatch.setattr(syntax, "_MAX_JSON_BYTES", 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="limit of 1048576 bytes"):
                nf.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22, peak

    def test_cli_refuses_continued_depth_100(self, capsys):
        text = "1/(1+" * 100 + "1" + ")" * 100
        assert main(["normalize", "--trace", text]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert f"exceeds the limit of {syntax._MAX_JSON_BYTES} bytes" in err
