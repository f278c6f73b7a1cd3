"""Terms nested far deeper than the interpreter's recursion limit.

Every traversal walks an explicit stack, so these run under the default
limit of 1,000 frames.  Each result is checked against its closed form: the
left-nested sum of n ones denotes n, and n minus signs around 1 denote
(-1)**n.
"""

import copy
import pickle
import sys
import time
from fractions import Fraction

import pytest

from fracterm.calculator import (
    RULE_CR_EMBED,
    RULE_DBZ,
    apply_rule,
    find_unsafe_fraction,
    normalize_full,
    normalize_safe,
    replay_derivation,
)
from fracterm.classify import classify
from fracterm.cli import main
from fracterm.errors import DomainError, ParseError, SafetyError
from fracterm.meadows import CommonQ, Gfp, Q0, Residue, check_identity, evaluate
from fracterm.syntax import (
    _MAX_JSON_DEPTH,
    parse,
    term_from_json,
    term_from_json_obj,
    term_to_json,
    term_to_json_obj,
    to_text,
)
from fracterm.terms import (
    Add,
    Div,
    Neg,
    Numeral,
    ONE,
    ZERO,
    depth,
    eq_syn,
    expand_numeral,
    free_vars,
    is_closed,
    node_count,
    postorder,
    replace_at,
    signed_numeral,
    subterm_at,
    subterms,
)

N = 10_000
UNSAFE = Div(ONE, ZERO)


def ones_sum(n):
    t = ONE
    for _ in range(n - 1):
        t = Add(t, ONE)
    return t


def neg_chain(n, t=ONE):
    for _ in range(n):
        t = Neg(t)
    return t


def continued_fraction(d, leaf=ONE):
    """``1/(1+1/(1+…))`` with ``d`` fraction bars above ``leaf``."""
    t = leaf
    for _ in range(d):
        t = Div(ONE, Add(ONE, t))
    return t


# (term, value, node count, depth)
DEEP = {
    "sum": (ones_sum(N), N, 2 * N - 1, N - 1),
    "chain": (neg_chain(N), (-1) ** N, N + 1, N),
}


@pytest.fixture(params=sorted(DEEP))
def deep(request):
    return DEEP[request.param]


def test_term_walks(deep):
    t, _, count, height = deep
    assert len(postorder(t)) == node_count(t) == count
    assert depth(t) == height
    assert free_vars(t) == set()
    assert is_closed(t)
    assert eq_syn(expand_numeral(t), t)


@pytest.mark.parametrize(
    "name, head, tail",
    [("sum", "Add(left=", ", right=Numeral(value=1))"), ("chain", "Neg(arg=", ")")],
    ids=["sum", "chain"],
)
def test_eq_hash_repr(name, head, tail):
    t, _, _, height = DEEP[name]
    twin = parse(to_text(t))
    assert twin is not t and twin == t and hash(twin) == hash(t)
    assert t != Neg(t) and t != Add(t, ONE)
    assert repr(t) == head * height + "Numeral(value=1)" + tail * height


def test_subterms_in_preorder():
    # A position per node makes the output Θ(depth²) entries, so this runs
    # at twice the recursion limit rather than at N.
    t = neg_chain(2000)
    pairs = subterms(t)
    assert len(pairs) == 2001
    assert [len(pos) for pos, _ in pairs] == list(range(2001))
    assert pairs[-1] == ((0,) * 2000, ONE)


def test_positions_at_depth_take_linear_time():
    # Each call opens one zipper and descends once; a descent that copied the
    # path per level would take minutes at this depth, not a fraction of a second.
    n = 200_000
    t, pos = neg_chain(n), (0,) * n
    calls = [
        (lambda: subterm_at(t, pos), ONE),
        (lambda: replace_at(t, pos, ZERO), neg_chain(n, ZERO)),
        (lambda: apply_rule(t, RULE_CR_EMBED, pos), neg_chain(n, Div(ONE, ONE))),
    ]
    for call, want in calls:
        start = time.perf_counter()
        got = call()
        assert time.perf_counter() - start < 2
        assert eq_syn(got, want)


def test_text_round_trip(deep):
    t = deep[0]
    assert eq_syn(parse(to_text(t)), t)


def test_json_obj_round_trip(deep):
    t = deep[0]
    assert eq_syn(term_from_json_obj(term_to_json_obj(t)), t)


@pytest.mark.parametrize(
    "copier",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_pickle_and_copy_round_trip(deep, copier):
    t = deep[0]
    twin = copier(t)
    assert twin is not t and eq_syn(twin, t)


def test_nested_parentheses():
    assert eq_syn(parse("(" * 5000 + "1" + ")" * 5000), ONE)


def test_evaluate(deep):
    t, v = deep[:2]
    assert evaluate(t, Q0()) == Fraction(v)
    assert evaluate(t, CommonQ()) == Fraction(v)
    assert evaluate(t, Gfp(7)) == Residue(v % 7, 7)


def test_check_identity(deep):
    t, v = deep[:2]
    assert check_identity(t, signed_numeral(v), [], Gfp(7)).valid


def test_classify_and_precheck(deep):
    t = deep[0]
    c = classify(t, Q0())
    assert c.is_closed and c.is_safe_term and not c.is_fraction
    assert find_unsafe_fraction(t) is None


def test_normalize_and_replay(deep):
    t, v = deep[:2]
    nf = normalize_safe(t)
    assert eq_syn(nf.result, Div(signed_numeral(v), ONE))
    assert eq_syn(replay_derivation(nf.trace), nf.result)


def test_cli_eval(capsys):
    assert main(["eval", "+".join(["1"] * 1000)]) == 0
    assert capsys.readouterr().out == "1000\n"


def _neg_chain(n):
    """The JSON text of ``n`` minus signs around 1: ``2n + 1`` containers deep."""
    return '{"op": "neg", "args": [' * n + '{"num": "1"}' + "]}" * n


class TestJsonNesting:
    def test_decoding_is_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            term_from_json(_neg_chain(500))

    @pytest.mark.parametrize("times", [2, 100])
    @pytest.mark.parametrize("frames", [0, 300])
    def test_decoding_limit_ignores_callers_stack(self, times, frames):
        text = _neg_chain(times * _MAX_JSON_DEPTH // 2)
        with pytest.raises(ParseError, match=f"nested too deeply, past {_MAX_JSON_DEPTH} containers"):
            _called_deep(lambda: term_from_json(text), frames)

    def test_decoding_limit_boundary(self):
        with pytest.raises(ParseError, match=f"past {_MAX_JSON_DEPTH} containers"):
            term_from_json(_neg_chain((_MAX_JSON_DEPTH + 1) // 2))  # 991 containers
        # 990 containers pass the scan; the outer object is no term.
        with pytest.raises(ParseError) as caught:
            term_from_json('{"x": ' + _neg_chain(_MAX_JSON_DEPTH // 2 - 1) + "}")
        assert "past" not in str(caught.value)

    def test_chain_of_200_decodes_from_deep_caller(self):
        t = _called_deep(lambda: term_from_json(_neg_chain(200)), 300)
        assert evaluate(t, Q0()) == 1

    def test_deep_caller_below_the_limit(self):
        # On CPython 3.10 and 3.11 json.loads shares the recursion limit with
        # the caller's frames, so a deep caller may be refused below the limit.
        try:
            t = _called_deep(lambda: term_from_json(_neg_chain(450)), 600)
        except ParseError as e:
            assert "nested too deeply to decode" in str(e)
        else:
            assert evaluate(t, Q0()) == 1

    def test_brackets_in_strings_do_not_count(self):
        pad = "[" * 2000 + '\\"{' * 1000
        assert eq_syn(term_from_json('{"var": "x", "pad": "' + pad + '"}'), parse("x"))
        with pytest.raises(ParseError, match="invalid JSON"):
            term_from_json('{"var": "x", "pad": "' + pad)  # the string never ends

    def test_encoding_is_domain_error(self):
        with pytest.raises(DomainError, match="nests too deeply for JSON"):
            term_to_json(DEEP["sum"][0])

    @pytest.mark.parametrize(
        "argv", [["parse", "--json"], ["normalize", "--trace"]], ids=["parse", "normalize"]
    )
    def test_cli_exit_code(self, capsys, argv):
        assert main([*argv, "+".join(["1"] * 1000)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "nests too deeply for JSON output" in err

    @pytest.mark.parametrize(
        "argv, ones",
        [(["parse", "--json"], 495), (["normalize", "--trace"], 494)],
        ids=["parse", "normalize"],
    )
    def test_cli_boundary(self, capsys, argv, ones):
        # The limit is a fixed number of containers, whatever the stack depth.
        assert main([*argv, "+".join(["1"] * ones)]) == 0
        capsys.readouterr()
        assert main([*argv, "+".join(["1"] * (ones + 1))]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "nests too deeply for JSON output" in err


def _called_deep(f, frames):
    """``f()``, called once the interpreter stack is ``frames`` frames deep."""
    here, depth = sys._getframe(), 0
    while here is not None:
        here, depth = here.f_back, depth + 1

    def descend(n):
        return f() if n <= 0 else descend(n - 1)

    return descend(frames - depth - 1)


def harmonic(n):
    """``1/1 + 1/2 + … + 1/n``, nested to the left."""
    t = Div(ONE, ONE)
    for k in range(2, n + 1):
        t = Add(t, Div(ONE, Numeral(k)))
    return t


def flat(v):
    """The normal form of the rational ``v``."""
    return Div(signed_numeral(v.numerator), Numeral(v.denominator))


def continued_value(d):
    v = Fraction(1)
    for _ in range(d):
        v = 1 / (1 + v)
    return v


PAST_THE_OLD_LIMIT = {
    "continued_496": (lambda: continued_fraction(496), lambda: continued_value(496)),
    "continued_2000": (lambda: continued_fraction(2000), lambda: continued_value(2000)),
    "harmonic_991": (lambda: harmonic(991), lambda: sum(Fraction(1, k) for k in range(1, 992))),
    "minus_10000": (lambda: neg_chain(10_000, Div(ONE, Numeral(2))), lambda: Fraction(1, 2)),
}


class TestNormalizerDepth:
    # The engine has no depth limit: a frame links to its parent's position,
    # and reading a step walks a zipper to it, so nothing costs steps × depth.

    @pytest.mark.parametrize("name", sorted(PAST_THE_OLD_LIMIT))
    @pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
    def test_normalizes_past_the_old_limit(self, normalize, name):
        make, value = PAST_THE_OLD_LIMIT[name]
        nf = normalize(make())
        assert eq_syn(nf.result, flat(value()))
        assert eq_syn(replay_derivation(nf.trace), nf.result)

    def test_cli_exit_code(self, capsys):
        assert main(["normalize", to_text(continued_fraction(496))]) == 0
        assert capsys.readouterr().out.startswith(to_text(flat(continued_value(496))) + "\n")
        assert main(["normalize", to_text(continued_fraction(496, UNSAFE))]) == 3
        assert "unsafe term" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [496, 2000])
    def test_unsafe_leaf_deep_down(self, d):
        # Safe mode names the innermost fraction, whether its zero denominator
        # is a numeral or computed; full mode collapses it with DBZ.
        for leaf in (UNSAFE, parse("1/(1/2 - 1/2)")):
            t = continued_fraction(d, leaf)
            with pytest.raises(SafetyError) as exc_info:
                normalize_safe(t)
            assert exc_info.value.position == (1, 1) * d
            nf = normalize_full(t)
            assert RULE_DBZ in {s.rule for s in nf.trace}
            assert eq_syn(nf.result, flat(evaluate(t, Q0())))
        with pytest.raises(SafetyError) as exc_info:
            normalize_safe(Add(UNSAFE, continued_fraction(d)))
        assert exc_info.value.position == (0,)

    def test_limit_ignores_callers_stack(self):
        t = continued_fraction(40)
        frames = sys.getrecursionlimit() - 100
        for normalize in (normalize_safe, normalize_full):
            nf = _called_deep(lambda: normalize(t), frames)
            assert eq_syn(nf.result, normalize(t).result)

    def test_cli_continued_250(self, capsys):
        v = Fraction(1)
        for _ in range(250):
            v = 1 / (1 + v)
        assert main(["normalize", to_text(continued_fraction(250))]) == 0
        assert capsys.readouterr().out.startswith(f"({v.numerator}/{v.denominator})\n")
