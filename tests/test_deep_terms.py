"""Terms nested far deeper than the interpreter's recursion limit.

Every traversal walks an explicit stack, so these run under the default
limit of 1,000 frames.  Each result is checked against its closed form: the
left-nested sum of n ones denotes n, and n minus signs around 1 denote
(-1)**n.
"""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from fracterm.calculator import (
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
    ONE,
    ZERO,
    depth,
    eq_syn,
    expand_numeral,
    free_vars,
    is_closed,
    node_count,
    postorder,
    signed_numeral,
    subterms,
)

N = 10_000
UNSAFE = Div(ONE, ZERO)


def ones_sum(n):
    t = ONE
    for _ in range(n - 1):
        t = Add(t, ONE)
    return t


def neg_chain(n):
    t = ONE
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


class TestJsonNesting:
    def test_decoding_is_parse_error(self):
        text = '{"num": "1"}'
        for _ in range(500):
            text = '{"op": "neg", "args": [' + text + "]}"
        with pytest.raises(ParseError, match="nested too deeply"):
            term_from_json(text)

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


class TestNormalizerDepth:
    # Only nodes at positions shorter than 990 entries are expanded, and the
    # innermost fraction of depth d sits at 2(d - 1): 495 normalizes, 496 not.

    def test_domain_error(self):
        with pytest.raises(DomainError, match="nests too deeply to normalize"):
            normalize_safe(continued_fraction(496))

    def test_cli_exit_code(self, capsys):
        assert main(["normalize", to_text(continued_fraction(496))]) == 4
        assert "nests too deeply to normalize" in capsys.readouterr().err
        assert main(["normalize", to_text(continued_fraction(496, UNSAFE))]) == 3
        assert "unsafe term" in capsys.readouterr().err

    def test_safety_beats_depth(self):
        # In safe mode an unsafe term too deep to normalize is refused as unsafe,
        # whether its zero denominator is a numeral or only computed below the limit.
        for leaf in (UNSAFE, parse("1/(1/2 - 1/2)")):
            t = continued_fraction(496, leaf)
            with pytest.raises(SafetyError) as exc_info:
                normalize_safe(t)
            assert exc_info.value.position == (1, 1) * 496
            with pytest.raises(DomainError, match="nests too deeply to normalize"):
                normalize_full(t)
        with pytest.raises(SafetyError) as exc_info:
            normalize_safe(Add(UNSAFE, continued_fraction(496)))
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
