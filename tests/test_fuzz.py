"""Structured fuzzing of the whole input surface: ``cli.main`` argv and JSON text.

Every input must give a result or a ``FractermError``: the CLI returns 0, 2, 3
or 4, or argparse exits with 0 (help) or 2 (usage), and ``term_from_json``
returns a term or raises :class:`ParseError`.  An argv means the same with its
operands before its options and no ``--``.  The strategies build inputs
that random characters rarely reach: numerals at the interpreter's int/str
limit, terms nested hundreds deep, meadow names at and past the modulus
bound, and fracpair literals with zero denominators.
"""

import contextlib
import io
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from fracterm.cli import AXIOMS, main
from fracterm.errors import ParseError
from fracterm.meadows import _MAX_MODULUS
from fracterm.syntax import term_from_json, term_to_json
from fracterm.terms import Neg, eq_syn

from test_terms import terms_strategy

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _digits(n, seed):
    """``n`` random decimal digits, the first nonzero."""
    rng = random.Random(seed)
    return str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=n - 1))


# Numerals just under and past Python's default int/str limit of 4,300 digits.
long_numerals = st.builds(_digits, st.integers(4299, 5000), st.integers(0, 2**32))
leaves = st.one_of(
    st.integers(0, 99).map(str),
    long_numerals,
    st.builds("{}_{}/{}".format, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.sampled_from(["x", "y", "a1"]),
)


def _grow(sub):
    binary = st.builds(
        lambda a, op, b, paren: f"({a}{op}{b})" if paren else f"{a} {op} {b}",
        sub,
        st.sampled_from("+-*/"),
        sub,
        st.booleans(),
    )
    return st.one_of(binary, sub.map("-{}".format), sub.map("({})".format))


SHAPES = {
    "continued": lambda d: "1/(1+" * d + "1" + ")" * d,
    "ones": lambda d: "+".join(["1"] * d),
    "minus": lambda d: "-" * d + "1",
    "parens": lambda d: "(" * d + "1" + ")" * d,
}
deep = st.builds(lambda shape, d: SHAPES[shape](d), st.sampled_from(sorted(SHAPES)), st.integers(100, 1000))
expressions = st.one_of(st.recursive(leaves, _grow, max_leaves=8), deep)

meadows = st.sampled_from(
    ["q0", "common", "gf:2", "gf:3", "gf:7", "gf:4", "gf:0", "gf:", "gf:" + "9" * 30, f"gf:{_MAX_MODULUS}", "r"]
)
fracpairs = st.builds(
    "{}{}/{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(0, 12),
    st.sampled_from(["", "-"]),
    st.integers(0, 3),
)
# Flags, put before the others, that argparse refuses (exit 2) or answers with help (exit 0).
junk = st.lists(st.sampled_from(["--bogus", "-h", "--mode", "--meadow=q0", "--"]), max_size=1)


def _optional(strategy):
    return st.one_of(st.just([]), strategy)


# Options come first and positionals after ``--``; ``_unshielded`` gives the
# same argv with the positionals first and no ``--``, which must mean the same.
argvs = st.one_of(
    st.builds(lambda f, e: ["parse", *f, "--", e], _optional(st.just(["--json"])), expressions),
    st.builds(
        lambda c, m, e: [c, "--meadow", m, "--", e], st.sampled_from(["classify", "eval"]), meadows, expressions
    ),
    st.builds(
        lambda m, t, e: ["normalize", *m, *t, "--", e],
        _optional(st.sampled_from([["--mode", "full"], ["--mode", "safe"]])),
        _optional(st.just(["--trace"])),
        expressions,
    ),
    st.builds(
        lambda flags, a, b: ["equal", *flags, "--", a, b],
        _optional(
            st.one_of(
                st.builds(lambda r, m: ["--relation", r, "--meadow", m], st.sampled_from(["syn", "pair", "val"]), meadows),
                st.sampled_from([["--mode", "full"], ["--mode", "safe"]]),
            )
        ),
        expressions,
        expressions,
    ),
    st.builds(
        lambda op, a, b, z: ["fracpair", op, a, *b, *z],
        st.sampled_from(["add", "mul", "div", "neg", "eq", "equiv", "value"]),
        fracpairs,
        _optional(fracpairs.map(lambda p: [p])),
        _optional(st.sampled_from([["--zero-mode", "sum"], ["--zero-mode=collapse"]])),
    ),
    st.builds(
        lambda m, a: ["axioms", "--meadow", m, *a],
        meadows,
        _optional(st.sampled_from(sorted(AXIOMS) + ["nope"]).map(lambda a: ["--axiom", a])),
    ),
)


def _unshielded(argv):
    """``argv`` with no ``--``, and the operands that followed it moved before the options."""
    if "--" not in argv:
        return argv
    k = argv.index("--")
    return [argv[0], *argv[k + 1 :], *argv[1:k]]


def _outcome(argv):
    """``main(argv)``'s status, or argparse's exit code, with what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: help or a usage error
            assert exc.code in (0, 2), argv
            return exc.code, out.getvalue(), err.getvalue()
    assert status in (0, 2, 3, 4), argv
    if status:
        assert err.getvalue().startswith(("parse error: ", "safety error: ", "error: ")), argv
    return status, out.getvalue(), err.getvalue()


@FUZZ
@given(st.one_of(argvs, argvs.map(_unshielded)), junk)
def test_cli_returns_only_its_exit_codes(argv, extra):
    _outcome([argv[0], *extra, *argv[1:]])


@FUZZ
@given(argvs)
def test_operands_need_no_double_dash(argv):
    assert _outcome(_unshielded(argv)) == _outcome(argv)


def _neg_wrapped(text, n):
    return '{"op": "neg", "args": [' * n + text + "]}" * n


@FUZZ
@given(terms_strategy(), st.integers(0, 1000), st.integers(0, 10**9))
def test_json_reader_returns_a_term_or_parse_error(t, wraps, cut):
    whole = _neg_wrapped(term_to_json(t), wraps)
    for text in (whole, whole[: cut % len(whole)]):
        try:
            back = term_from_json(text)
        except ParseError:
            continue
        assert text is whole
        for _ in range(wraps):
            t = Neg(t)
        assert eq_syn(back, t)
