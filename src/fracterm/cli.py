"""Command-line front end.

One subcommand per capability: ``parse``, ``classify``, ``eval``,
``normalize``, ``equal``, ``fracpair``, and ``axioms``.  Results go to
stdout, diagnostics to stderr.  Exit status: 0 success, 2 parse error,
3 safety error, 4 domain error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Any

from .calculator import check_equal, normalize_full, normalize_safe
from .classify import classify, eq_pair, eq_val
from .errors import DomainError, ParseError, SafetyError
from .fracpairs import (
    ZeroMode,
    fp_add,
    fp_div,
    fp_eq,
    fp_equiv,
    fp_mul,
    fp_neg,
    fp_value,
    parse_fracpair,
)
from .meadows import Gfp, check_identity, denote, format_value, meadow_from_name
from .syntax import _dumps, parse, to_text
from .terms import eq_syn

# Named identities checkable on any backend; each entry is
# (lhs, rhs, conditions), all in source syntax.
AXIOMS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "qcr": ("x/y + u/y", "(x+u)/y", ()),
    "cqcr": ("x/y + u/y", "(x+u)/y", ("y",)),
    "far": ("x/y + u/v", "(x*v + y*u)/(y*v)", ()),
    "cfar": ("x/y + u/v", "(x*v + y*u)/(y*v)", ("y", "v")),
    "dbz": ("x/0", "0/1", ()),
    "div1": ("(x/y)/z", "x/(y*z)", ()),
    "div2": ("x/(y/z)", "(x*z*z)/(y*z)", ()),
    "inv_inv": ("1/(1/x)", "x", ()),
    "cancel_sq": ("(x*x)/x", "x", ()),
    "div_as_mul": ("x/y", "x*(1/y)", ()),
    "gil": ("x/x", "1", ("x",)),
    "mul_frac": ("(x/y)*(u/v)", "(x*u)/(y*v)", ()),
    "inv_frac": ("1/(x/y)", "y/x", ()),
    "neg_frac": ("-(x/y)", "(-x)/y", ()),
}


def _emit(obj: Any) -> None:
    print(_dumps(obj, indent=2))


def _cmd_parse(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    if args.json:
        _emit(term)
    else:
        print(to_text(term))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    meadow = meadow_from_name(args.meadow)
    _emit(classify(parse(args.expr), meadow).to_json_obj())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    meadow = meadow_from_name(args.meadow)
    print(format_value(denote(parse(args.expr), meadow)))
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    nf = normalize_safe(term) if args.mode == "safe" else normalize_full(term)
    if args.trace:
        print(nf.to_json())
    else:
        conditions = _dumps(sorted(nf.conditions))
        print(to_text(nf.result))
        print(f"conditions: {conditions}")
    return 0


def _cmd_equal(args: argparse.Namespace) -> int:
    s, t = parse(args.left), parse(args.right)
    if args.relation is not None:
        meadow = meadow_from_name(args.meadow)
        if args.relation == "syn":
            outcome = eq_syn(s, t)
        elif args.relation == "pair":
            outcome = eq_pair(s, t, meadow)
        else:
            outcome = eq_val(s, t, meadow)
        print("true" if outcome else "false")
    else:
        evidence = check_equal(s, t, args.mode)
        print(evidence.to_json())
    return 0


def _cmd_fracpair(args: argparse.Namespace) -> int:
    mode = ZeroMode.from_name(args.zero_mode)
    a = parse_fracpair(args.left)
    if args.op in ("neg", "value"):
        if args.right is not None:
            raise DomainError(f"fracpair {args.op} takes one operand")
        if args.op == "neg":
            print(fp_neg(a))
        else:
            print(format_value(fp_value(a)))
        return 0
    if args.right is None:
        raise DomainError(f"fracpair {args.op} takes two operands")
    b = parse_fracpair(args.right)
    if args.op == "add":
        print(fp_add(a, b, mode))
    elif args.op == "mul":
        print(fp_mul(a, b))
    elif args.op == "div":
        print(fp_div(a, b))
    elif args.op == "eq":
        print("true" if fp_eq(a, b) else "false")
    else:  # equiv
        print("true" if fp_equiv(a, b) else "false")
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    meadow = meadow_from_name(args.meadow)
    if not isinstance(meadow, Gfp):
        raise DomainError("exhaustive axiom checking needs a finite backend (gf:P)")
    names = [args.axiom] if args.axiom else sorted(AXIOMS)
    if args.axiom and args.axiom not in AXIOMS:
        raise DomainError(
            f"unknown axiom {args.axiom!r}; known: {', '.join(sorted(AXIOMS))}"
        )
    status = 0
    for name in names:
        lhs_src, rhs_src, cond_srcs = AXIOMS[name]
        try:
            report = check_identity(
                parse(lhs_src), parse(rhs_src), [parse(c) for c in cond_srcs], meadow
            )
        except DomainError as exc:  # over the assignment limit: report it, check the rest
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = 4
            continue
        if report.valid:
            print(f"{name}: valid ({report.assignments_checked} assignments)")
        else:
            ce = {k: format_value(v) for k, v in sorted(report.counterexample.items())}
            print(f"{name}: counterexample {ce}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracterm",
        description="Exact fraction calculus over totalized rational and prime-field arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and echo it")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true", help="emit the JSON tree")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("classify", help="classify a term's fraction classes")
    p.add_argument("expr")
    p.add_argument("--meadow", default="q0", help="q0 | gf:P | common")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate a closed term")
    p.add_argument("expr")
    p.add_argument("--meadow", default="q0", help="q0 | gf:P | common")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("normalize", help="normalize to a simplified flat fraction")
    p.add_argument("expr")
    p.add_argument("--mode", choices=("full", "safe"), default="safe")
    p.add_argument("--trace", action="store_true", help="emit the derivation as JSON")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equal", help="compare two terms")
    p.add_argument("left")
    p.add_argument("right")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--relation", choices=("syn", "pair", "val"))
    group.add_argument("--mode", choices=("full", "safe"), default="safe")
    p.add_argument("--meadow", default="q0", help="backend for --relation pair/val")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("fracpair", help="integer-pair arithmetic")
    p.add_argument("op", choices=("add", "mul", "div", "neg", "eq", "equiv", "value"))
    p.add_argument("left")
    p.add_argument("right", nargs="?")
    p.add_argument("--zero-mode", choices=("sum", "collapse"), default="collapse")
    p.set_defaults(func=_cmd_fracpair)

    p = sub.add_parser("axioms", help="exhaustive identity checks on a prime field")
    p.add_argument("--meadow", required=True, help="gf:P")
    p.add_argument("--axiom", help="check a single named identity")
    p.set_defaults(func=_cmd_axioms)

    return parser


def _shield_operands(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Put a subcommand's operands after one ``--``, so that ``-1/2`` is not read as an option.

    A token is an option when it is one of the subcommand's option strings, a
    ``--name=value`` form of one, or a prefix of a long one, as argparse
    abbreviates them; the token after an option that takes a value is that
    value.  Every other token is an operand, and a typed ``--`` is dropped.
    """
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if not argv or argv[0] not in commands:
        return argv
    actions = commands[argv[0]]._option_string_actions
    options, operands, rest = argv[:1], [], iter(argv[1:])
    for tok in rest:
        long = tok.startswith("--") and len(tok) > 2
        name = tok.split("=", 1)[0] if long else tok
        matched = [a for s, a in actions.items() if s == name or long and s.startswith(name)]
        if matched:
            options.append(tok)
            if name == tok and matched[0].nargs != 0:
                options += itertools.islice(rest, 1)
        elif tok != "--":
            operands.append(tok)
    return options + ["--", *operands] if operands else options


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_shield_operands(parser, list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SafetyError as exc:
        print(f"safety error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
