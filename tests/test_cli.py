"""Command-line interface: output formats and exit codes."""

import json
import sys
from pathlib import Path

import pytest

from fracterm.cli import AXIOMS, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_echoes_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", "1/2+1/3")
        assert code == 0
        assert out == "((1/2)+(1/3))\n"

    def test_json_tree(self, capsys):
        code, out, _ = run(capsys, "parse", "1/2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "op": "div",
            "args": [{"num": "1"}, {"num": "2"}],
        }

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "parse", "1+")
        assert code == 2
        assert "parse error" in err

    def test_oversized_numeral_is_parse_error(self, capsys):
        code, _, err = run(capsys, "parse", "9" * 5000)
        assert code == 2
        assert "4300 digits" in err


class TestEvalCommand:
    def test_rational(self, capsys):
        assert run(capsys, "eval", "(1/4)/(3/2)", "--meadow", "q0")[1] == "1/6\n"

    def test_totalized_division(self, capsys):
        assert run(capsys, "eval", "1/0", "--meadow", "q0")[1] == "0\n"

    def test_error_element(self, capsys):
        code, out, _ = run(capsys, "eval", "1/0", "--meadow", "common")
        assert code == 0
        assert out == "a\n"

    def test_residue(self, capsys):
        assert run(capsys, "eval", "1/2", "--meadow", "gf:5")[1] == "3 mod 5\n"

    def test_open_term_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "x+1", "--meadow", "q0")
        assert code == 4
        assert "error" in err


class TestClassifyCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "4/2")
        assert code == 0
        obj = json.loads(out)
        assert obj["is_simple"] is True
        assert obj["is_scheinbruch"] is True
        assert obj["numerator"] == "4"

    def test_meadow_flag(self, capsys):
        _, out, _ = run(capsys, "classify", "4/2", "--meadow", "gf:2")
        assert json.loads(out)["is_common"] is False


class TestNormalizeCommand:
    def test_safe_default(self, capsys):
        code, out, _ = run(capsys, "normalize", "(2+3)/7")
        assert code == 0
        assert out == "(5/7)\nconditions: [7]\n"

    def test_safety_error_exit_code(self, capsys):
        code, _, err = run(capsys, "normalize", "1/1 + 1/0", "--mode", "safe")
        assert code == 3
        assert "(1/0)" in err

    def test_full_mode_collapses_unsafe(self, capsys):
        code, out, _ = run(capsys, "normalize", "1/1 + 1/0", "--mode", "full")
        assert code == 0
        assert out.splitlines()[0] == "(1/1)"

    def test_trace_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "1/(2/3)", "--trace")
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == {"op": "div", "args": [{"num": "3"}, {"num": "2"}]}
        assert [s["rule"] for s in obj["steps"]][0] == "DIV2"

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "normalize", "1/2+1/3", "--trace")
        _, second, _ = run(capsys, "normalize", "1/2+1/3", "--trace")
        assert first == second

    def test_deep_sum(self, capsys):
        code, out, _ = run(capsys, "normalize", "+".join(["1/2"] * 400))
        assert code == 0
        assert out == "(200/1)\nconditions: [2]\n"


# 3000 nines: parses, but its square has 6000 digits, past the int/str limit.
NINES = "9" * 3000


class TestOutputLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", f"{NINES}*{NINES}"],
            ["eval", f"{NINES}*{NINES}"],
            ["normalize", f"({NINES}*{NINES})/({NINES}*{NINES}+1)", "--trace"],
            # the result is 2/1; only the condition list is too long
            ["normalize", f"(2*{NINES}*{NINES})/({NINES}*{NINES})"],
            ["equal", f"{NINES}*{NINES}", "1"],
            ["equal", f"(2*{NINES}*{NINES})/({NINES}*{NINES})", "2"],
        ],
        ids=["normalize", "eval", "trace", "conditions", "equal", "equal-conditions"],
    )
    def test_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "limit of 4300 digits" in err


class TestEqualCommand:
    def test_relation_val(self, capsys):
        assert run(capsys, "equal", "1/2", "2/4", "--relation", "val")[1] == "true\n"

    def test_relation_pair(self, capsys):
        assert run(capsys, "equal", "1/2", "2/4", "--relation", "pair")[1] == "false\n"

    def test_relation_syn(self, capsys):
        assert run(capsys, "equal", "1/2", "1/2", "--relation", "syn")[1] == "true\n"

    def test_mode_full(self, capsys):
        code, out, _ = run(capsys, "equal", "1/2+1/2", "2/2", "--mode", "full")
        assert code == 0
        obj = json.loads(out)
        assert obj["equal"] is True
        assert obj["left"] == obj["right"] == "(1/1)"

    def test_safe_mode_safety_error(self, capsys):
        code, _, _ = run(capsys, "equal", "1/0", "0", "--mode", "safe")
        assert code == 3


class TestFracpairCommand:
    def test_add(self, capsys):
        assert run(capsys, "fracpair", "add", "1/2", "1/3")[1] == "5/6\n"

    def test_zero_mode_default_collapse(self, capsys):
        assert run(capsys, "fracpair", "add", "2/0", "3/0")[1] == "0/0\n"

    def test_zero_mode_sum(self, capsys):
        out = run(capsys, "fracpair", "add", "2/0", "3/0", "--zero-mode", "sum")[1]
        assert out == "5/0\n"

    def test_zero_mode_with_equals_after_the_operands(self, capsys):
        out = run(capsys, "fracpair", "add", "-2/0", "3/0", "--zero-mode=sum")[1]
        assert out == "1/0\n"

    def test_help_after_the_operands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fracpair", "add", "-1/2", "1/3", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fracterm fracpair")

    @pytest.mark.parametrize("op", ["neg", "value"])
    def test_one_operand_ops_refuse_two(self, capsys, op):
        code, out, err = run(capsys, "fracpair", op, "1/2", "3/4")
        assert (code, out) == (4, "")
        assert f"fracpair {op} takes one operand" in err

    def test_reads_sys_argv_without_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fracterm", "fracpair", "add", "1/2", "-1/3"])
        assert main() == 0
        assert capsys.readouterr().out == "1/6\n"

    def test_mul_unreduced(self, capsys):
        assert run(capsys, "fracpair", "mul", "1/2", "2/3")[1] == "2/6\n"

    def test_div_swaps(self, capsys):
        assert run(capsys, "fracpair", "div", "1/4", "3/2")[1] == "2/12\n"

    def test_neg_single_operand(self, capsys):
        assert run(capsys, "fracpair", "neg", "-3/5")[1] == "3/5\n"

    def test_value(self, capsys):
        assert run(capsys, "fracpair", "value", "3/0")[1] == "0\n"

    def test_eq_and_equiv(self, capsys):
        assert run(capsys, "fracpair", "eq", "1/2", "2/4")[1] == "false\n"
        assert run(capsys, "fracpair", "equiv", "1/2", "2/4")[1] == "true\n"

    def test_bad_literal_is_parse_error(self, capsys):
        assert run(capsys, "fracpair", "add", "1/2", "nope")[0] == 2

    def test_non_ascii_digits_are_parse_error(self, capsys):
        code, out, err = run(capsys, "fracpair", "add", "\u0661/\u0662", "1/3")
        assert (code, out) == (2, "")
        assert "bad fracpair literal" in err

    def test_oversized_literal_is_parse_error(self, capsys):
        code, out, err = run(capsys, "fracpair", "value", "9" * 5000 + "/1")
        assert (code, out) == (2, "")
        assert "limit of 4300 digits" in err

    def test_oversized_result_is_domain_error(self, capsys):
        pair = "9" * 3000 + "/1"
        code, out, err = run(capsys, "fracpair", "mul", pair, pair)
        assert (code, out) == (4, "")
        assert "limit of 4300 digits for output" in err

    def test_missing_operand_is_domain_error(self, capsys):
        assert run(capsys, "fracpair", "add", "1/2")[0] == 4

    def test_user_double_dash(self, capsys):
        assert run(capsys, "fracpair", "add", "--", "-3/5", "1/2")[1] == "-1/10\n"
        with pytest.raises(SystemExit) as exc_info:
            main(["fracpair", "add", "--", "--"])
        assert exc_info.value.code == 2
        assert "required: left" in capsys.readouterr().err


class TestAxiomsCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "axioms", "--meadow", "gf:3")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["qcr"].startswith("valid")
        assert lines["div1"].startswith("valid")
        assert lines["div2"].startswith("valid")
        assert lines["dbz"].startswith("valid")
        assert lines["cfar"].startswith("valid")
        assert lines["far"].startswith("counterexample")

    def test_gf7_report_matches_golden(self, capsys):
        code, out, err = run(capsys, "axioms", "--meadow", "gf:7")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "axioms_gf7.txt").read_text()

    def test_single_axiom(self, capsys):
        code, out, _ = run(capsys, "axioms", "--meadow", "gf:5", "--axiom", "inv_inv")
        assert code == 0
        assert out == "inv_inv: valid (5 assignments)\n"

    def test_exhaustive_limit(self, capsys):
        code, out, err = run(capsys, "axioms", "--meadow", "gf:1009", "--axiom", "qcr")
        assert (code, out) == (4, "")
        assert "the limit is 1000000 assignments" in err

    def test_over_limit_axioms_do_not_stop_the_rest(self, capsys):
        code, out, err = run(capsys, "axioms", "--meadow", "gf:1009")
        assert code == 4
        assert out == (
            "cancel_sq: valid (1009 assignments)\n"
            "dbz: valid (1009 assignments)\n"
            "gil: valid (1009 assignments)\n"
            "inv_inv: valid (1009 assignments)\n"
        )
        skipped = sorted(set(AXIOMS) - {"cancel_sq", "dbz", "gil", "inv_inv"})
        assert [line.split(": ")[1] for line in err.splitlines()] == skipped
        assert err.count("the limit is 1000000 assignments") == 10

    def test_infinite_backend_rejected(self, capsys):
        assert run(capsys, "axioms", "--meadow", "q0")[0] == 4

    def test_unknown_axiom(self, capsys):
        for name in ("nope", ""):
            assert run(capsys, "axioms", "--meadow", "gf:5", "--axiom", name)[0] == 4


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2


class TestLeadingMinus:
    """An operand that starts with a minus is an operand, with or without ``--``."""

    #: (subcommand, options, operands, stdout)
    CASES = [
        ("parse", [], ["-x"], "(-x)\n"),
        ("classify", ["--meadow", "q0"], ["-1/2"], None),
        ("eval", [], ["-1/2"], "-1/2\n"),
        ("normalize", ["--mode", "full"], ["-(1/2)"], "((-1)/2)\nconditions: [2]\n"),
        ("equal", ["--relation", "val"], ["-1/2", "-2/4"], "true\n"),
        ("fracpair", [], ["add", "-1/2", "1/3"], "-1/6\n"),
        ("axioms", ["--meadow", "gf:3", "--axiom", "gil"], [], "gil: valid (3 assignments)\n"),
    ]

    @pytest.mark.parametrize("command, options, operands, want", CASES, ids=[c[0] for c in CASES])
    def test_every_subcommand(self, capsys, command, options, operands, want):
        outs = []
        for argv in (
            [command, *operands, *options],
            [command, *options, *operands],
            [command, *options, "--", *operands],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            outs.append(out)
        assert outs == [outs[0]] * 3
        if want is None:  # classify
            assert json.loads(outs[0])["is_fraction"] is True
        else:
            assert outs[0] == want

    def test_an_operand_that_looks_like_a_long_option(self, capsys):
        assert run(capsys, "eval", "--1")[1] == "1\n"
        assert run(capsys, "parse", "--x")[1] == "(-(-x))\n"

    def test_abbreviated_options(self, capsys):
        assert run(capsys, "fracpair", "add", "-2/0", "3/0", "--zero=sum")[1] == "1/0\n"
        assert run(capsys, "normalize", "-(1/2)", "--tra")[1] == run(capsys, "normalize", "--trace", "--", "-(1/2)")[1]

    def test_help_after_the_operands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-1/2", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fracterm eval")

    def test_an_option_missing_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-1/2", "--meadow"])
        assert exc.value.code == 2
        assert "argument --meadow: expected one argument" in capsys.readouterr().err
