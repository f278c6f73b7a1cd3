"""The package's public names are part of its interface."""

import subprocess
import sys
import types
from pathlib import Path

import fracterm

PUBLIC_NAMES = [
    "Add",
    "CheckReport",
    "Classification",
    "CommonQ",
    "Div",
    "DomainError",
    "ERROR",
    "EqualityEvidence",
    "EvalError",
    "Fracpair",
    "FractermError",
    "Gfp",
    "MatchError",
    "Meadow",
    "MeadowValue",
    "Mul",
    "Neg",
    "NormalForm",
    "Numeral",
    "ParseError",
    "Position",
    "PositionError",
    "Q0",
    "Residue",
    "SafetyError",
    "Step",
    "Term",
    "Var",
    "ZeroMode",
    "apply_rule",
    "check_equal",
    "check_identity",
    "classify",
    "denote",
    "eq_pair",
    "eq_syn",
    "eq_val",
    "evaluate",
    "expand_numeral",
    "format_value",
    "fp_add",
    "fp_div",
    "fp_eq",
    "fp_equiv",
    "fp_mul",
    "fp_neg",
    "fp_value",
    "is_closed",
    "meadow_from_name",
    "normalize_full",
    "normalize_safe",
    "numeral",
    "parse",
    "parse_fracpair",
    "replay_derivation",
    "simple_equivalent",
    "subterm_at",
    "subterms",
    "term_from_json",
    "term_to_json",
    "to_text",
]


def test_public_names_are_pinned():
    # Submodules become package attributes once imported, in whatever order
    # the tests run, so they are not counted.
    public = sorted(
        name
        for name in dir(fracterm)
        if not name.startswith("_")
        and not isinstance(getattr(fracterm, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_cli_import_does_not_load_dataclasses():
    # Compared with the modules loaded before the import, so that a site hook
    # that loads dataclasses itself does not count.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import fracterm.cli; print(sorted({'dataclasses'} & (set(sys.modules) - before)))"
    )
    package_root = str(Path(fracterm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code, package_root], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
