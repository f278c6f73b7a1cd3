"""List every executable line of ``src/fracterm`` that no Tier-1 test runs.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer,
then compares the lines that ran with each module's executable lines (the
line starts of its compiled code objects).  Exits 1 if any line outside
``ALLOWED`` never ran, and 0 otherwise.  Standard library and pytest only;
pytest does not collect this file.

Under tracing the suite runs several times slower, and two timing budgets
fail there: ``test_c5_fracpair_suite`` (5 s) and
``test_positions_at_depth_take_linear_time`` (2 s per call at 200,000 deep).
This script therefore gates on lines only, whatever the suite's own outcome;
Tier-1 stays the test gate.

Run it from the repository root, with extra pytest arguments if wanted::

    PYTHONPATH=src python tests/line_coverage.py
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "fracterm"))

#: ``(module file, stripped line text)``: why no test runs that line.
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"): "runs only as a script; tests call main() directly",
}


def executable_lines(path: str) -> set[int]:
    """The line numbers at which some code object compiled from ``path`` starts a line."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(c) if line)
        stack += (k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    # Each code file name, resolved once: its hit set if it is in src/, else None.
    resolved: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            real = os.path.realpath(name)
            resolved[name] = ran.setdefault(real, set()) if os.path.dirname(real) == SRC else None
        if resolved[name] is None:
            return None
        return local(frame, event, arg)

    # One local trace function for every call, so tracing leaves no cycle per call.
    def local(frame, event, arg):
        resolved[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    import pytest  # before tracing, so that only src/ is imported under the tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    missed = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            text = f.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            if (name, text[line - 1].strip()) not in ALLOWED:
                missed.append(f"src/fracterm/{name}:{line}: {text[line - 1].strip()}")
    print(f"\nline coverage (the suite itself exited {int(status)}):")
    for entry in missed:
        print("  never run:", entry)
    print(f"  {len(missed)} executable line(s) never run, {len(ALLOWED)} allowed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
