"""List every executable line of ``src/fracterm`` that no Tier-1 test runs.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer,
then compares the lines that ran with each module's executable lines (the
line starts of its compiled code objects).  Exits 1 if any line outside
``ALLOWED`` never ran, and 0 otherwise.  Standard library and pytest only;
pytest does not collect this file.

Under tracing the suite runs several times slower, and two tests fail
there: a timing budget (``test_c5_fracpair_suite``) and a check that the
cycle collector finds nothing to free.  This script therefore gates on
lines only, whatever the suite's own outcome; Tier-1 stays the test gate.

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
    resolved: dict[str, str | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        path = resolved.get(name, "")
        if path == "":
            real = os.path.realpath(name)
            path = resolved[name] = real if os.path.dirname(real) == SRC else None
        if path is None:
            return None
        hits = ran.setdefault(path, set())
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

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
