"""Span recording for the traced run.

The library has no tracing hooks, so the traced run wraps its public module
functions from outside.  Each wrapped call records one span: a name
``<module>.<function>``, start and end times, the enclosing span and the
request being served.  Where the library calls its own public functions
through a module global (``check_equal`` calls ``normalize_safe``,
``classify`` calls ``denote``, ``denote`` and ``check_identity`` call
``evaluate``), the global is replaced too, so the inner call shows as a
child span.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.request = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        """``fn`` recording a span per call; ``name`` may be a function of the arguments."""
        fixed = name if isinstance(name, str) else None
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, open_ = self.parents, self.requests, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(fixed or name(*args))
            parents.append(open_[-1] if open_ else -1)
            requests.append(self.request)
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()

        return traced

    def patch(self, module, attr: str, wrapped) -> None:
        """Replace ``module.attr`` until :meth:`uninstall`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.names)

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        calls on one thread never overlap, so the children's durations add up.
        """
        child = array("d", bytes(8 * len(self)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(len(self)):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{i}\t{self.parents[i]}\t{self.requests[i]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
