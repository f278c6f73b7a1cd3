"""End-to-end and per-layer benchmark of the fracterm library.

Run from the repository root::

    python3 bench/run.py --workload random_mix --seed 1 --seconds 30 --trace 0

One closed-loop client in one process serves the workload's requests until
``--seconds`` have passed (finishing the current round), checks every output
against the independent oracles in ``oracle.py``, and prints a table followed
by one JSON line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
serves half the time untraced and then as many rounds again with every
library layer wrapped in spans, and reports the per-layer metrics and the
tracing overhead.  The exit status is 1 on any wrong or failed operation and
2 when the library cannot be imported.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
from spans import Tracer
from workloads import WORKLOADS, Abort, Client

ROOT = Path(__file__).resolve().parent.parent
SPAN_FILE = ROOT / ".bench_out" / "spans-{workload}.tsv.gz"
SETUP_RUNS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from fracterm.cli import main; "
    "raise SystemExit(main(['normalize', '1/2+1/3']))"
)
MODULES = ("syntax", "meadows", "classify", "calculator", "fracpairs", "cli")

# api attribute -> (module, function, span name)
FUNCTIONS = {
    "parse": ("syntax", "parse", "syntax.parse"),
    "term_from_json": ("syntax", "term_from_json", "syntax.term_from_json"),
    "denote": ("meadows", "denote", "meadows.denote"),
    "check_identity": ("meadows", "check_identity", "meadows.check_identity"),
    "classify": ("classify", "classify", "classify.classify"),
    "eq_val": ("classify", "eq_val", "classify.eq_val"),
    "eq_pair": ("classify", "eq_pair", "classify.eq_pair"),
    "find_unsafe_fraction": ("calculator", "find_unsafe_fraction", "calculator.find_unsafe_fraction"),
    "normalize_safe": ("calculator", "normalize_safe", "calculator.normalize_safe"),
    "normalize_full": ("calculator", "normalize_full", "calculator.normalize_full"),
    "check_equal": ("calculator", "check_equal", "calculator.check_equal"),
    "replay_derivation": ("calculator", "replay_derivation", "calculator.replay_derivation"),
    "fp_add": ("fracpairs", "fp_add", "fracpairs.fp_add"),
    "cli_main": ("cli", "main", "cli.main"),
}
# library module globals through which the library calls its own public functions
INNER_CALLS = (
    ("classify", "denote", "denote"),
    ("calculator", "find_unsafe_fraction", "find_unsafe_fraction"),
    ("calculator", "normalize_safe", "normalize_safe"),
    ("calculator", "normalize_full", "normalize_full"),
)
EVALUATE_SPANS = {"Q0": "meadows.evaluate_q0", "Gfp": "meadows.evaluate_gf", "CommonQ": "meadows.evaluate_common"}


def trace_to_json(nf):
    """The default trace output, ``NormalForm.to_json()`` (indent 2)."""
    return nf.to_json()


def load_library():
    src = ROOT / "src"
    if not (src / "fracterm" / "__init__.py").is_file():
        print(f"error: no fracterm package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    return {m: importlib.import_module(f"fracterm.{m}") for m in MODULES}


def make_api(mods, tracer: Tracer | None = None):
    """The library's public functions, wrapped in spans when a tracer is given."""
    fracpairs, meadows, errors = mods["fracpairs"], mods["meadows"], importlib.import_module("fracterm.errors")
    api = SimpleNamespace(
        trace_to_json=trace_to_json, Fracpair=fracpairs.Fracpair, SafetyError=errors.SafetyError,
        ERROR=meadows.ERROR, Q0=meadows.Q0, CommonQ=meadows.CommonQ, Gfp=meadows.Gfp,
    )
    for attr, (module, fn, _) in FUNCTIONS.items():
        setattr(api, attr, getattr(mods[module], fn))
    if tracer is None:
        return api
    api.trace_to_json = tracer.wrap("calculator.trace_to_json", trace_to_json)
    for attr, (_, _, span) in FUNCTIONS.items():
        setattr(api, attr, tracer.wrap(span, getattr(api, attr)))
    tracer.patch(meadows, "evaluate", tracer.wrap(
        lambda t, meadow, *rest: EVALUATE_SPANS.get(type(meadow).__name__, "meadows.evaluate"),
        meadows.evaluate))
    for module, attr, api_attr in INNER_CALLS:
        tracer.patch(mods[module], attr, getattr(api, api_attr))
    return api


# -- measurement ------------------------------------------------------------------


def launch_cli() -> tuple[float, str | None]:
    """Wall time of a fresh interpreter importing ``fracterm.cli`` and answering one request."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("(5/6)\n"):
        return elapsed, f"setup: normalize exited {proc.returncode} with {proc.stdout[:80]!r}"
    return elapsed, None


def serve_rounds(workload, client: Client, rounds, seconds=None, count=None, describe=None, between=None) -> int:
    """Serve whole rounds until ``seconds`` have passed or ``count`` rounds are done.

    ``between(elapsed)`` runs after each round, outside every request.
    """
    start = perf_counter()
    done = 0
    for batch in rounds:
        for request in batch:
            client.serve(workload, request)
            if describe is not None:
                describe.add(workload.trees(request))
        done += 1
        elapsed = perf_counter() - start
        if between is not None:
            between(elapsed)
        if (count is not None and done >= count) or (seconds is not None and elapsed >= seconds):
            return done
    return done


def run_probes(workload, client: Client) -> list[tuple[str, str]]:
    """Run each limit probe's pipeline once; return (probe, outcome) pairs."""
    outcomes = []
    for name, facts in workload.probes():
        before = len(client.errors)
        client.serve(workload, facts)
        outcome = client.errors[-1] if len(client.errors) > before else "completed"
        outcomes.append((name, outcome))
    return outcomes


def run_cli_sample(workload, client: Client) -> None:
    """``fracterm normalize`` in process on a few of the workload's terms, output captured."""
    for text, tree in workload.cli_sample():
        argv = ["normalize", text] + (["--mode", "full"] if oracle.unsafe_position(tree) is not None else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = client.call("cli", client.api.cli_main, argv)
            except Abort:
                continue
        want = oracle.normal_form_text(oracle.q0_value(tree))
        with contextlib.suppress(Abort):
            client.check("cli", code == 0 and out.getvalue().split("\n")[0] == want, f"cli normalize {text!r}")


class Descriptors:
    """Properties of the inputs a cache or hash-consing would rely on."""

    def __init__(self):
        self.requests = self.nodes = self.shared = self.repeats = 0
        self.depth_max = 0
        self.table: dict = {}
        self.seen_requests: set = set()

    def add(self, trees) -> None:
        self.requests += 1
        ids = tuple(self._intern(t) for t in trees)
        self.repeats += ids in self.seen_requests
        self.seen_requests.add(ids)
        self.depth_max = max(self.depth_max, *(oracle.depth(t) for t in trees))

    def _intern(self, tree) -> int:
        table = self.table

        def node(key):
            self.nodes += 1
            if key in table:
                self.shared += 1
                return table[key]
            table[key] = len(table)
            return table[key]

        return oracle.fold(tree, lambda leaf: node(leaf), lambda op, args: node((op, *args)))


def percentile(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile ``q`` (0-100) and the number of samples above it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- runs ---------------------------------------------------------------------------


def end_to_end(args, mods, workload_cls):
    api = make_api(mods)
    workload = workload_cls(args.seed, api)
    client = Client(api)
    launches = []

    def setup_due(elapsed):
        # spread the fresh-interpreter launches over the run, so that their
        # median samples the machine as the requests do
        while len(launches) < SETUP_RUNS and elapsed >= len(launches) * args.seconds / SETUP_RUNS:
            launches.append(launch_cli())

    serve_rounds(workload, client, workload.rounds(), seconds=args.seconds, between=setup_due)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_due(math.inf)
    setup_times = [t for t, _ in launches]
    setup_errors = [e for _, e in launches if e]
    probes = Client(api)
    outcomes = run_probes(workload, probes) if hasattr(workload, "probes") else []

    lat = sorted(client.latencies)
    tail, beyond = percentile(lat, workload.tail_percentile)
    traced = client.counts["traced_requests"]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "requests_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    extra = {
        "trace_bytes_per_request": metric(client.counts["trace_bytes"] / traced if traced else 0, "bytes"),
        "fail_share": metric((client.failed + probes.failed) / (client.ops + probes.ops), "share"),
    }
    print(f"workload {workload.name}  seed {args.seed}  requests {len(lat)}  "
          f"operations {client.ops}  failed {client.failed}  wrong results {len(client.wrong)}")
    print(f"latency_tail_ms is p{workload.tail_percentile}: {beyond} of {len(lat)} requests lie beyond it")
    if traced == 0:
        print("trace_bytes_per_request: no request of this workload emits a trace")
    print_metrics({**metrics, **extra})
    print_probes(outcomes)
    errors = setup_errors + client.errors + probes.wrong
    correct = not (setup_errors or client.wrong or probes.wrong)
    return metrics, client.ops, client.failed, correct, errors


def traced_run(args, mods, workload_cls):
    plain_api = make_api(mods)
    workload = workload_cls(args.seed, plain_api)
    rounds = workload.rounds()
    plain = Client(plain_api)
    n = serve_rounds(workload, plain, rounds, seconds=args.seconds / 2)

    tracer = Tracer()
    traced = Client(make_api(mods, tracer), tracer)
    describe = Descriptors()
    serve_rounds(workload, traced, rounds, count=n, describe=describe)
    served = len(tracer)
    tracer.request = -1
    run_cli_sample(workload, traced)
    tracer.uninstall()
    tracer.write(Path(str(SPAN_FILE).format(workload=workload.name)))

    probes = Client(plain_api)
    outcomes = run_probes(workload, probes) if hasattr(workload, "probes") else []

    layers = tracer.layers()
    requests = len(traced.latencies)
    overhead = (sum(traced.latencies) / requests) / (sum(plain.latencies) / len(plain.latencies)) - 1

    def per_call_us(name):
        row = layers.get(name)
        return row["total_s"] / row["calls"] * 1e6 if row else 0.0

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def rate(count, *names):
        busy = sum(layers[name]["total_s"] for name in names if name in layers)
        return count / busy if busy else 0.0

    c = traced.counts
    metrics = {
        "syntax.parse.us_per_call": metric(per_call_us("syntax.parse"), "us"),
        "syntax.parse.nodes_per_s": metric(rate(c["parsed_nodes"], "syntax.parse"), "1/s"),
    }
    for backend in ("q0", "gf", "common"):
        metrics[f"meadows.evaluate_{backend}.us_per_call"] = metric(per_call_us(f"meadows.evaluate_{backend}"), "us")
    metrics["meadows.check_identity.assignments_per_s"] = metric(
        rate(c["assignments"], "meadows.check_identity"), "1/s")
    for name in ("classify.classify", "classify.eq_val", "classify.eq_pair",
                 "calculator.find_unsafe_fraction", "calculator.normalize_safe", "calculator.normalize_full"):
        metrics[f"{name}.us_per_call"] = metric(per_call_us(name), "us")
    metrics["calculator.steps_per_request"] = metric(c["steps"] / requests, "count")
    metrics["calculator.steps_per_s"] = metric(
        rate(c["steps"], "calculator.normalize_safe", "calculator.normalize_full"), "1/s")
    metrics["calculator.trace_to_json.us_per_call"] = metric(per_call_us("calculator.trace_to_json"), "us")
    to_json_calls = calls("calculator.trace_to_json")
    metrics["calculator.trace_to_json.bytes_per_call"] = metric(
        c["trace_bytes"] / to_json_calls if to_json_calls else 0, "bytes")
    for name in ("calculator.replay_derivation", "calculator.check_equal"):
        metrics[f"{name}.us_per_call"] = metric(per_call_us(name), "us")
    metrics["fracpairs.ops_per_s"] = metric(rate(calls("fracpairs.fp_add"), "fracpairs.fp_add"), "1/s")
    metrics["cli.main.us_per_call"] = metric(per_call_us("cli.main"), "us")
    metrics["terms.nodes_per_request"] = metric(describe.nodes / describe.requests, "count")
    metrics["terms.depth_max"] = metric(describe.depth_max, "count")
    metrics["terms.repeat_share"] = metric(describe.repeats / describe.requests, "share")
    metrics["terms.shared_node_share"] = metric(describe.shared / describe.nodes, "share")
    for module in MODULES:
        self_s = sum(row["self_s"] for name, row in layers.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_s"] = metric(self_s, "s")
        failed = plain.layer_failed[module] + traced.layer_failed[module] + probes.layer_failed[module]
        metrics[f"{module}.failed"] = metric(failed, "count")
    ops = plain.ops + traced.ops + probes.ops
    metrics["fail_share"] = metric((plain.failed + traced.failed + probes.failed) / ops, "share")
    traced_requests = plain.counts["traced_requests"] + c["traced_requests"]
    metrics["trace_bytes_per_request"] = metric(
        (plain.counts["trace_bytes"] + c["trace_bytes"]) / traced_requests if traced_requests else 0, "bytes")
    metrics["probes.failed"] = metric(probes.failed, "count")
    metrics["tracing.overhead_share"] = metric(overhead, "share")

    print(f"workload {workload.name}  seed {args.seed}  rounds {n} untraced + {n} traced  "
          f"requests {len(plain.latencies)} + {requests}  spans {served}")
    print_layers(layers)
    print(f"tracing overhead: {overhead:+.1%} mean request time "
          f"({sum(plain.latencies) / len(plain.latencies) * 1e3:.3f} ms untraced, "
          f"{sum(traced.latencies) / requests * 1e3:.3f} ms traced)")
    print_metrics(metrics)
    print_probes(outcomes)
    correct = not (plain.wrong or traced.wrong or probes.wrong)
    errors = plain.errors + traced.errors + probes.wrong
    # the result line counts the served operations; the probes are expected to fail at the seed
    return metrics, plain.ops + traced.ops, plain.failed + traced.failed, correct, errors


# -- output ---------------------------------------------------------------------------


def print_metrics(metrics) -> None:
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def print_layers(layers) -> None:
    busy = sum(row["self_s"] for row in layers.values()) or 1.0
    print(f"  {'span':<36} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7} {'us/call':>11}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<36} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{row['self_s'] / busy:>7.1%} {row['total_s'] / row['calls'] * 1e6:>11.2f}")


def print_probes(outcomes) -> None:
    for name, outcome in outcomes:
        print(f"  probe {name:<22} {outcome}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = load_library()
    run = traced_run if args.trace else end_to_end
    metrics, attempted, failed, correct, errors = run(args, mods, WORKLOADS[args.workload])
    for e in errors[:20]:
        print(f"  FAILED {e}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
