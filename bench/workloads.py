"""The three workloads: seeded inputs, the calls each request makes, and the checks.

Each workload turns ``--seed`` into an endless stream of rounds (lists of
requests) and serves one request at a time through a :class:`Client`, which
times the library calls and counts failures.  Inputs reach the library as
text for ``parse`` and as the parsed trees after that; everything the
outputs are checked against comes from :mod:`oracle`.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from time import perf_counter

import oracle


class Abort(Exception):
    """Ends the current request after a failed or wrong call."""


class Client:
    """A single closed-loop client: the next request starts when this one ends.

    ``call`` times one library call and counts it as an operation; the time
    spent generating inputs and checking outputs is not part of a request's
    latency.  An operation fails when it raises something other than the
    documented outcome it was given as ``expect``, or when ``check`` finds
    its output wrong.
    """

    def __init__(self, api, tracer=None):
        self.api = api
        self.tracer = tracer
        self.latencies: list[float] = []
        self.ops = 0
        self.failed = 0
        self.layer_failed: Counter = Counter()
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.counts: Counter = Counter()
        self._busy = 0.0

    def serve(self, workload, request) -> None:
        if self.tracer is not None:
            self.tracer.request = len(self.latencies)
        self._busy = 0.0
        try:
            workload.serve(self, request)
        except Abort:
            pass
        self.latencies.append(self._busy)

    def call(self, layer: str, fn, *args, expect=()):
        self.ops += 1
        start = perf_counter()
        try:
            out = fn(*args)
        except expect as exc:
            self._busy += perf_counter() - start
            return exc
        except Exception as exc:  # any escape is a failed operation, recorded by type
            self._busy += perf_counter() - start
            self._fail(layer, f"{layer}: {fn.__name__} raised {type(exc).__name__}: {str(exc)[:120]}")
            raise Abort from None
        self._busy += perf_counter() - start
        return out

    def check(self, layer: str, ok: bool, what: str) -> None:
        if not ok:
            self._fail(layer, f"{layer}: wrong result from {what}")
            self.wrong.append(self.errors[-1])
            raise Abort

    def _fail(self, layer: str, message: str) -> None:
        self.failed += 1
        self.layer_failed[layer] += 1
        self.errors.append(message)

    # -- checks shared by the workloads ---------------------------------------

    def parse(self, text: str, tree):
        t = self.call("syntax", self.api.parse, text)
        self.check("syntax", oracle.same(oracle.from_program(t), tree), f"parse of {text[:60]!r}")
        return t

    def normal_form(self, fn, term, value: Fraction, expect=()):
        nf = self.call("calculator", fn, term, expect=expect)
        if isinstance(nf, Exception):
            return nf
        self.check_normal_form(nf, value, fn.__name__)
        return nf

    def check_normal_form(self, nf, value: Fraction, what: str) -> None:
        self.check("calculator", oracle.is_normal_form(oracle.from_program(nf.result), value), what)
        self.counts["steps"] += len(nf.trace)

    def classes(self, term, tree, q0, facts=None) -> None:
        cls = self.call("classify", self.api.classify, term, q0)
        facts = facts or oracle.q0_classes(tree)
        self.check("classify", all(getattr(cls, k) == v for k, v in facts.items()), "classify")


def _json_obj(tree):
    """The library's documented JSON encoding of a (shallow) term."""
    if tree[0] == "n":
        return {"num": str(tree[1])}
    op = {"+": "add", "*": "mul", "-": "neg", "/": "div"}[tree[0]]
    return {"op": op, "args": [_json_obj(a) for a in tree[1:]]}


def _meadows(api, primes):
    return api.Q0(), api.CommonQ(), {p: api.Gfp(p) for p in primes}


# -- random_mix -------------------------------------------------------------------


def random_term(rng, depth=6, top=12):
    """A random closed term of depth at most ``depth``, biased toward small trees."""
    if depth == 0 or rng.random() < 0.30:
        return ("n", rng.randint(0, top))
    roll = rng.random()
    if roll < 0.30:
        return ("+", random_term(rng, depth - 1, top), random_term(rng, depth - 1, top))
    if roll < 0.52:
        return ("*", random_term(rng, depth - 1, top), random_term(rng, depth - 1, top))
    if roll < 0.70:
        return ("-", random_term(rng, depth - 1, top))
    return ("/", random_term(rng, depth - 1, top), random_term(rng, depth - 1, top))


def zero_term(rng, top=12):
    """A closed term denoting zero, in one of several disguises."""
    k = ("n", rng.randint(1, top))
    shapes = (("n", 0), ("+", k, ("-", k)), ("+", ("-", k), k), ("*", ("n", 0), k), ("/", k, ("n", 0)))
    return shapes[rng.randrange(len(shapes))]


def unsafe_biased_term(rng, depth=6, top=12):
    """A random term with a zero-denominator fraction forced in half the cases."""
    t = random_term(rng, depth, top)
    if rng.random() < 0.5:
        t = ("/", t, zero_term(rng, top))
        if rng.random() < 0.5:
            t = ("+", random_term(rng, 2, top), t)
    return t


class RandomMix:
    """Fresh random small terms through every layer; one request in eight emits its trace."""

    name = "random_mix"
    tail_percentile = 99
    ROUND = 8
    PRIMES = (2, 3, 5, 7, 11, 13)

    def __init__(self, seed: int, api):
        self.rng = random.Random(seed)
        self.seen: set[str] = set()
        self.q0, self.common, self.gf = _meadows(api, self.PRIMES)

    def _fresh(self):
        while True:
            if self.rng.random() < 1 / 3:
                tree = unsafe_biased_term(self.rng)
            else:
                tree = random_term(self.rng)
            text = oracle.to_text(tree)
            if text not in self.seen:
                self.seen.add(text)
                return tree, text

    def rounds(self):
        while True:
            traced = self.rng.randrange(self.ROUND)
            batch = []
            for i in range(self.ROUND):
                tree, text = self._fresh()
                batch.append((tree, text, i == traced, self.rng.choice(self.PRIMES), i == 0))
            yield batch

    @staticmethod
    def trees(request):
        return [request[0]]

    def serve(self, c: Client, request) -> None:
        tree, text, traced, p, first = request
        api = c.api
        if first:
            # the fracpair accumulator starts afresh each round, so its
            # denominators stay as small as one round's results make them
            self.acc = (0, 1)
        t = c.parse(text, tree)
        c.counts["parsed_nodes"] += oracle.size(tree)
        c.classes(t, tree, self.q0)
        value = oracle.q0_value(tree)
        c.check("meadows", c.call("meadows", api.denote, t, self.q0) == value, "denote q0")
        r = c.call("meadows", api.denote, t, self.gf[p])
        c.check("meadows", getattr(r, "value", None) == oracle.gf_value(tree, p), f"denote gf:{p}")
        r = c.call("meadows", api.denote, t, self.common)
        want = oracle.common_value(tree)
        c.check("meadows", r is api.ERROR if want is oracle.ERROR else r == want, "denote common")

        unsafe_at = oracle.unsafe_position(tree)
        nf = c.normal_form(api.normalize_safe, t, value, expect=api.SafetyError)
        if isinstance(nf, api.SafetyError):
            c.check("calculator", unsafe_at is not None and tuple(nf.position) == unsafe_at,
                    "normalize_safe refusal")
            nf = c.normal_form(api.normalize_full, t, value)
        else:
            c.check("calculator", unsafe_at is None, "normalize_safe on an unsafe term")

        k, l = value.numerator, value.denominator
        s = c.call("fracpairs", api.fp_add, api.Fracpair(*self.acc), api.Fracpair(k, l))
        self.acc = oracle.fracpair_sum(*self.acc, k, l)
        c.check("fracpairs", (s.num, s.den) == self.acc, "fp_add")

        if traced:
            want = oracle.normal_form(value)
            text = c.call("calculator", api.trace_to_json, nf)
            doc = json.loads(text)
            c.check("calculator", doc["result"] == _json_obj(want) and len(doc["steps"]) == len(nf.trace),
                    "NormalForm.to_json")
            c.counts["trace_bytes"] += len(text)
            c.counts["traced_requests"] += 1
            back = c.call("syntax", api.term_from_json, json.dumps(doc["result"]))
            c.check("syntax", oracle.same(oracle.from_program(back), want), "term_from_json")
            if nf.trace:  # an empty derivation is refused by design
                last = c.call("calculator", api.replay_derivation, nf.trace)
                c.check("calculator", oracle.same(oracle.from_program(last), want), "replay_derivation")

    def cli_sample(self, n=8):
        rng = random.Random(self.rng.random())
        out = []
        while len(out) < n:
            tree = random_term(rng, 4)
            text = oracle.to_text(tree)
            if not text.startswith("-"):
                out.append((text, tree))
        return out


# -- scaling_families ----------------------------------------------------------------


def _n(k):
    return ("n", k)


def _continued(d):
    t = _n(1)
    for _ in range(d):
        t = ("/", _n(1), ("+", _n(1), t))
    return t


FAMILIES = {
    # name: (build(n), sizes); every size completes at the seed
    "harmonic": (lambda n: oracle.left_chain("+", [("/", _n(1), _n(i)) for i in range(1, n + 1)]),
                 (10, 25, 50, 100, 150, 200)),
    "halves": (lambda n: oracle.left_chain("+", [("/", _n(1), _n(2))] * n),
               (10, 25, 50, 100, 150, 200)),
    "telescoping": (lambda n: oracle.left_chain("*", [("/", _n(i + 1), _n(i)) for i in range(1, n + 1)]),
                    (10, 25, 50, 100, 150, 200)),
    "continued": (_continued, (10, 25, 50, 75, 100)),
    "ones": (lambda n: oracle.left_chain("+", [_n(1)] * n), (10, 25, 50, 100, 150, 200)),
}


# Inputs beyond what the seed completes.  Each runs the whole pipeline once
# per run, outside the timed loop; the first layer that fails is recorded.
PROBES = (
    ("harmonic_250", lambda: FAMILIES["harmonic"][0](250)),
    ("harmonic_300", lambda: FAMILIES["harmonic"][0](300)),
    ("halves_400", lambda: FAMILIES["halves"][0](400)),
    ("ones_1000", lambda: FAMILIES["ones"][0](1000)),
    ("continued_150", lambda: _continued(150)),
    ("continued_200", lambda: _continued(200)),
    ("continued_250", lambda: _continued(250)),
    ("literal_5000_digits", lambda: _n(10**5000 - 1)),
)


class ScalingFamilies:
    """Ladders of structured terms through parse, classify, the precheck and both normalizers."""

    name = "scaling_families"
    tail_percentile = 90
    #: cycle c shrinks every rung by ``c mod WINDOW`` (at most half the rung),
    #: so the first WINDOW cycles never repeat a term
    WINDOW = 10

    def __init__(self, seed: int, api):
        self.rng = random.Random(seed)
        self.q0 = api.Q0()
        self._facts: dict = {}

    def _facts_for(self, family, n):
        key = (family, n)
        if key not in self._facts:
            tree = FAMILIES[family][0](n)
            self._facts[key] = self._describe(tree, oracle.to_text(tree))
        return self._facts[key]

    @staticmethod
    def _describe(tree, text):
        return {"tree": tree, "text": text, "value": oracle.q0_value(tree),
                "classes": oracle.q0_classes(tree), "size": oracle.size(tree)}

    def rounds(self):
        cycle = 0
        while True:
            batch = []
            for family, (_, sizes) in FAMILIES.items():
                for base in sizes:
                    batch.append(self._facts_for(family, base - cycle % min(self.WINDOW, base // 2)))
            self.rng.shuffle(batch)
            cycle += 1
            yield batch

    @staticmethod
    def trees(request):
        return [request["tree"]]

    def serve(self, c: Client, f) -> None:
        api = c.api
        t = c.parse(f["text"], f["tree"])
        c.counts["parsed_nodes"] += f["size"]
        c.classes(t, f["tree"], self.q0, f["classes"])
        c.check("calculator", c.call("calculator", api.find_unsafe_fraction, t) is None, "find_unsafe_fraction")
        c.normal_form(api.normalize_safe, t, f["value"])
        c.normal_form(api.normalize_full, t, f["value"])

    def probes(self):
        for name, build in PROBES:
            tree = build()
            # str() of the 5000-digit numeral would hit the limit the probe is about
            text = "9" * 5000 if tree[0] == "n" else oracle.to_text(tree)
            yield name, self._describe(tree, text)

    def cli_sample(self):
        return [(f["text"], f["tree"]) for f in (self._facts_for(fam, 10) for fam in FAMILIES)]


# -- repeated_checks ---------------------------------------------------------------------

# The identity table of ``fracterm.cli.AXIOMS`` at the time this benchmark was
# written, copied so that editing the library cannot change the workload.
AXIOMS = {
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


class RepeatedChecks:
    """A small working set visited again and again: identity checks and equality checks."""

    name = "repeated_checks"
    # The 4-variable identities over GF(7) are 4 requests in 180 and start
    # near p98; p99 falls inside that sparse group and swings with machine
    # load twice as much as the mean does, so the tail is taken at p95.
    tail_percentile = 95
    PRIMES = (2, 3, 5, 7)
    PAIR_PRIME = 7
    PAIRS_PER_ROUND = 96
    SAMPLES = 12
    ATOMS = 12
    BASES = 16
    POOL_SEED = 2015

    def __init__(self, seed: int, api):
        rng = self.rng = random.Random(seed)
        self.q0, self.common, self.gf = _meadows(api, self.PRIMES + (self.PAIR_PRIME,))
        self.identities = {}
        for name, (lhs, rhs, conds) in AXIOMS.items():
            trees = [oracle.parse(s) for s in (lhs, rhs, *conds)]
            terms = [api.parse(s) for s in (lhs, rhs, *conds)]
            names = oracle.variables(*trees)
            # the first sample is all zeros; later ones hit zero a quarter of the time
            samples = [{v: Fraction(0) for v in names}] + [
                {v: Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                 for v in names}
                for _ in range(self.SAMPLES - 1)
            ]
            self.identities[name] = (trees, terms, samples)
        # the working set itself is fixed, so every seed visits the same terms
        # and only the traffic over them varies
        self.pool = self._pool(random.Random(self.POOL_SEED), api)
        self._verdicts: dict = {}

    def _pool(self, rng, api):
        """Bases built from a few shared subterms, each with value-equal rewrites."""
        def usable(t):
            return oracle.unsafe_position(t) is None and oracle.q0_value(t) != 0

        atoms = []
        while len(atoms) < self.ATOMS:
            t = random_term(rng, 3, 9)
            if usable(t):
                atoms.append(t)
        shapes = (lambda a, b, c: ("+", a, b), lambda a, b, c: ("*", a, ("/", b, c)),
                  lambda a, b, c: ("/", ("+", a, c), b), lambda a, b, c: ("-", ("*", a, b)))
        bases = []
        while len(bases) < self.BASES:
            t = rng.choice(shapes)(*rng.sample(atoms, 3))
            if usable(t):
                bases.append(t)
        pool = []
        for family, t in enumerate(bases):
            for tree in (t, ("+", t, _n(0)), ("/", ("*", t, _n(2)), _n(2)), ("/", _n(1), ("/", _n(1), t))):
                text = oracle.to_text(tree)
                pool.append({
                    "family": family, "tree": tree, "text": text, "term": api.parse(text),
                    "values": {m: oracle.value_in(tree, m) for m in ("q0", f"gf:{self.PAIR_PRIME}")},
                    "pairs": {m: oracle.pair_in(tree, m) for m in ("q0", f"gf:{self.PAIR_PRIME}")},
                    "classes": oracle.q0_classes(tree),
                })
        return pool

    def rounds(self):
        rng = self.rng
        fixed = [("identity", name, f"gf:{p}") for name in AXIOMS for p in self.PRIMES]
        fixed += [("identity", name, m) for name in AXIOMS for m in ("q0", "common")]
        while True:
            batch = list(fixed)
            for _ in range(self.PAIRS_PER_ROUND):
                a = rng.randrange(len(self.pool))
                if rng.random() < 0.5:  # half the pairs are value-equal rewrites of one base
                    b = 4 * self.pool[a]["family"] + rng.randrange(4)
                else:
                    b = rng.randrange(len(self.pool))
                batch.append(("pair", a, b))
            rng.shuffle(batch)
            yield batch

    def trees(self, request):
        if request[0] == "pair":
            return [self.pool[request[1]]["tree"], self.pool[request[2]]["tree"]]
        return self.identities[request[1]][0]

    def serve(self, c: Client, request) -> None:
        if request[0] == "pair":
            self._serve_pair(c, self.pool[request[1]], self.pool[request[2]])
        else:
            self._serve_identity(c, request[1], request[2])

    def _verdict(self, name, meadow):
        key = (name, meadow)
        if key not in self._verdicts:
            (lhs, rhs, *conds), _, samples = self.identities[name]
            if meadow.startswith("gf:"):
                self._verdicts[key] = oracle.gf_identity(lhs, rhs, conds, int(meadow[3:]))
            else:
                self._verdicts[key] = (oracle.sampled_identity(lhs, rhs, conds, meadow, samples), len(samples))
        return self._verdicts[key]

    def _serve_identity(self, c: Client, name, meadow) -> None:
        (lhs_tree, rhs_tree, *cond_trees), (lhs, rhs, *conds), samples = self.identities[name]
        if meadow.startswith("gf:"):
            m = self.gf[int(meadow[3:])]
            report = c.call("meadows", c.api.check_identity, lhs, rhs, conds, m)
        else:
            m = self.q0 if meadow == "q0" else self.common
            report = c.call("meadows", c.api.check_identity, lhs, rhs, conds, m, samples)
        valid, total = self._verdict(name, meadow)
        c.counts["assignments"] += report.assignments_checked
        if valid:
            ok = report.valid and report.assignments_checked == total
        else:
            env = {k: getattr(v, "value", v) for k, v in (report.counterexample or {}).items()}
            ok = (not report.valid and 1 <= report.assignments_checked <= total
                  and oracle.is_counterexample(lhs_tree, rhs_tree, cond_trees, meadow, env))
        c.check("meadows", ok, f"check_identity {name} on {meadow}")

    def _serve_pair(self, c: Client, a, b) -> None:
        api = c.api
        ev = c.call("calculator", api.check_equal, a["term"], b["term"])
        c.check("calculator", ev.equal == (a["values"]["q0"] == b["values"]["q0"]), "check_equal")
        c.counts["steps"] += len(ev.left.trace) + len(ev.right.trace)
        gf = f"gf:{self.PAIR_PRIME}"
        for name, m in (("q0", self.q0), (gf, self.gf[self.PAIR_PRIME])):
            got = c.call("classify", api.eq_val, a["term"], b["term"], m)
            c.check("classify", got == (a["values"][name] == b["values"][name]), f"eq_val in {name}")
            got = c.call("classify", api.eq_pair, a["term"], b["term"], m)
            c.check("classify", got == (a["pairs"][name] == b["pairs"][name]), f"eq_pair in {name}")
        for x in (a, b):
            c.classes(x["term"], x["tree"], self.q0, x["classes"])

    def cli_sample(self):
        return [(x["text"], x["tree"]) for x in self.pool[::4] if not x["text"].startswith("-")]


WORKLOADS = {w.name: w for w in (RandomMix, ScalingFamilies, RepeatedChecks)}
