"""The replayer: what it checks, what it rejects, and what it costs.

A derivation replays only if every step re-derives its contractum with its
rule, records exactly the numerals that rule instance assumes nonzero, and
starts from the term the previous step left.  Engine traces are checked at
each redex through one zipper walk over their record; hand-built steps by
their whole terms.  Both must reject any tampering with ``MatchError``.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from fracterm.calculator import (
    RULE_CFAR,
    RULE_CR_EMBED,
    RULE_CR_EVAL,
    RULE_CR_FRAC,
    RULE_CR_MUL,
    RULE_DBZ,
    RULE_DIV1,
    RULE_DIV2,
    RULE_FEQ,
    RULE_QCR,
    NormalForm,
    Step,
    _Terms,
    _step_at,
    apply_rule,
    normalize_full,
    normalize_safe,
    replay_derivation,
)
from fracterm.errors import DomainError, MatchError, SafetyError
from fracterm.meadows import ERROR, CommonQ, Gfp, Q0, check_identity
from fracterm.syntax import parse
from fracterm.terms import (
    ZERO,
    Add,
    Div,
    Mul,
    Neg,
    Numeral,
    Var,
    children,
    eq_syn,
    free_vars,
    postorder,
    replace_at,
    signed_numeral,
    subterm_at,
)

from termgen import q0_value, random_closed_term, random_unsafe_biased_term

RULES = [
    RULE_DBZ, RULE_DIV1, RULE_DIV2, RULE_QCR, RULE_CFAR,
    RULE_FEQ, RULE_CR_EVAL, RULE_CR_FRAC, RULE_CR_EMBED, RULE_CR_MUL,
]


def _hand_built(trace):
    return [Step(s.rule, s.position, s.before, s.after, s.conditions) for s in trace]


def _continued_fraction(depth):
    t = Numeral(1)
    for _ in range(depth):
        t = Div(Numeral(1), Add(Numeral(1), t))
    return t


def _harmonic(n):
    t = Div(Numeral(1), Numeral(1))
    for k in range(2, n + 1):
        t = Add(t, Div(Numeral(1), Numeral(k)))
    return t


class TestRejections:
    def test_empty(self):
        with pytest.raises(DomainError, match="empty derivation"):
            replay_derivation([])

    def test_does_not_chain(self):
        first = Step(RULE_DIV1, (), parse("(1/2)/3"), parse("1/(2*3)"))
        second = Step(RULE_CR_EVAL, (1,), parse("1/(3*2)"), parse("1/6"))
        with pytest.raises(MatchError, match="step 1 does not chain from step 0"):
            replay_derivation([first, second])

    def test_does_not_reproduce(self):
        step = Step(RULE_DIV1, (), parse("(1/2)/3"), parse("1/(3*2)"))
        with pytest.raises(MatchError, match=r"step 0 \(DIV1 at \[\]\) does not reproduce"):
            replay_derivation([step])

    def test_outside_the_redex_does_not_reproduce(self):
        step = Step(RULE_CR_EVAL, (0,), parse("(1+1)/3"), parse("2/4"))
        with pytest.raises(MatchError, match="does not reproduce"):
            replay_derivation([step])

    def test_position_outside_the_term(self):
        for position in [(0, 0, 0), (2,), "0", (True,), 5, None]:
            step = Step(RULE_CR_EVAL, position, parse("(1+1)/3"), parse("2/3"))
            with pytest.raises(MatchError):
                replay_derivation([step])


class TestConditions:
    """Each step records exactly the numerals its rule instance assumes nonzero."""

    CFAR_BEFORE, CFAR_AFTER = parse("1/2 + 1/3"), parse("(1*3 + 2*1)/(2*3)")

    @pytest.mark.parametrize("conditions", [frozenset(), frozenset({7}), frozenset({2}), {2, 3, 7}])
    def test_cfar_needs_both_denominators(self, conditions):
        step = Step(RULE_CFAR, (), self.CFAR_BEFORE, self.CFAR_AFTER, conditions)
        with pytest.raises(MatchError, match="CFAR step records conditions"):
            replay_derivation([step])

    def test_cfar_with_its_denominators_replays(self):
        step = Step(RULE_CFAR, (), self.CFAR_BEFORE, self.CFAR_AFTER, frozenset({2, 3}))
        assert eq_syn(replay_derivation([step]), self.CFAR_AFTER)
        halves = Step(RULE_CFAR, (), parse("1/2 + 1/2"), parse("(1*2 + 2*1)/(2*2)"), {2})
        assert eq_syn(replay_derivation([halves]), halves.after)

    def test_cfar_over_other_denominators_is_rejected(self):
        step = Step(RULE_CFAR, (), parse("1/(1+1) + 1/3"), parse("(1*3 + (1+1)*1)/((1+1)*3)"), {2, 3})
        with pytest.raises(MatchError, match="numeral denominators"):
            replay_derivation([step])

    @pytest.mark.parametrize("conditions", [frozenset({2}), frozenset({1})])
    def test_other_rules_record_none(self, conditions):
        step = Step(RULE_DIV1, (), parse("(1/2)/3"), parse("1/(2*3)"), conditions)
        with pytest.raises(MatchError, match=r"DIV1 step records conditions \[\d\], not \[\]"):
            replay_derivation([step])

    def test_feq_records_its_multiplier(self):
        assert eq_syn(replay_derivation([Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), {2})]), parse("2/4"))
        assert eq_syn(replay_derivation([Step(RULE_FEQ, (), parse("2/4"), parse("1/2"), {2})]), parse("1/2"))
        for k in (1, 3, 4):
            with pytest.raises(MatchError):
                replay_derivation([Step(RULE_FEQ, (), parse("1/2"), parse("2/4"), {k})])

    def test_engine_conditions_are_exact(self):
        rng = random.Random(3)
        for _ in range(100):
            t = random_unsafe_biased_term(rng, 5)
            nf = normalize_full(t)
            for s in nf.trace:
                if s.rule == RULE_FEQ:
                    assert len(s.conditions) == 1
                elif s.rule == RULE_CFAR:
                    sub = subterm_at(s.before, s.position)
                    assert s.conditions == {sub.left.denominator.value, sub.right.denominator.value}
                else:
                    assert s.conditions == frozenset()


# -- tampered derivations ----------------------------------------------------


def _derivations(seed, count):
    """Seeded engine derivations of at least three steps, alternating safe and full mode."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        normalize = (normalize_safe, normalize_full)[len(out) % 2]
        t = (random_closed_term if len(out) % 4 < 2 else random_unsafe_biased_term)(rng, 5)
        try:
            nf = normalize(t)
        except SafetyError:
            continue
        if len(nf.trace) >= 3:
            out.append(nf)
    return out


def _entries(nf):
    """The record of ``nf``'s trace as (rule, edit, conditions) entries.

    An edit is ``(link, build, *args)``, whose contractum is ``build(*args)``.
    """
    return [(s.rule, edit, s.conditions) for s, edit in zip(nf.trace, nf.trace[0]._terms.edits)]


def _from_entries(root, entries):
    """Steps of a fresh record with ``root`` and the given entries, as the engine makes them."""
    record = _Terms(root)
    record.edits = [edit for _, edit, _ in entries]
    return [_step_at(record, i, rule, conds) for i, (rule, _, conds) in enumerate(entries)]


def _plus_zero(build, *args):
    """``build(*args) + 0``: equal in value to that contractum, but another term."""
    return Add(build(*args), ZERO)


def _other_rule(rng, rule):
    return rng.choice([r for r in RULES if r != rule])


def _altered_conditions(rng, conditions):
    if conditions and rng.random() < 0.5:
        drop = rng.choice(sorted(conditions))
        return frozenset(conditions - {drop})
    return frozenset(conditions | {max(conditions, default=1) + rng.randint(1, 5)})


def _moved_link(rng, link):
    """Another link: the parent's, a sibling's or a child's."""
    options = []
    if link is not None:
        i, parent = link
        options += [parent, (1 - i, parent), (i + 1, parent)]
    options += [(0, link), (1, link)]
    return rng.choice(options)


def _tamper_record(rng, nf, how):
    """Engine steps on a record of ``nf`` changed in one way ``how``."""
    entries = _entries(nf)
    k = rng.randrange(len(entries))
    rule, (link, *contractum), conds = entries[k]
    if how == "rule":
        entries[k] = (_other_rule(rng, rule), (link, *contractum), conds)
    elif how == "position":
        entries[k] = (rule, (_moved_link(rng, link), *contractum), conds)
    elif how == "contractum":
        entries[k] = (rule, (link, _plus_zero, *contractum), conds)
    elif how == "conditions":
        entries[k] = (rule, (link, *contractum), _altered_conditions(rng, conds))
    return _from_entries(nf.trace[0].before, entries)


def _tamper_list(rng, steps, how):
    """``steps`` as a list changed in one way ``how``; a changed step is hand-built."""
    steps = list(steps)
    k = rng.randrange(len(steps))
    s = steps[k]
    if how == "rule":
        steps[k] = Step(_other_rule(rng, s.rule), s.position, s.before, s.after, s.conditions)
    elif how == "position":
        moved = s.position[:-1] if s.position and rng.random() < 0.5 else s.position + (rng.randrange(2),)
        steps[k] = Step(s.rule, moved, s.before, s.after, s.conditions)
    elif how == "contractum":
        sub = subterm_at(s.after, s.position)
        after = replace_at(s.after, s.position, Add(sub, ZERO))
        steps[k] = Step(s.rule, s.position, s.before, after, s.conditions)
    elif how == "conditions":
        steps[k] = Step(s.rule, s.position, s.before, s.after, _altered_conditions(rng, s.conditions))
    elif how == "drop":  # not the first or the last step: the rest would be a derivation
        del steps[1 + k % (len(steps) - 2)]
    elif how == "duplicate":
        steps.insert(k, s)
    elif how == "swap":
        j = rng.choice([j for j in (k - 1, k + 1) if 0 <= j < len(steps)])
        steps[k], steps[j] = steps[j], steps[k]
    return steps


IN_PLACE = ["rule", "position", "contractum", "conditions"]
REORDERINGS = ["drop", "duplicate", "swap"]


class TestTamperedDerivations:
    """Every tampering raises MatchError: never a pass, never another exception."""

    NFS = _derivations(2026, 60)

    def test_untampered_derivations_replay(self):
        for nf in self.NFS:
            assert eq_syn(replay_derivation(nf.trace), nf.result)
            assert eq_syn(replay_derivation(_hand_built(nf.trace)), nf.result)
            assert eq_syn(replay_derivation(_from_entries(nf.trace[0].before, _entries(nf))), nf.result)

    @pytest.mark.parametrize("how", IN_PLACE)
    def test_engine_record(self, how):
        rng = random.Random(how)
        for nf in self.NFS:
            with pytest.raises(MatchError):
                replay_derivation(_tamper_record(rng, nf, how))

    @pytest.mark.parametrize("how", REORDERINGS)
    def test_engine_trace_list(self, how):
        rng = random.Random(how)
        for nf in self.NFS:
            with pytest.raises(MatchError):
                replay_derivation(_tamper_list(rng, nf.trace, how))

    @pytest.mark.parametrize("how", IN_PLACE + REORDERINGS)
    def test_hand_built_steps(self, how):
        rng = random.Random(how)
        for nf in self.NFS:
            with pytest.raises(MatchError):
                replay_derivation(_tamper_list(rng, _hand_built(nf.trace), how))

    def test_mixed_traces_chain(self):
        for nf in self.NFS[:20]:
            trace, built = nf.trace, _hand_built(nf.trace)
            k = len(trace) // 2
            for mixed in (trace[:k] + built[k:], built[:k] + trace[k:], trace[k:]):
                assert eq_syn(replay_derivation(mixed), nf.result)


# -- rule x redex matrix -------------------------------------------------------

#: A closed instance of each rule's redex shape.
SHAPES = {
    RULE_DBZ: "3/0",
    RULE_DIV1: "(1/2)/3",
    RULE_DIV2: "1/(2/3)",
    RULE_QCR: "1/2 + 3/2",
    RULE_CFAR: "1/2 + 1/3",
    RULE_FEQ: "2/4",
    RULE_CR_EVAL: "(2+3)*4",
    RULE_CR_FRAC: "-(1/2)",
    RULE_CR_EMBED: "5",
    RULE_CR_MUL: "(1/2)*(3/4)",
}

#: Shapes a rule also matches besides its own: FEQ any fraction, CR-embed
#: any non-fraction, CFAR any sum of fractions, and CR-eval any closed
#: division-free term.
ALSO_MATCHES = {
    RULE_FEQ: {RULE_DBZ, RULE_DIV1, RULE_DIV2},
    RULE_CR_EMBED: {RULE_QCR, RULE_CFAR, RULE_CR_EVAL, RULE_CR_FRAC, RULE_CR_MUL},
    RULE_CFAR: {RULE_QCR},
    RULE_CR_EVAL: {RULE_CR_EMBED},
}


@pytest.mark.parametrize("rule", RULES)
def test_rule_at_every_redex_shape(rule):
    for shape, text in SHAPES.items():
        t = parse(text)
        if shape == rule or shape in ALSO_MATCHES.get(rule, ()):
            assert apply_rule(t, rule, (), {"k": 2}, enable_dbz=True) is not None
        else:
            with pytest.raises(MatchError):
                apply_rule(t, rule, (), {"k": 2}, enable_dbz=True)


def test_rule_branches_beyond_the_shapes():
    assert eq_syn(apply_rule(parse("1/(-2)"), RULE_CR_FRAC, ()), parse("(-1)/2"))
    for rule, text in [
        (RULE_CR_FRAC, "1/2"),
        (RULE_CR_EMBED, "1/2"),
        (RULE_CR_EVAL, "x + 1"),
        (RULE_QCR, "1/2 + 3"),
        (RULE_CR_MUL, "(1/2)*3"),
        (RULE_DIV2, "1/2"),
    ]:
        with pytest.raises(MatchError):
            apply_rule(parse(text), rule, ())
    two_fourths = parse("2/4")
    for inst in [{"k": 2, "direction": "up"}, {"k": 3, "direction": "rl"}, {"k": 0}, {"k": "2"}, {}]:
        with pytest.raises(MatchError):
            apply_rule(two_fourths, RULE_FEQ, (), inst)
    assert eq_syn(apply_rule(two_fourths, RULE_FEQ, (), {"k": 2, "direction": "rl"}), parse("1/2"))
    with pytest.raises(MatchError, match="DBZ is disabled"):
        apply_rule(parse("3/0"), RULE_DBZ, ())
    with pytest.raises(DomainError, match="unknown rule"):
        apply_rule(two_fourths, "XYZ", ())


# -- engine rules as conditional equations -------------------------------------

#: (rule, redex scheme, contractum scheme, variables asserted nonzero): each
#: contractum is what ``apply_rule`` makes of the redex, and each condition
#: one that the replayer makes the step record.
SCHEMES = [
    (RULE_DBZ, "x/0", "0/1", ()),
    (RULE_DIV1, "(x/y)/z", "x/(y*z)", ()),
    (RULE_DIV2, "x/(y/z)", "(x*z*z)/(y*z)", ()),
    (RULE_QCR, "x/y + u/y", "(x+u)/y", ()),
    (RULE_CFAR, "x/y + u/v", "(x*v + y*u)/(y*v)", ("y", "v")),
    (RULE_FEQ, "x/y", "(x*k)/(y*k)", ("k",)),
    (RULE_CR_FRAC, "-(x/y)", "(-x)/y", ()),
    (RULE_CR_FRAC, "x/(-y)", "(-x)/y", ()),
    (RULE_CR_EMBED, "x", "x/1", ()),
    (RULE_CR_MUL, "(x/y)*(u/v)", "(x*u)/(y*v)", ()),
]

#: Each variable's instance: a sum, so that FEQ folds no product, but a
#: numeral where the variable is a condition, whose value the step records.
INSTANCE = {"x": "2+3", "y": "1+1", "z": "1+2", "u": "3+4", "v": "2+1", "k": "1+3"}


def _instantiate(t, conds):
    if type(t) is Var:
        value = parse(INSTANCE[t.name])
        return Numeral(int(q0_value(value))) if t.name in conds else value
    if type(t) is Numeral:
        return t
    return type(t)(*(_instantiate(c, conds) for c in children(t)))


def _samples(rng, names, error_share):
    """Rational samples, zeros included; in CommonQ ``a`` binds to any variable but ``k``."""
    out = [{v: Fraction(0) for v in names}]
    for _ in range(40):
        out.append({
            v: ERROR if v != "k" and rng.random() < error_share
            else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for v in names
        })
    return out


@pytest.mark.parametrize("rule, lhs, rhs, conds", SCHEMES, ids=[f"{r}:{l}" for r, l, _, _ in SCHEMES])
def test_rule_is_a_conditional_equation(rule, lhs, rhs, conds):
    lhs, rhs = parse(lhs), parse(rhs)
    conditions = [Var(c) for c in conds]
    # The scheme is the rule's: apply_rule rewrites an instance of the redex to
    # the same instance of the contractum, and replay accepts the step with
    # exactly the conditions' values recorded.
    before, after = _instantiate(lhs, conds), _instantiate(rhs, conds)
    recorded = frozenset(int(q0_value(parse(INSTANCE[c]))) for c in conds)
    assert eq_syn(apply_rule(before, rule, (), {"k": 4}, enable_dbz=True), after)
    assert eq_syn(replay_derivation([Step(rule, (), before, after, recorded)]), after)

    for p in (2, 3, 5, 7):
        assert check_identity(lhs, rhs, conditions, Gfp(p)).valid, p
    rng = random.Random(rule)
    names = sorted(free_vars(lhs) | free_vars(rhs) | set(conds))
    assert check_identity(lhs, rhs, conditions, Q0(), _samples(rng, names, 0)).valid
    report = check_identity(lhs, rhs, conditions, CommonQ(), _samples(rng, names, 0.25))
    # x/0 is the error element a in CommonQ, not 0/1: DBZ belongs to full mode's
    # totalized rationals only.
    assert report.valid == (rule != RULE_DBZ)


def test_cr_eval_is_ring_arithmetic():
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        t = random_closed_term(rng, 4)
        if any(type(s) is Div for s in postorder(t)):
            continue
        checked += 1
        value = signed_numeral(int(q0_value(t)))
        assert eq_syn(apply_rule(t, RULE_CR_EVAL, ()), value)
        for meadow in (Gfp(2), Gfp(3), Gfp(5), Gfp(7)):
            assert check_identity(t, value, [], meadow).valid
        for meadow in (Q0(), CommonQ()):
            assert check_identity(t, value, [], meadow, [{}]).valid


# -- costs ---------------------------------------------------------------------


@pytest.mark.parametrize("normalize", [normalize_safe, normalize_full])
def test_reading_an_engine_trace_builds_no_whole_term(monkeypatch, normalize):
    def refuse(*args, **kwargs):
        raise AssertionError("a whole term was built")

    nfs = [normalize(t) for t in (_harmonic(30), _continued_fraction(12), parse("(1/2)/(2/3) + -(3/4)*5"))]
    # A slice starts a fresh walk from its record's root.
    nfs += [NormalForm(nf.result, nf.conditions, nf.trace[len(nf.trace) // 2 :]) for nf in nfs]
    for name in ("fracterm.terms.replace_at", "fracterm.calculator.apply_rule", "fracterm.calculator.subterm_at"):
        monkeypatch.setattr(name, refuse)
    texts = [(nf.to_json(), nf.to_json(indent=None)) for nf in nfs]
    finals = [replay_derivation(nf.trace) for nf in nfs]
    monkeypatch.undo()
    for nf, (indented, compact), final in zip(nfs, texts, finals):
        assert eq_syn(final, nf.result)
        assert indented == _dumped(nf, 2) and compact == _dumped(nf, None)


def _dumped(nf, indent):
    return json.dumps(nf.to_json_obj(), indent=indent)


def _constructed_nodes(monkeypatch, f):
    count = [0]
    for cls in (Numeral, Var, Add, Mul, Neg, Div):
        init = cls.__init__

        def counting(self, *args, _init=init):
            count[0] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    try:
        f()
    finally:
        monkeypatch.undo()
    return count[0]


def test_replay_is_linear(monkeypatch):
    nodes = {}
    for d in (100, 400):
        trace = normalize_safe(_continued_fraction(d)).trace
        nodes[d] = _constructed_nodes(monkeypatch, lambda: replay_derivation(trace))
    assert nodes[400] <= 5 * nodes[100], nodes


def test_trace_text_memory_is_bounded():
    nf = normalize_full(_harmonic(100))
    tracemalloc.start()
    try:
        text = nf.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(text), (peak, len(text))
