from __future__ import annotations

import hashlib
import time
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from mpcalc import axioms, decider, terms as t
from mpcalc.axioms import (RewriteStep, apply_law, axiom_prove, expand_static,
                           normalize, normalize_with_trace, subterm_at)
from mpcalc.axioms import LAW_IDS
from mpcalc.corpus import (a4_instance, a4_violation, law_instance,
                           random_pair, random_term, sound_steps)
from mpcalc.decider import decide_equiv
from mpcalc.cli import main
from mpcalc.errors import (CalcError, LawError, NotPerformanceClosed, NotWellFormed,
                           StateBoundExceeded)
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts, derive_transitions


def test_apply_commutativity_at_root():
    done = apply_law(parse_term("<a,1>.0 + <b,2>.0"), RewriteStep("A1"))
    assert done == parse_term("<b,2>.0 + <a,1>.0")


def test_apply_choice_deferral():
    # merged rate 1+2, continuations scaled by 1/3 and 2/3
    figure = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
    merged = apply_law(figure, RewriteStep("A4"))
    assert merged == parse_term("<a,3>.(<b,5/3>.0 + <b,10/3>.0)")
    assert decide_equiv(figure, merged).equivalent


def test_apply_hiding_renames_to_tau():
    done = apply_law(parse_term("(<a,1>.0) / {a}"), RewriteStep("A10"))
    assert done == parse_term("<tau,1>.(0 / {a})")


def test_apply_law_error_cases():
    with pytest.raises(LawError):
        apply_law(parse_term("<a,1>.0"), RewriteStep("A1"))  # not a choice
    with pytest.raises(LawError):
        apply_law(parse_term("<a,1>.0"), RewriteStep("A1", position=(3,)))
    pair = parse_term("<a,1>.0 + <b,1>.0")
    with pytest.raises(LawError):
        subterm_at(pair, (-1,))
    with pytest.raises(LawError):
        apply_law(pair, RewriteStep("A3", (-1,), "rl"))  # negative position
    lhs, _ = a4_violation(Random(5))
    with pytest.raises(LawError):
        apply_law(lhs, RewriteStep("A4"))  # unequal cumulative rates
    with pytest.raises(LawError, match="unknown law 'A16'"):
        apply_law(pair, RewriteStep("A16"))
    with pytest.raises(LawError, match="unknown direction 'up'"):
        apply_law(pair, RewriteStep("A1", direction="up"))
    with pytest.raises(LawError, match="A4 is applied left-to-right only"):
        apply_law(parse_term("<a,1>.0 + <a,2>.0"), RewriteStep("A4", direction="rl"))


def test_expand_static_flattens():
    assert expand_static(parse_term("0 |[a,b]| 0")) == parse_term("0")
    mixed = expand_static(parse_term("(<a,2>.0) |[a]| (<a,*3>.0 + <a,*1>.0)"))
    assert mixed == parse_term("<a,3/2>.0 + <a,1/2>.0")
    steered = expand_static(parse_term("((<a,1>.0 + <b,2>.0) / {a})[b->c]"))
    assert steered == parse_term("<tau,1>.0 + <c,2>.0")


def test_expand_static_preserves_passive_transitions():
    # the expansion law also covers operands that are not performance-closed
    composed = parse_term("(<a,*1>.0 + <a,*3>.0) |[a]| <a,*2>.0")
    flat = expand_static(composed)
    def multiset(term):
        counts = Counter()
        for (name, rate, _), count in derive_transitions(term):
            counts[name, str(rate)] += count
        return counts
    assert multiset(flat) == multiset(composed) == Counter(
        {("a", "*3/2"): 1, ("a", "*9/2"): 1})


def test_normalize_drops_nil_and_sorts():
    assert normalize(parse_term("(<b,2>.0 + 0) + <a,1>.0")) == \
        normalize(parse_term("<b,2>.0 + <a,1>.0"))
    assert normalize(parse_term("<a,1>.0 + <a,2>.0")) == parse_term("<a,3>.0")


def test_a_sum_merged_to_one_prefix_sorts_as_a_prefix():
    source = parse_term("<a,1>.<d,1>.0 + <a,1>.(<c,1>.0 + <c,2>.0)")
    normal, steps = normalize_with_trace(source)
    assert t.pretty(normal) == "<a,1>.<c,3>.0 + <a,1>.<d,1>.0"
    assert _replay(source, steps) == normal


def _reference_key(term):
    """The order of summands in a normal form, computed from the term."""
    if isinstance(term, t.Prefix):
        return (1, 0 if term.name == t.TAU else 1, term.name,
                1 if term.rate.passive else 0, term.rate.value,
                _reference_key(term.body))
    if isinstance(term, t.Choice):
        return (2, tuple(_reference_key(p) for p in t.summand_list(term)))
    return (0,)


def _cumulative(term):
    out = Counter()
    for p in t.summand_list(term):
        if isinstance(p, t.Prefix):
            out[p.name] += p.rate.value
    return out


def test_normal_forms_are_sorted_and_fully_merged():
    # every sum is in summand order, and A4 has nothing left to merge; the
    # sum of a pair's sides gives A4 same-named summands to merge
    rng = Random(33)
    checked = 0
    while checked < 50:
        pair = random_pair(rng, depth=3, max_states=8)
        both = t.Choice(pair.left, pair.right)
        if any(isinstance(s, (t.Rec, t.Var)) for s in t.subterms(both)):
            continue
        checked += 1
        for term in (pair.left, pair.right, both):
            for sub in t.subterms(normalize(term)):
                parts = t.summand_list(sub)
                keys = [_reference_key(p) for p in parts]
                assert keys == sorted(keys)
                a4_keys = [(p.name, frozenset(_cumulative(p.body).items()))
                           for p in parts if isinstance(p, t.Prefix) and not p.rate.passive]
                assert len(a4_keys) == len(set(a4_keys))


def test_normalize_preconditions():
    with pytest.raises(NotWellFormed):
        normalize(parse_term("rec X : <a,1>.X"))
    with pytest.raises(NotPerformanceClosed):
        normalize(parse_term("<a,*1>.0"))
    # recursion is refused before closure or size is looked at, so a
    # passive loop and a diverging one are not well formed either
    for source in ("rec X : <a,*1>.X", "rec X : <a,1>.(X |[]| X)"):
        with pytest.raises(NotWellFormed, match="nonrecursive"):
            normalize(parse_term(source))
        assert main(["normalize", source]) == 2


def _flip_passive(term, rng):
    """term with about a third of its prefixes made passive, same weights."""
    kids = [_flip_passive(kid, rng) for kid in t.children(term)]
    if isinstance(term, t.Prefix) and rng.random() < 0.3:
        return t.Prefix(term.name, t.Rate(term.rate.value, passive=True), kids[0])
    return t.with_children(term, kids) if kids else term


def _nonrecursive_with_passive(seed):
    rng = Random(seed)
    while True:
        term = random_term(rng, depth=3, max_states=12)
        if not any(isinstance(sub, t.Rec) for sub in t.subterms(term)):
            return _flip_passive(term, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9).map(_nonrecursive_with_passive))
@example(parse_term("<a,1>.0 |[a]| <a,*1>.0"))  # synchronized away
@example(parse_term("<a,*1>.0 |[a]| <b,1>.0"))  # deadlocked
@example(parse_term("(<a,*1>.0 + <b,1>.0) / {a}"))  # hidden, still passive
@example(parse_term("<b,1>.(<a,*1>.0 |[]| <c,1>.0)"))  # below a prefix
def test_normalize_refuses_exactly_the_terms_that_are_not_performance_closed(term):
    try:
        normalize(term)
    except NotPerformanceClosed:
        refused = True
    else:
        refused = False
    assert refused == (not build_lts(term).performance_closed)


def test_prove_spec_pairs():
    assoc = axiom_prove(parse_term("(<a,1>.0 + <b,2>.0) + <tau,1>.0"),
                        parse_term("<a,1>.0 + (<b,2>.0 + <tau,1>.0)"))
    assert assoc.proved
    bisim = axiom_prove(parse_term("<a,1>.<b,2>.0 + <a,3>.<b,2>.0"),
                        parse_term("<a,4>.<b,2>.0"))
    assert bisim.proved
    timed = axiom_prove(parse_term("<tau,2>.0"), parse_term("<tau,1>.0"))
    assert not timed.proved
    assert timed.decider_equivalent is False
    assert not timed.completeness_gap


def test_prove_builds_each_side_once(monkeypatch):
    # normalization builds no LMTS, and only an unproved pair is decided
    # on one LMTS per side
    built = []

    def counting_build_lts(term, state_bound=10000, **kwargs):
        built.append(term)
        return build_lts(term, state_bound, **kwargs)

    for module in (axioms, decider):
        monkeypatch.setattr(module, "build_lts", counting_build_lts)
    composed = parse_term("(<a,1>.0 + <b,2>.0) |[a]| <a,*1>.0")
    normalize(composed)
    normalize_with_trace(composed)
    with pytest.raises(NotPerformanceClosed):
        normalize(parse_term("<a,*1>.0"))
    assert axiom_prove(parse_term("<a,1>.0 + <a,2>.0"), parse_term("<a,3>.0")).proved
    assert built == []
    left, right = parse_term("<tau,2>.0"), parse_term("<tau,1>.0")
    report = axiom_prove(left, right)
    assert built == [left, right]
    assert not report.proved and report.decider_equivalent is False


def _replay(term, steps):
    for step in steps:
        term = apply_law(term, step)
    return term


_static_terms = st.integers(0, 10**9).map(
    lambda seed: random_term(Random(seed), depth=3, max_states=12))


@settings(max_examples=50, deadline=None)
@given(_static_terms)
@example(parse_term("((<a,2>.0) |[a]| (<a,*3>.0 + <a,*1>.0)) + 0"))
@example(parse_term("((<a,1>.0 + <b,2>.0) + <a,3>.0) / {a}"))  # A12 twice
@example(parse_term("((<a,1>.0 + <b,2>.0) + <a,3>.0)[a->c]"))  # A15 twice
@example(parse_term("<b,1>.(0 + <a,1>.0)"))  # A1, then A3
def test_trace_replays_to_the_normal_form(source):
    normal, steps = normalize_with_trace(source)
    assert _replay(source, steps) == normal == normalize(source)
    assert all(str(step).split()[0] in LAW_IDS for step in steps)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_normalize_idempotent(seed):
    term = random_term(Random(seed), depth=3, max_states=12)
    normal = normalize(term)
    assert normalize(normal) == normal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_proved_pairs_are_equivalent(seed):
    rng = Random(seed)
    left = random_term(rng, depth=3, max_states=10)
    right = random_term(rng, depth=3, max_states=10)
    report = axiom_prove(left, right)
    assert _replay(left, report.trace_left) == report.normal_left
    assert _replay(right, report.trace_right) == report.normal_right
    if report.proved:
        assert decide_equiv(left, right).equivalent


def test_each_law_generates_sound_instances():
    rng = Random(31)
    for law in LAW_IDS:
        for _ in range(3):
            instance, step = law_instance(rng, law)
            rewritten = apply_law(instance, step)
            assert decide_equiv(instance, rewritten).equivalent


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAW_IDS[4:]), st.integers(0, 10**9))
def test_static_laws_rewrite_to_the_same_moves(law, seed):
    # A5-A15 rewrite a redex into a term with exactly its one-step moves
    instance, step = law_instance(Random(seed), law)
    rewritten = apply_law(instance, step)
    assert Counter(dict(derive_transitions(rewritten))) == \
        Counter(dict(derive_transitions(instance)))


def test_sound_steps_enumerate_applicable_rewrites():
    term = parse_term("(<a,1>.0 + <b,2>.0) + 0")
    steps = sound_steps(term)
    assert steps
    for step in steps:
        rewritten = apply_law(term, step)
        assert decide_equiv(term, rewritten).equivalent


def test_a4_generators():
    rng = Random(32)
    satisfying = a4_instance(rng)
    merged = apply_law(satisfying, RewriteStep("A4"))
    assert decide_equiv(satisfying, merged).equivalent
    lhs, rhs = a4_violation(rng)
    assert not decide_equiv(lhs, rhs).equivalent


def _chains(count, length):
    """count parallel chains of length prefixes, all names distinct."""
    names = iter("abcdefghijklmnopqrstuvwxy")
    return " |[]| ".join(".".join(f"<{next(names)},1>" for _ in range(length)) + ".0"
                         for _ in range(count))


def _distinct_subterms(term):
    seen, todo = set(), [term]
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.add(sub)
            todo.extend(t.children(sub))
    return seen


def _counting_static_summands(monkeypatch):
    redexes = Counter()
    real = axioms._static_summands

    def counting(law, x):
        redexes[x] += 1
        return real(law, x)

    monkeypatch.setattr(axioms, "_static_summands", counting)
    return redexes


def test_each_distinct_redex_is_eliminated_once(monkeypatch):
    # the tree of three parallel 4-prefix chains has 179,549 nodes in
    # normal form; the walk is over its distinct subterms
    redexes = _counting_static_summands(monkeypatch)
    normal = normalize(parse_term(_chains(3, 4)))
    assert sum(redexes.values()) <= len(_distinct_subterms(normal))
    assert set(redexes.values()) == {1}


def test_state_bound_counts_distinct_compositions(monkeypatch):
    redexes = _counting_static_summands(monkeypatch)
    term = parse_term(f"({_chains(3, 2)}) / {{a}}")
    normal = normalize(term)
    compositions = sum(isinstance(x, t.Parallel) for x in redexes)
    assert compositions < len(redexes)
    assert normalize(term, state_bound=compositions) == normal
    with pytest.raises(StateBoundExceeded):
        normalize(term, state_bound=compositions - 1)
    # each side of a proof has the bound to itself
    assert axiom_prove(term, term, state_bound=compositions).proved


def test_seven_chains_exceed_the_default_state_bound_quickly():
    # six 3-prefix chains normalize (4,096 states); seven (16,384 states)
    # have more distinct redexes than the default bound of 10,000
    start = time.perf_counter()
    with pytest.raises(StateBoundExceeded):
        normalize(parse_term(_chains(7, 3)))
    assert time.perf_counter() - start < 10


def test_a_shared_subterm_is_rewritten_once_and_replayed_at_each_position(monkeypatch):
    redexes = _counting_static_summands(monkeypatch)
    shared = "(<c,1>.0 |[]| <d,2>.<c,1>.0)"
    source = parse_term(f"<a,1>.{shared} + <b,1>.{shared}")
    normal, steps = normalize_with_trace(source)
    assert redexes[parse_term(shared)] == 1
    assert RewriteStep("A5", (0, 0)) in steps and RewriteStep("A5", (1, 0)) in steps
    assert _replay(source, steps) == normal == normalize(source)


def _parallel_terms(rng, count):
    """3-way parallel compositions of short chains over a and b."""
    rates = [Fraction(n, m) for n in range(1, 10) for m in (1, 2, 3)]
    return [parse_term(" |[]| ".join(
        ".".join(f"<{rng.choice('ab')},{rng.choice(rates)}>" for _ in range(size)) + ".0"
        for size in (2, 2, 3))) for _ in range(count)]


def _digest(outcomes):
    """First 12 hex digits of the SHA-1 of the outcomes, one line each."""
    return hashlib.sha1("\n".join(outcomes).encode()).hexdigest()[:12]


def _traced(term):
    normal, steps = normalize_with_trace(term)
    assert normalize(term) == normal
    return f"{t.pretty(normal)} | {'; '.join(map(str, steps))}"


def _proved(left, right):
    report = axiom_prove(left, right)
    return " | ".join([str(report.proved), str(report.decider_equivalent),
                       "; ".join(map(str, report.trace_left)),
                       "; ".join(map(str, report.trace_right))])


def test_normal_forms_and_traces_are_pinned():
    # digests computed with an engine that walks the expanded tree without
    # sharing subterms: sharing must not change a byte
    parallel = _parallel_terms(Random(4), 30)
    rng = Random(5)
    pairs = [random_pair(rng, depth=3, max_states=8) for _ in range(300)]
    sides = [term for pair in pairs for term in (pair.left, pair.right)]
    assert _digest(_traced(term) for term in parallel) == "84b111deba47"
    assert _digest(_traced(term) for term in sides) == "3cb6661d75f6"
    assert _digest(_proved(pair.left, pair.right) for pair in pairs) == "cdcc21cdb36a"


def _reverse_sum(n):
    return t.nest_right([t.Prefix(f"n{i:03d}", t.Rate(Fraction(1)), t.NIL)
                         for i in reversed(range(n))])


def _shuffled_sum(rng, n):
    # same-named prefixes with nil bodies merge, so A4's partition sorts
    # run too
    return t.nest_right([t.Prefix(rng.choice("abcdefgh"), t.Rate(Fraction(rng.randint(1, 5))),
                                  t.NIL) for _ in range(n)])


def _entries(steps):
    """Number of recorded entries, a shared subterm's counted inside it."""
    return sum(_entries(item[1]) if isinstance(item[1], list) else 1 for item in steps)


def test_a_sort_is_recorded_as_one_permutation():
    normal, steps = axioms._Engine().normalize(_reverse_sum(200), 10000)
    assert [p.name for p in t.summand_list(normal)] == [f"n{i:03d}" for i in range(200)]
    assert _entries(steps) == 1
    # 19,900 adjacent swaps, each three steps but the one into the last slot
    assert axioms._size(steps) == 3 * 19_900 - 2


def test_a_recorded_sort_counts_the_steps_its_replay_makes():
    rng = Random(41)
    for n in range(2, 31):
        for term in (_reverse_sum(n), _shuffled_sum(rng, n)):
            _, steps = axioms._Engine().normalize(term, 10000)
            normal, trace = normalize_with_trace(term)
            assert axioms._size(steps) == len(trace)
            assert _replay(term, trace) == normal


def test_a_trace_past_the_step_budget_is_refused(capsys):
    # four parallel 3-prefix chains have 256 states; their normal form is
    # a tree of 1,846,895 nodes and its trace 1,113,014 steps
    source = _chains(4, 3)
    term = parse_term(source)
    assert [p.name for p in t.summand_list(normalize(term))] == ["a", "d", "g", "j"]
    with pytest.raises(CalcError, match="TRACE_STEP_BUDGET"):
        axiom_prove(term, term)
    assert main(["prove", "-p1", source, "-p2", source]) == 2
    assert "TRACE_STEP_BUDGET" in capsys.readouterr().err
