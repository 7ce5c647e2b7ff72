from __future__ import annotations

import time
from collections import deque
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import NamedTuple

import pytest

from mpcalc import decider, oracle
from mpcalc import terms as t
from mpcalc.axioms import axiom_prove
from mpcalc.corpus import chain_pair, random_pairs, random_term
from mpcalc.decider import (AugmentedLabel, EquivReport, decide_equiv, embed, embed_pair,
                            prob_language_equiv)
from mpcalc.errors import CalcError, NotPerformanceClosed
from mpcalc.mlogic import characterization_check
from mpcalc.oracle import (bounded_testing_oracle, environment_tests, search_witness,
                           successful_measures)
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts
from mpcalc.testing import parse_test, prob_pass


def _embed(source):
    return embed(build_lts(parse_term(source)))


def test_embed_single_transition():
    auto = _embed("<a,2>.0")
    (label,) = auto.matrices
    assert label == AugmentedLabel(("a",), "a", Fraction(2))
    assert str(label) == "<{a} a @2>"
    assert auto.matrices[label] == {0: ((1, Fraction(1)),)}
    assert auto.terminal == (Fraction(0), Fraction(1))


def test_embed_folds_multiplicity_into_the_exit_rate():
    assert _embed("<a,1>.0 + <a,1>.0").matrices == _embed("<a,2>.0").matrices


def test_embed_execution_probabilities():
    # one label per offered set and name: the offered names race, the
    # others are blocked
    auto = _embed("<a,2>.0 + <b,3>.0")
    assert {str(label): rows for label, rows in auto.matrices.items()} == {
        "<{a} a @2>": {0: ((1, Fraction(1)),)},
        "<{b} b @3>": {0: ((1, Fraction(1)),)},
        "<{a,b} a @5>": {0: ((1, Fraction(2, 5)),)},
        "<{a,b} b @5>": {0: ((1, Fraction(3, 5)),)},
    }


def test_embed_offers_the_names_a_state_offers_with_the_step():
    # a is offered with b on the other side, so a's labels offer a or a
    # and b; tau starts where a is offered and ends where nothing is
    lts = build_lts(parse_term("<tau,1>.0 + <a,3>.0"))
    auto, other = embed_pair(lts, build_lts(parse_term("<a,1>.0 + <b,1>.<c,1>.0")))
    assert auto.scope == other.scope == {"a": ("a", "b"), "b": ("a", "b"), "c": ("c",),
                                         "tau": ("a",)}
    assert {str(label): rows for label, rows in auto.matrices.items()} == {
        "<{tau} tau @1>": {0: ((1, Fraction(1)),)},
        "<{a,tau} tau @4>": {0: ((1, Fraction(1, 4)),)},
        "<{a} a @4>": {0: ((1, Fraction(3, 4)),)},
        "<{a,b} a @4>": {0: ((1, Fraction(3, 4)),)},
    }
    with pytest.raises(ValueError, match="different scopes"):
        prob_language_equiv(auto, embed(lts))


def test_embed_rejects_passive_transitions():
    with pytest.raises(NotPerformanceClosed):
        _embed("<a,*1>.0")
    for left, right, which in (("<a,*1>.0", "<a,1>.0", "left"), ("<a,1>.0", "<a,*1>.0", "right")):
        with pytest.raises(NotPerformanceClosed, match=f"^{which} process is not"):
            decide_equiv(parse_term(left), parse_term(right))


def test_language_equiv_identical_automata():
    auto = _embed("<a,1>.<b,2>.0 + <b,3>.0")
    report = prob_language_equiv(auto, auto)
    assert report.equivalent
    assert report.basis_size <= report.dimension == 2 * auto.size


def test_language_equiv_one_letter_witness():
    report = prob_language_equiv(_embed("<tau,2>.0"), _embed("<tau,1>.0"))
    assert not report.equivalent
    (letter,) = report.witness_word
    assert letter.name == "tau" and letter.offered == ()
    # rates 1 and 2 name disjoint alphabets, so one letter suffices
    assert str(letter) in ("<{tau} tau @1>", "<{tau} tau @2>")


def _same_node(label, part, scope):
    """Whether the label may follow a tau label offering part: a tau
    label offering part, or a label of a name in part offering the part
    of part in the name's scope."""
    if label.name == t.TAU:
        return label.offered == part
    return label.name in part and label.offered == tuple(b for b in part if b in scope[label.name])


class FractionAutomaton(NamedTuple):
    """An automaton as the reference span reads it: Fraction vectors and
    matrices label -> source -> ((target, probability), ...)."""

    size: int
    init: tuple[Fraction, ...]
    terminal: tuple[Fraction, ...]
    matrices: dict
    scope: dict


def _fractions(auto):
    """The exact probabilities of an embedded automaton."""
    return FractionAutomaton(auto.size, tuple(map(Fraction, auto.init)),
                             tuple(map(Fraction, auto.terminal)), auto.matrices, auto.scope)


def _dense_fraction_span(a1, a2, follows=_same_node):
    """Reference: the span on exact Fraction vectors init * M_w, with a
    normalized echelon basis per part (free words, or words that end in a
    tau label offering E, after which only the labels that follows allows
    go on), over two FractionAutomatons; prob_language_equiv must agree
    with it."""
    dim = a1.size + a2.size
    labels = sorted(set(a1.matrices) | set(a2.matrices), key=lambda label: label.sort_key)
    parts = [None] + sorted({label.offered for label in labels if label.name == t.TAU})
    v0 = list(a1.init) + [-x for x in a2.init]
    f_term = list(a1.terminal) + list(a2.terminal)

    def violates(v, part):
        return sum(v) != 0 or part is None and sum(x * w for x, w in zip(v, f_term)) != 0

    bases = {part: {} for part in parts}

    def insert(v, part):
        basis = bases[part]
        r = list(v)
        for pivot in sorted(basis):
            if r[pivot]:
                coeff = r[pivot]
                r = [x - coeff * y for x, y in zip(r, basis[pivot])]
        for pivot in range(dim):
            if r[pivot]:
                basis[pivot] = [x / r[pivot] for x in r]
                return True
        return False

    def size():
        return sum(len(basis) for basis in bases.values())

    dimension = dim * len(parts)
    if violates(v0, None):
        return EquivReport(False, (), 0, dimension)
    queue = deque([(None, v0, ())]) if insert(v0, None) else deque()
    while queue:
        part, vector, word = queue.popleft()
        for label in labels:
            if part is not None and not follows(label, part, a1.scope):
                continue
            target = label.offered if label.name == t.TAU else None
            out = [Fraction(0)] * dim
            for shift, auto in ((0, a1), (a1.size, a2)):
                for src, row in auto.matrices.get(label, {}).items():
                    for tgt, p in row:
                        out[shift + tgt] += vector[shift + src] * p
            if not any(out):
                continue
            if violates(out, target):
                return EquivReport(False, word + (label,), size(), dimension)
            if insert(out, target):
                queue.append((target, out, word + (label,)))
    return EquivReport(True, None, size(), dimension)


def _same_as_reference(left, right):
    a1, a2 = embed_pair(build_lts(left), build_lts(right))
    report = prob_language_equiv(a1, a2)
    assert report == _dense_fraction_span(_fractions(a1), _fractions(a2))
    return report


def _power_set_embed(lts, names):
    """Reference: a label for every move under every subset E of names,
    as a test node that offers E sees it, with no scope."""
    n = len(lts.states)
    rows = {}
    for i, moves in enumerate(lts.moves):
        table = {}
        for name, rate, _ in moves:
            table[name] = table.get(name, 0) + rate
        for size in range(len(names) + 1):
            for offered in combinations(names, size):
                race = table.get(t.TAU, 0) + sum(table.get(b, 0) for b in offered)
                for name, rate, j in moves:
                    if name == t.TAU or name in offered:
                        label = AugmentedLabel(offered, name, race)
                        row = rows.setdefault(label, {}).setdefault(i, {})
                        row[j] = row.get(j, 0) + rate / race
    matrices = {label: {src: tuple(sorted(row.items())) for src, row in by_src.items()}
                for label, by_src in rows.items()}
    init = tuple(Fraction(int(i == 0)) for i in range(n))
    terminal = tuple(Fraction(int(not moves)) for moves in lts.moves)
    return FractionAutomaton(n, init, terminal, matrices, {})


def test_scopes_decide_as_every_offered_set_does():
    # a tau label offering E is followed by the labels offering E itself
    def follows(label, part, scope):
        return label.offered == part

    checked = 0
    for sample in random_pairs(Random(25), 80, depth=3, max_states=8):
        lts1, lts2 = build_lts(sample.left), build_lts(sample.right)
        names = tuple(sorted(lts1.visible_names() | lts2.visible_names()))
        full = _dense_fraction_span(_power_set_embed(lts1, names), _power_set_embed(lts2, names),
                                    follows)
        report = prob_language_equiv(*embed_pair(lts1, lts2))
        assert report.equivalent == full.equivalent
        if not full.equivalent:
            assert len(report.witness_word) == len(full.witness_word)
        checked += any(label.name == t.TAU for label in full.witness_word or ())
    assert checked > 5


def test_integer_span_matches_the_fraction_span_on_corpus_pairs():
    verdicts = {_same_as_reference(sample.left, sample.right).equivalent
                for sample in random_pairs(Random(24), 60, depth=3, max_states=10)}
    assert verdicts == {True, False}


def _loop(k):
    """rec X : F(...F(X)), F applied k times, where F(Y) races a, b and c
    at rates with denominators 3, 7 and 11 into Y: a cycle of k states,
    testing equivalent to the cycle of any other length."""
    term = "X"
    for _ in range(k):
        term = f"(<a,1/3>.{term} + <b,2/7>.{term} + <c,5/11>.{term})"
    return parse_term(f"rec X : {term}")


def test_integer_span_matches_the_fraction_span_on_coprime_denominators():
    for left, right in [
        ("<a,1/3>.0 + <b,2/7>.<c,5/11>.0", "<a,1/3>.0 + <b,2/7>.<c,5/11>.<a,1/3>.0"),
        ("<a,1/3>.<b,2/7>.0 + <a,2/7>.<c,5/11>.0 + <d,5/11>.0",
         "<a,2/7>.<b,2/7>.0 + <a,1/3>.<c,5/11>.0 + <d,5/11>.0"),
        ("<tau,1/3>.<a,2/7>.0 + <b,5/11>.0", "<tau,1/3>.<a,5/11>.0 + <b,5/11>.0"),
    ]:
        assert not _same_as_reference(parse_term(left), parse_term(right)).equivalent
    # a's probabilities 77/248 and 33/124 on the left sum to the right's
    # 143/248, over targets that differ only in their terms
    assert _same_as_reference(
        parse_term("<a,1/3>.<b,1>.0 + <a,2/7>.<b,1>.(0 + 0) + <d,5/11>.0"),
        parse_term("<a,13/21>.<b,1>.0 + <d,5/11>.0")).equivalent
    # Every vector of an equivalent pair has coordinate sum 0, so a basis
    # of dimension - 1 vectors is as large as one can be.
    full = _same_as_reference(_loop(1), _loop(3))
    assert full.equivalent
    assert full.basis_size == full.dimension - 1 == 3


def test_sides_on_coprime_rate_denominators_join_on_their_common_multiple():
    # the left's rates are thirds, the right's sevenths: a's exit rate 1
    # is the key 3 on the left and 7 on the right, and 21 on both joined
    for right, equivalent in (("<a,2/7>.<b,2>.0 + <a,5/7>.<c,1>.0", False),
                              ("<a,2/7>.<b,2>.0 + <a,5/7>.<b,2>.0", True)):
        lts1 = build_lts(parse_term("<a,1/3>.<b,2>.0 + <a,2/3>.<b,2>.0"))
        lts2 = build_lts(parse_term(right))
        scope = decider.scope_of(lts1, lts2)
        together = embed_pair(lts1, lts2)
        apart = (embed(lts1, scope), embed(lts2, scope))
        assert together == apart
        assert [auto.scale for auto in together] == [3, 7]
        assert {key for auto in together for key in auto.rows} == {
            (("a",), "a", 3), (("a",), "a", 7), (("b",), "b", 6), (("b",), "b", 14),
            (("c",), "c", 7)} - ({(("c",), "c", 7)} if equivalent else set())
        report = prob_language_equiv(*together)
        assert report == _dense_fraction_span(*map(_fractions, apart))
        assert report.equivalent == equivalent
        if not equivalent:
            assert [str(label) for label in report.witness_word] == ["<{a} a @1>", "<{b} b @2>"]


def test_decide_deferred_choice_figure():
    left = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
    right = parse_term("<a,3>.<b,5>.0")
    assert decide_equiv(left, right).equivalent


def test_decide_merged_branches_to_same_continuation():
    left = parse_term("<a,1>.<b,2>.0 + <a,3>.<b,2>.0")
    right = parse_term("<a,4>.<b,2>.0")
    assert decide_equiv(left, right).equivalent


def test_decide_distinguishes_internal_race():
    verdict = decide_equiv(parse_term("<tau,2>.0 + <a,1>.0"),
                           parse_term("<tau,3>.0 + <a,1>.0"))
    assert not verdict.equivalent
    assert verdict.witness_word


def test_witness_translation_to_test_and_theta():
    left = parse_term("<tau,2>.0")
    right = parse_term("<tau,1>.0")
    verdict = decide_equiv(left, right)
    assert not verdict.equivalent
    assert str(verdict.witness_test.term) == "s"
    assert verdict.witness_theta == (Fraction(1, 2),)
    theta = verdict.witness_theta
    assert prob_pass(left, verdict.witness_test, theta) != prob_pass(
        right, verdict.witness_test, theta)


def test_witness_search_runs_on_the_decided_lmts(monkeypatch):
    # Each side is built once, within the caller's bound.
    built = []

    def counting_build_lts(term, state_bound=10000, **kwargs):
        built.append((term, state_bound))
        return build_lts(term, state_bound, **kwargs)

    for module in (decider, oracle):
        monkeypatch.setattr(module, "build_lts", counting_build_lts)
    left, right = parse_term("<a,1>.0"), parse_term("<a,2>.0")
    verdict = decide_equiv(left, right, state_bound=2)
    assert built == [(left, 2), (right, 2)]
    reference = oracle.bounded_testing_oracle(left, right, depth=1)
    assert verdict.witness_test is not None
    assert verdict.witness_test == reference.witness_test
    assert verdict.witness_theta == reference.witness_theta


def test_basis_never_exceeds_state_count_sum():
    rng = Random(21)
    for sample in random_pairs(rng, 30, depth=3, max_states=10):
        verdict = decide_equiv(sample.left, sample.right, with_test_witness=False)
        n1, n2 = verdict.state_counts
        # one part for the free words and one for each offered set of a
        # tau label, each over the n1 + n2 states and with its own basis
        a1, a2 = embed_pair(build_lts(sample.left), build_lts(sample.right))
        locks = {label.offered for auto in (a1, a2) for label in auto.matrices
                 if label.name == t.TAU}
        assert verdict.basis_size <= verdict.dimension == (n1 + n2) * (1 + len(locks))


def test_equivalence_relation_properties():
    rng = Random(22)
    terms = [random_term(rng, depth=3, max_states=8) for _ in range(8)]
    verdicts = {}
    for i, p in enumerate(terms):
        assert decide_equiv(p, p, with_test_witness=False).equivalent
        for j, q in enumerate(terms):
            verdicts[i, j] = decide_equiv(p, q, with_test_witness=False).equivalent
    for i in range(len(terms)):
        for j in range(len(terms)):
            assert verdicts[i, j] == verdicts[j, i]
            for k in range(len(terms)):
                if verdicts[i, j] and verdicts[j, k]:
                    assert verdicts[i, k]


def test_moderate_chain_decides_quickly():
    rng = Random(23)
    left, right = chain_pair(rng, length=30, equivalent=False)
    start = time.monotonic()
    verdict = decide_equiv(left, right, with_test_witness=False)
    assert time.monotonic() - start < 2.0
    assert not verdict.equivalent


# After c both sides offer a and b at total rate 4, but the left goes on
# with a at rate 1 or 3 and the right at rate 2: a test that offers a
# and blocks b sees the difference, one that compares ready sets and
# exit rates only does not.
MIXTURE = ("<c,1>.(<a,1>.0 + <b,3>.0) + <c,1>.(<a,3>.0 + <b,1>.0)",
           "<c,2>.(<a,2>.0 + <b,2>.0)")
MIXTURE_TWIN = ("<c,1>.(<a,1>.<d,1>.0 + <b,3>.0) + <c,1>.(<a,3>.<d,1>.0 + <b,1>.0)",
                "<c,2>.(<a,2>.<d,2>.0 + <b,2>.0)")


@pytest.mark.parametrize("pair", [MIXTURE, MIXTURE_TWIN])
def test_labels_carry_the_set_a_test_offers(pair):
    left, right = map(parse_term, pair)
    verdict = decide_equiv(left, right)
    assert not verdict.equivalent
    assert [str(label) for label in verdict.witness_word] == ["<{c} c @2>", "<{a} a @1>"]
    test = parse_test("<c,*1>.<a,*1>.s")
    assert verdict.witness_test == test
    assert verdict.witness_theta == (Fraction(1, 2), Fraction(1, 3))
    found = bounded_testing_oracle(left, right, depth=2)
    assert (found.witness_test, found.witness_theta, found.prob_left, found.prob_right) == (
        test, (Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2), 0)
    theta = (Fraction(1), Fraction(1, 2))
    assert (prob_pass(left, test, theta), prob_pass(right, test, theta)) == (Fraction(1, 2), 1)
    proof = axiom_prove(left, right)
    assert not proof.proved and not proof.decider_equivalent


def test_the_modal_sweep_separates_the_mixture():
    left, right = map(parse_term, MIXTURE)
    report = characterization_check(left, right, formula_depth=2, grid_cap=3, max_theta_len=2)
    assert not report.consistent and not report.decider_equivalent
    assert not report.theorem_violation
    # the twin's four names make 83,521 formulas at depth 2
    with pytest.raises(CalcError, match="FORMULA_BUDGET"):
        characterization_check(*map(parse_term, MIXTURE_TWIN), formula_depth=2)


def test_labels_read_the_sum_of_the_rates_a_node_offers():
    # after c, a and b have the same laws on both sides, their sum not
    left = parse_term("<c,1>.(<a,1>.0 + <b,1>.0) + <c,1>.(<a,2>.0 + <b,2>.0)")
    right = parse_term("<c,1>.(<a,1>.0 + <b,2>.0) + <c,1>.(<a,2>.0 + <b,1>.0)")
    verdict = decide_equiv(left, right)
    assert [str(label) for label in verdict.witness_word] == ["<{c} c @2>", "<{a,b} a @2>"]
    test, theta = verdict.witness_test, verdict.witness_theta
    assert prob_pass(left, test, theta) != prob_pass(right, test, theta)


# After c the sides differ in the joint law of the rates of a and b, but
# not in the law of either rate, of their sum, or of a's weight at each
# exit rate, which is all that a reactive test reads there.
JOINT = ("<c,2>.(<a,2>.0 + <b,2>.0) + <c,1>.(<a,1>.0 + <b,4>.0)"
         " + <c,2>.(<a,3>.0 + <b,3>.0) + <c,1>.(<a,4>.0 + <b,1>.0)",
         " + ".join(f"<c,1>.(<a,{x}>.0 + <b,{y}>.0)"
                    for x, y in ((1, 3), (3, 2), (2, 4), (3, 1), (2, 3), (4, 2))))


def test_labels_carry_no_more_than_a_reactive_test_reads():
    left, right = map(parse_term, JOINT)
    verdict = decide_equiv(left, right)
    assert verdict.equivalent
    for flavor in ("reactive", "liberal", "tau"):
        assert bounded_testing_oracle(left, right, depth=2, flavor=flavor).equivalent
    report = characterization_check(left, right, formula_depth=2, grid_cap=3, max_theta_len=2)
    assert report.consistent and report.decider_equivalent
    assert axiom_prove(left, right).decider_equivalent
    # A timed tau beside a passive summand reads the joint law; the
    # flavored tests never race one against passive names, and the
    # decider decides the equivalence of the reactive tests.
    racing = parse_test("<c,*1>.(<a,*1>.<z,*1>.s + <tau,1>.<b,*1>.s)", "tau")
    theta = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    assert (prob_pass(left, racing, theta), prob_pass(right, racing, theta)) == (
        Fraction(7, 36), Fraction(67, 360))


def _word_probability(auto, word):
    """Probability that a run of the automaton starts with the word."""
    vector = dict(enumerate(auto.init))
    for label in word:
        out = {}
        for src, row in auto.matrices.get(label, {}).items():
            for tgt, p in row:
                out[tgt] = out.get(tgt, 0) + vector.get(src, 0) * p
        vector = out
    return sum(vector.values())


# After c, the left goes on from one of two states that race tau against
# a or against b, the right from the same two states with their tau
# bodies swapped.  A test that offers a and not b tells the two states
# apart by their rates, but then sees only a after the tau; a test that
# offers both sees both names after the tau, but from the two states
# mixed.
def test_a_tau_label_is_followed_by_a_label_of_its_offered_set():
    left = parse_term("<c,1>.(<tau,1/2>.(<a,1>.0 + <b,1>.0) + <tau,1/2>.(<a,2>.0 + <b,2>.0)"
                      " + <a,1>.0) + <c,1>.(<tau,1/2>.(<a,1>.0 + <b,2>.0)"
                      " + <tau,1/2>.(<a,2>.0 + <b,1>.0) + <b,1>.0)")
    right = parse_term("<c,1>.(<tau,1/2>.(<a,1>.0 + <b,2>.0) + <tau,1/2>.(<a,2>.0 + <b,1>.0)"
                       " + <a,1>.0) + <c,1>.(<tau,1/2>.(<a,1>.0 + <b,1>.0)"
                       " + <tau,1/2>.(<a,2>.0 + <b,2>.0) + <b,1>.0)")
    verdict = decide_equiv(left, right)
    assert verdict.equivalent
    assert bounded_testing_oracle(left, right, depth=3).equivalent
    # a word that no test reads: a tau under {a}, then a under {a,b}
    a1, a2 = embed_pair(build_lts(left), build_lts(right))
    word = (AugmentedLabel(("c",), "c", Fraction(2)), AugmentedLabel(("a",), t.TAU, Fraction(1)),
            AugmentedLabel(("a", "b"), "a", Fraction(2)))
    assert _word_probability(a1, word) != _word_probability(a2, word)


# After d, a tau races c at rate 1 or 3 and leads to b at the same rate
# on the left, at the other rate on the right.  Only a test that offers
# b and c after d times the tau by both, and then reads b, whose scope
# holds b alone.
def test_a_step_after_a_tau_label_keeps_its_scope_of_the_offered_set():
    pair = "<d,1>.(<c,1>.0 + <tau,1>.<b,{}>.0) + <d,1>.(<c,3>.0 + <tau,1>.<b,{}>.0)"
    left, right = parse_term(pair.format(1, 3)), parse_term(pair.format(3, 1))
    verdict = decide_equiv(left, right)
    assert [str(label) for label in verdict.witness_word] == [
        "<{d} d @2>", "<{b,c,tau} tau @2>", "<{b} b @1>"]
    test = parse_test("<d,*1>.(<b,*1>.s + <c,*1>.<z,*1>.s)")
    theta = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    assert (verdict.witness_test, verdict.witness_theta) == (test, theta)
    assert (prob_pass(left, test, theta), prob_pass(right, test, theta)) == (Fraction(1, 8), 0)
    assert bounded_testing_oracle(left, right, depth=3).witness_test == test


def _mixture_pair(rng):
    """<c,r>.B1 + <c,r>.B2 against <c,2r>.B.  B1 and B2 offer the same
    names at the same exit rate, split differently, into the same
    continuations, and B offers each name at the mean of their rates:
    every state offers the same ready sets at the same exit rates on both
    sides, but a test that blocks some of B's names tells them apart."""
    names = rng.sample(["a", "b", "d"], rng.randint(2, 3))
    rates = rng.sample(range(1, 7), len(names))
    shifted = rates[1:] + rates[:1]
    tails = [rng.choice(["0", "<a,1>.0", "<d,2>.0", "<b,1>.<a,3>.0"]) for _ in names]

    def body(weights):
        return " + ".join(f"<{name},{w}>.{tail}" for name, w, tail in zip(names, weights, tails))

    rate = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3)])
    mean = [Fraction(x + y, 2) for x, y in zip(rates, shifted)]
    return (parse_term(f"<c,{rate}>.({body(rates)}) + <c,{rate}>.({body(shifted)})"),
            parse_term(f"<c,{2 * rate}>.({body(mean)})"))


def test_mixture_pairs_are_separated_as_the_oracle_separates_them():
    rng = Random(30)
    for _ in range(25):
        left, right = _mixture_pair(rng)
        verdict = decide_equiv(left, right)
        assert not verdict.equivalent
        assert not bounded_testing_oracle(left, right, depth=2).equivalent
        test, theta = verdict.witness_test, verdict.witness_theta
        assert prob_pass(left, test, theta) != prob_pass(right, test, theta)


@pytest.fixture(scope="module")
def inequivalent_pairs():
    """The inequivalent corpus200 pairs of the acceptance tests and 25
    mixture pairs, each with its LMTSs and the decider's verdict."""
    pairs = [(sample.left, sample.right)
             for sample in random_pairs(Random(200), 200, depth=3, max_states=8)]
    rng = Random(31)
    pairs += [_mixture_pair(rng) for _ in range(25)]
    out = []
    for left, right in pairs:
        verdict = decide_equiv(left, right)
        if not verdict.equivalent:
            out.append((build_lts(left), build_lts(right), verdict))
    return out


def test_no_canonical_test_differs_below_the_witness_word(inequivalent_pairs):
    # why the decider's search measures at the word's length only
    checked = 0
    for lts1, lts2, verdict in inequivalent_pairs:
        length = len(verdict.witness_word)
        if length == 0:
            continue
        for test in environment_tests(lts1, lts2, min(length, 3)):
            assert (successful_measures(lts1, test, length - 1)
                    == successful_measures(lts2, test, length - 1))
            checked += 1
    assert checked > 10000


def test_the_decider_finds_what_a_search_of_every_length_finds(inequivalent_pairs):
    found = 0
    for lts1, lts2, verdict in inequivalent_pairs:
        length = len(verdict.witness_word)
        tests = environment_tests(lts1, lts2, max(1, min(length, 4)))
        full = search_witness(lts1, lts2, tests, max(1, min(length, 6)))
        assert (verdict.witness_test, verdict.witness_theta) == (
            full.witness_test, full.witness_theta)
        found += full.witness_test is not None
    assert found > 100


def test_the_search_is_skipped_when_no_test_can_reach_the_word(monkeypatch):
    searched = []
    monkeypatch.setattr(decider, "search_witness",
                        lambda *args: searched.append(args) or search_witness(*args))
    # tau-free, a 5-label word: every test of depth 4 stops before it
    verdict = decide_equiv(parse_term("<a,1>.<b,1>.<a,1>.<b,1>.<a,1>.0"),
                           parse_term("<a,1>.<b,1>.<a,1>.<b,1>.<a,2>.0"))
    assert len(verdict.witness_word) == 5 and verdict.witness_test is None
    assert searched == []
    # a tau step lets a depth-4 test reach length 5
    verdict = decide_equiv(parse_term("<tau,1>.<a,1>.<b,1>.<a,1>.<b,1>.0"),
                           parse_term("<tau,1>.<a,1>.<b,1>.<a,1>.<b,2>.0"))
    assert len(verdict.witness_word) == 5 and verdict.witness_test is not None
    (args,) = searched
    assert args[3:] == (5, 5)
