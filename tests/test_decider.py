from __future__ import annotations

import time
from collections import deque
from fractions import Fraction
from random import Random

import pytest

from mpcalc import decider, oracle
from mpcalc.corpus import chain_pair, random_pairs, random_term
from mpcalc.decider import (AugmentedLabel, EquivReport, decide_equiv, embed,
                            prob_language_equiv)
from mpcalc.errors import NotPerformanceClosed
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts
from mpcalc.testing import prob_pass


def _embed(source):
    return embed(build_lts(parse_term(source)))


def test_embed_single_transition():
    auto = _embed("<a,2>.0")
    (label,) = auto.matrices
    assert label == AugmentedLabel(frozenset({"a"}), "a", Fraction(2))
    assert auto.matrices[label] == {0: ((1, Fraction(1)),)}
    assert auto.terminal == (Fraction(0), Fraction(1))


def test_embed_folds_multiplicity_into_the_exit_rate():
    assert _embed("<a,1>.0 + <a,1>.0").matrices == _embed("<a,2>.0").matrices


def test_embed_execution_probabilities():
    auto = _embed("<a,2>.0 + <b,3>.0")
    by_name = {label.name: (label, rows) for label, rows in auto.matrices.items()}
    label_a, rows_a = by_name["a"]
    label_b, rows_b = by_name["b"]
    assert label_a.ready == label_b.ready == frozenset({"a", "b"})
    assert label_a.exit_rate == label_b.exit_rate == 5
    assert rows_a == {0: ((1, Fraction(2, 5)),)}
    assert rows_b == {0: ((1, Fraction(3, 5)),)}


def test_embed_rejects_passive_transitions():
    with pytest.raises(NotPerformanceClosed):
        _embed("<a,*1>.0")


def test_language_equiv_identical_automata():
    auto = _embed("<a,1>.<b,2>.0 + <b,3>.0")
    report = prob_language_equiv(auto, auto)
    assert report.equivalent
    assert report.basis_size <= report.dimension == 2 * auto.size


def test_language_equiv_one_letter_witness():
    report = prob_language_equiv(_embed("<tau,2>.0"), _embed("<tau,1>.0"))
    assert not report.equivalent
    (letter,) = report.witness_word
    assert letter.name == "tau" and letter.ready == frozenset({"tau"})
    # exit rates 1 and 2 name disjoint alphabets, so one letter suffices
    assert letter.exit_rate in (Fraction(1), Fraction(2))


def _dense_fraction_span(a1, a2):
    """Reference: the span on exact Fraction vectors init * M_w, with a
    normalized echelon basis; prob_language_equiv must agree with it."""
    dim = a1.size + a2.size
    labels = sorted(set(a1.matrices) | set(a2.matrices), key=lambda label: label.sort_key)
    v0 = list(a1.init) + [-x for x in a2.init]
    f_term = list(a1.terminal) + list(a2.terminal)

    def violates(v):
        return sum(v) != 0 or sum(x * w for x, w in zip(v, f_term)) != 0

    basis = {}

    def insert(v):
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

    if violates(v0):
        return EquivReport(False, (), 0, dim)
    queue = deque([(v0, ())]) if insert(v0) else deque()
    while queue:
        vector, word = queue.popleft()
        for label in labels:
            out = [Fraction(0)] * dim
            for shift, auto in ((0, a1), (a1.size, a2)):
                for src, row in auto.matrices.get(label, {}).items():
                    for tgt, p in row:
                        out[shift + tgt] += vector[shift + src] * p
            if not any(out):
                continue
            if violates(out):
                return EquivReport(False, word + (label,), len(basis), dim)
            if insert(out):
                queue.append((out, word + (label,)))
    return EquivReport(True, None, len(basis), dim)


def _same_as_reference(left, right):
    a1, a2 = embed(build_lts(left)), embed(build_lts(right))
    report = prob_language_equiv(a1, a2)
    assert report == _dense_fraction_span(a1, a2)
    return report


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
        assert verdict.basis_size <= verdict.dimension == n1 + n2


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
