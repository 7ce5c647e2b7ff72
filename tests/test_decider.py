from __future__ import annotations

import time
from fractions import Fraction
from random import Random

import pytest

from mpcalc import decider, oracle
from mpcalc.corpus import chain_pair, random_pairs, random_term
from mpcalc.decider import (AugmentedLabel, decide_equiv, embed,
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
