from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mpcalc.corpus import random_pairs, random_term
from mpcalc.errors import CalcError
from mpcalc.oracle import (bounded_testing_oracle, old_style_oracle,
                           passing_probability, successful_measures)
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts
from mpcalc.testing import canonical_tests, prob_pass


def test_distinguishes_timed_internal_moves():
    verdict = bounded_testing_oracle(parse_term("<tau,2>.0"), parse_term("<tau,1>.0"))
    assert not verdict.equivalent
    assert str(verdict.witness_test.term) == "s"
    assert verdict.witness_theta == (Fraction(1, 2),)
    assert (verdict.prob_left, verdict.prob_right) == (1, 0)


def test_witness_is_a_genuine_distinguisher():
    left = parse_term("<a,1>.<b,1>.0")
    right = parse_term("<a,1>.<b,2>.0")
    verdict = bounded_testing_oracle(left, right, depth=2)
    assert not verdict.equivalent
    theta = verdict.witness_theta
    assert prob_pass(left, verdict.witness_test, theta) == verdict.prob_left
    assert prob_pass(right, verdict.witness_test, theta) == verdict.prob_right
    assert verdict.prob_left != verdict.prob_right


def test_equivalent_up_to_bound():
    term = parse_term("<a,1>.<b,2>.0 + <b,3>.0")
    assert bounded_testing_oracle(term, term).equivalent
    doubled = parse_term("<a,1>.0 + <a,1>.0")
    assert bounded_testing_oracle(doubled, parse_term("<a,2>.0")).equivalent


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_grouped_measures_match_direct_evaluation(seed):
    # the oracle's per-length measure groups must reproduce prob_pass exactly
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=10)
    tests = list(canonical_tests(["a", "b"], 2))
    test = tests[rng.randrange(len(tests))]
    theta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 2)))
    measures = successful_measures(build_lts(process), test, len(theta))
    assert passing_probability(measures, theta) == prob_pass(process, test, theta)


def test_old_definition_agrees_without_internal_moves():
    rng = Random(11)
    outcomes = []
    for sample in random_pairs(rng, 25, tau=False, depth=3, max_states=8):
        new = bounded_testing_oracle(sample.left, sample.right, depth=3)
        old = old_style_oracle(sample.left, sample.right, depth=3)
        assert new.equivalent == old.equivalent
        outcomes.append(new.equivalent)
    assert True in outcomes and False in outcomes


def test_flavors_agree():
    rng = Random(12)
    for sample in random_pairs(rng, 12, depth=3, max_states=8):
        reactive = bounded_testing_oracle(sample.left, sample.right, depth=3)
        liberal = bounded_testing_oracle(sample.left, sample.right, depth=3, flavor="liberal")
        timed = bounded_testing_oracle(sample.left, sample.right, depth=3, flavor="tau")
        assert reactive.equivalent == liberal.equivalent == timed.equivalent


def test_unknown_flavor_is_rejected():
    with pytest.raises(ValueError):
        bounded_testing_oracle(parse_term("<a,1>.0"), parse_term("<a,2>.0"), flavor="bogus")


def test_negative_depths_are_rejected():
    left, right = parse_term("<a,1>.0"), parse_term("<a,2>.0")
    with pytest.raises(CalcError):
        bounded_testing_oracle(left, right, depth=-1)
    with pytest.raises(CalcError):
        old_style_oracle(left, right, depth=-2)
    assert bounded_testing_oracle(left, right, depth=0).equivalent
