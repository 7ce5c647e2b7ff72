from __future__ import annotations

import gc
import weakref
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from mpcalc import terms as t
from mpcalc.corpus import random_pair, random_pairs, random_term
from mpcalc.decider import decide_equiv
from mpcalc.errors import CalcError
from mpcalc.oracle import (bounded_testing_oracle, old_style_oracle, passing_probability,
                           search_witness, successful_measures)
from mpcalc.parser import parse_term, parse_test_body
from mpcalc.semantics import build_lts
from mpcalc.testing import (InteractionProduct, canonical_tests, flavored_tests, make_test,
                            prob_pass)


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
    with pytest.raises(ValueError, match="theta longer than the enumerated bound"):
        passing_probability(measures, theta + (Fraction(1),))


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


def test_negative_lengths_are_rejected():
    lts1, lts2 = build_lts(parse_term("<a,1>.0")), build_lts(parse_term("<a,2>.0"))
    with pytest.raises(CalcError):
        search_witness(lts1, lts2, canonical_tests(["a"], 1), -1)
    with pytest.raises(CalcError):
        successful_measures(lts1, make_test(t.SUCCESS), -1)
    assert not search_witness(lts1, lts2, canonical_tests(["a"], 1), 1).equivalent


def test_a_search_measures_no_length_below_its_first():
    lts1, lts2 = build_lts(parse_term("<a,1>.<b,1>.0")), build_lts(parse_term("<a,2>.<b,1>.0"))
    full = search_witness(lts1, lts2, canonical_tests(["a", "b"], 2), 2)
    assert str(full.witness_test) == "<a,*1>.s" and len(full.witness_theta) == 1
    later = search_witness(lts1, lts2, canonical_tests(["a", "b"], 2), 2, 2)
    assert str(later.witness_test) == "<a,*1>.<b,*1>.s" and len(later.witness_theta) == 2
    for min_len in (-1, 3):
        with pytest.raises(CalcError):
            search_witness(lts1, lts2, canonical_tests(["a"], 1), 2, min_len)


def _minimal_difference(m1, m2):
    support = [v for v in set(m1) | set(m2) if m1.get(v, 0) != m2.get(v, 0)]
    minimal = [v for v in support
               if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in support)]
    return min(minimal) if minimal else None


def _reference_search(lts1, lts2, tests, max_len):
    """The witness search without any skipping: every test is measured."""
    checked = 0
    for checked, test in enumerate(tests, 1):
        m1 = successful_measures(lts1, test, max_len)
        m2 = successful_measures(lts2, test, max_len)
        for length in range(max_len + 1):
            theta = _minimal_difference(m1[length], m2[length])
            if theta is not None:
                return (False, test, theta, passing_probability(m1, theta),
                        passing_probability(m2, theta), checked)
    return (True, None, None, None, None, checked)


def _tau_loop(term, rate):
    # rec X : <tau,rate>.X + term, an internal self-loop at the initial state
    return t.Rec("L", t.Choice(t.Prefix(t.TAU, t.Rate(rate), t.Var("L")), term))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["reactive", "liberal", "tau"]),
       st.sampled_from([None, (1, 1), (2, 2), (1, 3)]))
def test_skipping_tests_neither_side_can_pass_changes_no_answer(seed, flavor, loops):
    # the search skips the tests whose success neither process can reach;
    # a plain loop that measures every test must give the same answer.
    # The name c, which neither process uses, makes many such tests, and
    # a shuffled order puts them before tests like s, which separate most
    # pairs by their timing alone.
    rng = Random(seed)
    sample = random_pair(rng, names=("a", "b"), depth=3, max_states=8)
    left, right = sample.left, sample.right
    if loops is not None:
        left, right = _tau_loop(left, loops[0]), _tau_loop(right, loops[1])
    lts1, lts2 = build_lts(left), build_lts(right)
    names = sorted(lts1.visible_names() | lts2.visible_names() | {"c"})
    depth = 3 if flavor == "reactive" else 2

    tests = list(flavored_tests(canonical_tests(names, depth), flavor))
    rng.shuffle(tests)
    verdict = search_witness(lts1, lts2, tests, depth)
    got = (verdict.equivalent, verdict.witness_test, verdict.witness_theta,
           verdict.prob_left, verdict.prob_right, verdict.tests_checked)
    assert got == _reference_search(lts1, lts2, tests, depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["reactive", "liberal", "tau"]),
       st.sampled_from([None, 1, 3]))
@example(9, "liberal", None)  # a node measured both before and after success
def test_measures_on_a_shared_memo_match_fresh_products(seed, flavor, loop):
    # a search measures its tests on one product per side, which keeps
    # what it learns of each test node; each test's measures must be those
    # of a fresh product on a test indexed afresh from the term read back
    # from its states
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=8)
    if loop is not None:
        process = _tau_loop(process, loop)
    lts = build_lts(process)
    tests = list(flavored_tests(canonical_tests(["a", "b"], 2), flavor))
    rng.shuffle(tests)
    product = InteractionProduct(lts)
    for test in rng.sample(tests, len(tests) // 2):
        assert (product.measures(test.root, 3)
                == successful_measures(lts, make_test(test.term, flavor), 3))


def test_the_memos_keep_nothing_of_a_consumed_test():
    # the product holds its record of each test node weakly, so a
    # search's memory stays bounded: once a test is dropped its records
    # go, also the one whose step a tau move of the process leaves at its
    # own node
    lts = build_lts(parse_term("rec X : <tau,1>.X + <a,2>.<b,1>.0"))
    product = InteractionProduct(lts)
    test = make_test(parse_test_body("<a,*1>.(<b,*1>.s + s)"), "liberal")
    # a then b; or tau, then a into the successful node
    assert product.measures(test.root, 3)[2] == {
        (Fraction(1, 3), Fraction(1)): Fraction(2, 3),
        (Fraction(1, 3), Fraction(1, 3)): Fraction(2, 9)}
    records = list(product._records.values())
    assert all(any(getattr(record, memo) for record in records)
               for memo in ("steps", "reach", "measures"))
    assert any(node is None for record in records for _, branches in record.steps.values()
               for _, _, node in branches)
    del test, records
    assert len(product._records) == 0


@pytest.mark.parametrize("flavor", ["liberal", "tau"])
def test_a_search_keeps_no_test_it_has_consumed(flavor):
    # p against itself: no test separates them, so the search takes every
    # test (and measures each liberal variant with s at its root)
    lts = build_lts(parse_term("<a,1>.<b,2>.0 + <tau,1>.<b,1>.0"))
    roots = []

    def tests():
        for test in flavored_tests(canonical_tests(["a", "b"], 2), flavor):
            # the search holds the test it took last, and no other
            assert all(root() is None for root in roots[:-1])
            roots.append(weakref.ref(test.root))
            yield test

    assert search_witness(lts, lts, tests(), 2).tests_checked == len(roots) == 75


def test_most_tests_of_a_deep_witness_are_skipped(monkeypatch):
    left = parse_term("<c,4/3>.<a,9>.<d,8>.<c,5/3>.0")
    right = parse_term("<c,4/3>.<a,9>.<d,8>.<c,8/3>.0")
    calls = []
    measures = InteractionProduct.measures
    monkeypatch.setattr(InteractionProduct, "measures", lambda product, root, *args: (
        calls.append((product, root)) or measures(product, root, *args)))
    verdict = bounded_testing_oracle(left, right, depth=4)
    assert not verdict.equivalent
    # one call for each side of each measured test
    measured = len({id(root) for _, root in calls})
    assert len({(id(product), id(root)) for product, root in calls}) == len(calls)
    assert len(calls) == 2 * measured > 0
    assert verdict.tests_checked > 20 * measured
    # the witness carries its whole index, and so does a fresh copy of it
    theta = verdict.witness_theta
    for test in (verdict.witness_test, make_test(verdict.witness_test.term)):
        assert prob_pass(left, test, theta) == verdict.prob_left
        assert prob_pass(right, test, theta) == verdict.prob_right
    assert verdict.prob_left != verdict.prob_right


def test_a_search_leaves_no_cyclic_garbage():
    left = parse_term("<a,1>.<b,1>.0 + <b,2>.0")
    right = parse_term("<a,1>.<b,2>.0 + <b,2>.0")
    gc.collect()
    gc.disable()
    try:
        assert not bounded_testing_oracle(left, right, depth=3).equivalent
        assert gc.collect() == 0
        assert decide_equiv(left, right).witness_test is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
