"""End-to-end acceptance suite.

Each test is one numbered criterion; `pytest -v` therefore reports one
pass/fail line per criterion.  All checks are exact (rational arithmetic,
no tolerances) and all corpora are seeded, so the suite is deterministic.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

import pytest

from mpcalc import terms as t
from mpcalc.axioms import LAW_IDS, RewriteStep, apply_law
from mpcalc.cli import main
from mpcalc.computations import enumerate_computations, prob_set
from mpcalc.corpus import (a4_instance, a4_violation, chain_pair,
                           deadlock_free_term, law_instance, random_pairs)
from mpcalc.decider import decide_equiv
from mpcalc.mlogic import characterization_check
from mpcalc.oracle import bounded_testing_oracle, old_style_oracle
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts
from mpcalc.testing import parse_test, prob_pass


@pytest.fixture(scope="module")
def corpus200():
    rng = Random(200)
    pairs = random_pairs(rng, 200, depth=3, max_states=8)
    verdicts = [decide_equiv(p.left, p.right, with_test_witness=False)
                for p in pairs]
    return pairs, verdicts


def test_criterion_01_internal_race_distinguishes():
    success = parse_test("s")
    theta = (Fraction(1, 2),)
    assert prob_pass(parse_term("<tau,2>.0"), success, theta) == 1
    assert prob_pass(parse_term("<tau,1>.0"), success, theta) == 0
    assert not decide_equiv(parse_term("<tau,2>.0"), parse_term("<tau,1>.0")).equivalent


def test_criterion_02_race_probability():
    for lam, gam in ((1, 1), (2, 3), (5, 1)):
        process = parse_term(f"<tau,{lam}>.0 + <a,{gam}>.0")
        test = parse_test("<a,*1>.s")
        expected = Fraction(gam, lam + gam)
        threshold = Fraction(1, lam + gam)
        for bound in (threshold, 2 * threshold, threshold + 7):
            assert prob_pass(process, test, (bound,)) == expected


def test_criterion_03_axiom_soundness():
    rng = Random(100)
    for law in LAW_IDS:
        for _ in range(100):
            instance, step = law_instance(rng, law)
            rewritten = apply_law(instance, step)
            verdict = decide_equiv(instance, rewritten, with_test_witness=False)
            assert verdict.equivalent, (law, str(instance))


def test_criterion_04_choice_deferral_schema():
    figure = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
    merged = parse_term("<a,3>.<b,5>.0")
    assert decide_equiv(figure, merged, with_test_witness=False).equivalent
    rng = Random(110)
    for _ in range(50):
        instance = a4_instance(rng)
        folded = apply_law(instance, RewriteStep("A4"))
        assert decide_equiv(instance, folded, with_test_witness=False).equivalent
    for _ in range(50):
        lhs, rhs = a4_violation(rng)
        assert not decide_equiv(lhs, rhs, with_test_witness=False).equivalent


def _closures(term: t.ProcessTerm):
    yield t.Prefix("c", t.Rate(1), term)
    yield t.Choice(term, t.Prefix("c", t.Rate(1), t.NIL))
    yield t.Parallel(frozenset({"a"}), term,
                     t.Prefix("a", t.Rate(1, passive=True), t.NIL))
    yield t.Hide(frozenset({"a"}), term)
    yield t.Relabel((("a", "b"),), term)


def test_criterion_05_congruence():
    rng = Random(500)
    equivalent, inequivalent = [], []
    while len(equivalent) < 50 or len(inequivalent) < 20:
        (pair,) = random_pairs(rng, 1, depth=3, max_states=8)
        verdict = decide_equiv(pair.left, pair.right, with_test_witness=False)
        if verdict.equivalent and len(equivalent) < 50:
            equivalent.append(pair)
        elif not verdict.equivalent and len(inequivalent) < 20:
            inequivalent.append(pair)
    for pair in equivalent:
        for left, right in zip(_closures(pair.left), _closures(pair.right)):
            assert decide_equiv(left, right, with_test_witness=False).equivalent
    fresh = t.Prefix("c", t.Rate(2), t.NIL)
    for pair in inequivalent:
        wrapped = decide_equiv(t.Choice(pair.left, fresh),
                               t.Choice(pair.right, fresh),
                               with_test_witness=False)
        assert not wrapped.equivalent
    # the motivating scenario: a fresh race summand keeps the internal
    # moves distinguishable
    for lam, mu, gam in ((2, 1, 1), (3, 1, 2)):
        left = parse_term(f"<tau,{lam}>.0 + <a,{gam}>.0")
        right = parse_term(f"<tau,{mu}>.0 + <a,{gam}>.0")
        assert not decide_equiv(left, right, with_test_witness=False).equivalent


def test_criterion_06_length_indexed_matches_old_definition():
    rng = Random(300)
    for pair in random_pairs(rng, 100, depth=3, max_states=8, tau=False):
        for side in (pair.left, pair.right):
            assert all(tr.name != t.TAU for tr in build_lts(side).transitions()), str(side)
        new = bounded_testing_oracle(pair.left, pair.right, depth=3)
        old = old_style_oracle(pair.left, pair.right, depth=3)
        assert new.equivalent == old.equivalent, (str(pair.left), str(pair.right))


def test_criterion_07_decider_and_oracle_agree(corpus200):
    pairs, verdicts = corpus200
    distinguished = 0
    for pair, verdict in zip(pairs, verdicts):
        oracle = bounded_testing_oracle(pair.left, pair.right, depth=4)
        if not oracle.equivalent:
            distinguished += 1
            assert not verdict.equivalent, (str(pair.left), str(pair.right))
        if not verdict.equivalent and len(verdict.witness_word) <= 4:
            assert not oracle.equivalent, (str(pair.left), str(pair.right))
    assert distinguished > 0


def test_criterion_08_modal_characterization(corpus200):
    pairs, verdicts = corpus200
    for pair, verdict in zip(pairs, verdicts):
        report = characterization_check(pair.left, pair.right, formula_depth=3,
                                        grid_cap=3, max_theta_len=2)
        assert not report.theorem_violation, (str(pair.left), str(pair.right))
        if verdict.equivalent:
            assert report.consistent, (str(pair.left), str(pair.right),
                                       str(report.formula), report.theta)


def test_criterion_09_test_flavors_agree():
    rng = Random(400)
    for pair in random_pairs(rng, 100, depth=3, max_states=8):
        reactive = bounded_testing_oracle(pair.left, pair.right, depth=3)
        liberal = bounded_testing_oracle(pair.left, pair.right, depth=3,
                                         flavor="liberal")
        timed = bounded_testing_oracle(pair.left, pair.right, depth=3,
                                       flavor="tau")
        assert reactive.equivalent == liberal.equivalent == timed.equivalent


def test_criterion_10_probability_conservation():
    rng = Random(600)
    for _ in range(100):
        term = deadlock_free_term(rng, horizon=5)
        lts = build_lts(term, state_bound=64)
        comps = enumerate_computations(lts, 5)
        maximal = [c for c in comps
                   if len(c) == 5
                   or not lts.outgoing[lts.state_of(c.traversed()[-1])]]
        assert prob_set(maximal) == 1, str(term)


def test_criterion_11_polynomial_decision(corpus200):
    pairs, verdicts = corpus200
    for verdict in verdicts:
        n1, n2 = verdict.state_counts
        assert verdict.basis_size <= n1 + n2
    rng = Random(700)
    same_left, _ = chain_pair(rng, length=49, equivalent=True)
    left, right = chain_pair(rng, length=49, equivalent=False)
    assert len(build_lts(left).states) == 50
    for p1, p2, expected_exit in ((same_left, same_left, 0), (left, right, 1)):
        start = time.monotonic()
        with redirect_stdout(io.StringIO()):
            code = main(["check-equiv", "-p1", str(p1), "-p2", str(p2)])
        assert time.monotonic() - start < 5.0
        assert code == expected_exit
