from __future__ import annotations

import pickle
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from mpcalc import mlogic as ml
from mpcalc.corpus import random_pair, random_term
from mpcalc.errors import CalcError, NotPerformanceClosed, NotWellFormed, ReservedNameError
from mpcalc.parser import parse_formula, parse_term
from mpcalc.rates import EXPONENTIAL, rate_o
from mpcalc.testing import make_test, prob_pass


def test_formula_wellformedness():
    a_true = ml.Diamond("a", ml.TRUE)
    with pytest.raises(NotWellFormed):
        ml.Diamond("tau", ml.TRUE)
    with pytest.raises(NotWellFormed):
        ml.Or(ml.TRUE, a_true)  # true is not a disjunct
    with pytest.raises(NotWellFormed):
        ml.Or(a_true, ml.Diamond("a", ml.Or(
            ml.Diamond("b", ml.TRUE), ml.Diamond("a", ml.TRUE))))
    ml.Or(a_true, ml.Diamond("b", ml.TRUE))


def test_failure_name_is_reserved_in_formulas():
    with pytest.raises(ReservedNameError):
        ml.Diamond("z", ml.TRUE)
    with pytest.raises(ReservedNameError):
        parse_formula("<z>true")
    for depth in (0, 1):
        with pytest.raises(ReservedNameError):
            ml.enumerate_formulas(["z", "a"], depth)


@pytest.mark.parametrize("name", ["a b", " b", "1a", "ä"])
def test_formula_names_must_be_identifiers(name):
    # the grammar cannot read such a name back from a printed formula
    with pytest.raises(CalcError, match="not an identifier"):
        ml.enumerate_formulas(["a", name], 1)


def test_formulas_hash_by_value_and_survive_pickling():
    formula = parse_formula("<a><b>true \\/ <b>true")
    twin = parse_formula("<a><b>true \\/ <b>true")
    assert formula is not twin and formula == twin and hash(formula) == hash(twin)
    copy = pickle.loads(pickle.dumps(formula))
    assert copy == formula and hash(copy) == hash(formula)
    assert copy.initial == frozenset({"a", "b"})


def test_init_sets():
    assert ml.init(ml.TRUE) == frozenset()
    assert ml.init(ml.Diamond("a", ml.TRUE)) == frozenset({"a"})
    assert ml.init(parse_formula("<a>true \\/ <b>true")) == frozenset({"a", "b"})


def test_eval_base_cases():
    assert ml.eval(parse_term("<tau,9>.0"), (), ml.TRUE) == 1
    assert ml.eval(parse_term("<tau,9>.0"), (), ml.Diamond("a", ml.TRUE)) == 0
    assert ml.eval(parse_term("0"), (Fraction(5),), ml.TRUE) == 0


def test_eval_diamond_single_transition():
    formula = ml.Diamond("a", ml.TRUE)
    assert ml.eval(parse_term("<a,3>.0"), (Fraction(1, 3),), formula) == 1
    assert ml.eval(parse_term("<a,3>.0"), (Fraction(1, 4),), formula) == 0


def test_eval_true_counts_internal_moves():
    assert ml.eval(parse_term("<tau,3>.0"), (Fraction(1, 3),), ml.TRUE) == 1
    assert ml.eval(parse_term("<tau,1>.0"), (Fraction(1, 3),), ml.TRUE) == 0


def test_eval_disjunction_grants_extra_time():
    # p_a = 1/3, p_b = 1/2 at overall rate 6; both guards open at t = 1/6
    process = parse_term("<a,2>.0 + <b,3>.0 + <tau,1>.0")
    formula = parse_formula("<a>true \\/ <b>true")
    assert ml.eval(process, (Fraction(1, 6),), formula) == Fraction(5, 6)
    assert ml.eval(process, (Fraction(1, 7),), formula) == 0
    assert ml.eval(process, (Fraction(2),), formula) == Fraction(5, 6)


def test_eval_requires_performance_closure():
    with pytest.raises(NotPerformanceClosed):
        ml.eval(parse_term("<a,*1>.0"), (), ml.TRUE)


def test_one_step_or_closed_form():
    # Each disjunct sees the root without its tau moves: it moves with
    # certainty, and its adjusted guard opens exactly when T reaches the
    # root's mean sojourn time.  The tau moves lead to an empty theta,
    # where the Or is worth 0.
    rng = Random(41)
    formula = parse_formula("<a>true \\/ <b>true")
    nonzero = with_tau = 0
    for _ in range(300):
        process = random_term(rng, depth=3, max_states=10)
        r_a, r_b, r_tau = (rate_o(process, name, EXPONENTIAL)
                           for name in ("a", "b", "tau"))
        total = r_a + r_b + r_tau
        bounds = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        if total:
            bounds += [1 / total, 1 / total * Fraction(99, 100)]
        for bound in bounds:
            expected = Fraction(0)
            if r_a + r_b > 0 and bound >= 1 / total:
                expected = (r_a + r_b) / total
            assert ml.eval(process, (bound,), formula) == expected, (str(process), bound)
            nonzero += expected != 0
            with_tau += expected != 0 and r_tau != 0
    assert nonzero > 100 and with_tau > 30


def test_formula_enumeration_counts():
    # recurrence over two names: f(d) = 1 + 2 f(d-1) + f(d-1)^2
    assert [len(ml.enumerate_formulas(("a", "b"), d)) for d in range(4)] == [1, 4, 25, 676]
    assert [len(ml.enumerate_formulas(("a",), d)) for d in range(4)] == [1, 2, 3, 4]
    for formula in ml.enumerate_formulas(("a", "b"), 2):
        assert parse_formula(str(formula)) == formula
    for depth in (-1, -5):
        with pytest.raises(ValueError):
            ml.enumerate_formulas(("a", "b"), depth)


def test_formula_count_follows_the_enumeration():
    for names in ((), ("a",), ("a", "b"), ("a", "b", "c")):
        for depth in range(4 if len(names) < 3 else 3):
            assert ml.formula_count(len(names), depth) == len(
                ml.enumerate_formulas(names, depth))
    assert ml.formula_count(3, 2) == 729
    assert ml.formula_count(13, 1) == 8192
    for names, depth in ((3, 3), (4, 2), (2, 4), (14, 1), (1, ml.FORMULA_BUDGET), (3, 10**6)):
        assert ml.formula_count(names, depth) == ml.FORMULA_BUDGET + 1
    assert ml.formula_count(0, 10**9) == 1


def test_a_sweep_past_the_formula_budget_is_refused_at_once():
    # three names at depth 3 would enumerate 389,017,000 formulas
    left = parse_term("<c,1>.(<a,1>.0 + <b,3>.0) + <c,1>.(<a,3>.0 + <b,1>.0)")
    right = parse_term("<c,2>.(<a,2>.0 + <b,2>.0)")
    start = time.monotonic()
    with pytest.raises(CalcError, match="FORMULA_BUDGET"):
        ml.characterization_check(left, right)
    with pytest.raises(CalcError, match="FORMULA_BUDGET"):
        ml.enumerate_formulas(("a", "b", "c"), 3)
    assert time.monotonic() - start < 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_stays_in_unit_interval_and_monotone(seed):
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=10)
    formulas = ml.enumerate_formulas(("a", "b"), 2)
    formula = formulas[rng.randrange(len(formulas))]
    theta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 2)))
    value = ml.eval(process, theta, formula)
    assert 0 <= value <= 1
    wider = tuple(v + Fraction(rng.randint(0, 3), 5) for v in theta)
    assert value <= ml.eval(process, wider, formula)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_tau_free_eval_matches_translated_test(seed):
    # without internal moves the formula semantics and the testing
    # semantics of the translated test coincide exactly
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=10, tau=False)
    formulas = ml.enumerate_formulas(("a", "b"), 2)
    formula = formulas[rng.randrange(len(formulas))]
    test = make_test(ml.formula_test(formula))
    theta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 2)))
    assert ml.eval(process, theta, formula) == prob_pass(process, test, theta)


def test_characterization_self_pair():
    process = parse_term("<a,1>.<b,2>.0 + <b,3>.0")
    report = ml.characterization_check(process, process, formula_depth=2)
    assert report.consistent and report.decider_equivalent
    assert not report.theorem_violation


def test_characterization_finds_internal_race_counterexample():
    report = ml.characterization_check(parse_term("<tau,2>.0"),
                                       parse_term("<tau,1>.0"), formula_depth=1)
    assert not report.consistent and not report.decider_equivalent
    assert report.formula is ml.TRUE
    assert report.theta == (Fraction(1, 2),)
    assert (report.value_left, report.value_right) == (1, 0)
    assert not report.theorem_violation


def test_characterization_on_deferred_choice_pair():
    left = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
    right = parse_term("<a,3>.<b,5>.0")
    report = ml.characterization_check(left, right, formula_depth=3)
    assert report.consistent and report.decider_equivalent
    assert report.formulas_checked == 676


def test_characterization_sweeps_each_cut_once(monkeypatch):
    # With thetas of at most 2 entries the 676 formulas of depth 3 over
    # two names have 100 distinct cuts; each is swept once per theta.
    swept = Counter()
    thetas = defaultdict(set)
    value = ml._Semantics.value

    def counted(self, state, tau_stripped, theta, formula):
        if sys._getframe(1).f_code.co_name == "characterization_check":
            swept[id(self)] += 1
            thetas[id(self)].add(theta)
        return value(self, state, tau_stripped, theta, formula)

    monkeypatch.setattr(ml._Semantics, "value", counted)
    left = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
    right = parse_term("<a,3>.<b,5>.0")
    report = ml.characterization_check(left, right, formula_depth=3, max_theta_len=2)
    assert report.consistent and report.formulas_checked == 676
    assert len(swept) == 2
    for side, count in swept.items():
        assert len(thetas[side]) > 10 and count == 100 * len(thetas[side])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_formulas_with_one_cut_take_one_value(seed):
    # the lemma the sweep skips by: at thetas of n entries a value depends
    # only on the formula's cut at depth n
    rng = Random(seed)
    semantics = ml._Semantics(random_term(rng, depth=3, max_states=10), 10000)
    length = rng.randint(0, 3)
    thetas = [semantics.intern(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                     for _ in range(length)))
              for _ in range(4)]
    first: dict[object, ml.Formula] = {}
    for formula in ml.enumerate_formulas(("a", "b"), 3):
        other = first.setdefault(ml._cut(formula, length), formula)
        for theta in thetas:
            assert (semantics.value(0, False, theta, formula)
                    == semantics.value(0, False, theta, other)), (str(formula), str(other))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([("a",), ("a", "b")]),
       st.integers(0, 3), st.integers(0, 3))
# pairs with tau moves: seed 3 is consistent, seed 8 differs at formula 6
@example(3, ("a", "b"), 2, 1)
@example(3, ("a", "b"), 2, 3)
@example(8, ("a", "b"), 2, 1)
def test_characterization_matches_the_plain_sweep(seed, names, formula_depth,
                                                  theta_len):
    # The reference evaluates every formula at every theta with eval and
    # stops at the first difference, so skipping by cut must not change
    # the report.
    formula_depth = min(formula_depth, 4 - len(names))
    pair = random_pair(Random(seed), names=names, depth=3, max_states=6)
    report = ml.characterization_check(pair.left, pair.right,
                                       formula_depth=formula_depth, grid_cap=2,
                                       max_theta_len=theta_len)
    sides = [ml._Semantics(process, 10000) for process in (pair.left, pair.right)]
    visible = sorted(sides[0].lts.visible_names() | sides[1].lts.visible_names())
    grid = ml._time_grid(sides, visible, 2)
    thetas = [theta for size in range(theta_len + 1)
              for theta in product(grid, repeat=size)]
    expected = (True, None, None, None, None)
    checked = 0
    for formula in ml.enumerate_formulas(visible, formula_depth):
        checked += 1
        for theta in thetas:
            values = [ml.eval(process, theta, formula)
                      for process in (pair.left, pair.right)]
            if values[0] != values[1]:
                expected = (False, formula, theta, *values)
                break
        if not expected[0]:
            break
    assert (report.consistent, report.formula, report.theta, report.value_left,
            report.value_right, report.formulas_checked) == (*expected, checked)


def test_characterization_grid_cap_below_two_is_rejected():
    left = parse_term("<a,1>.0 + <b,2>.0")
    right = parse_term("<a,1>.0 + <b,3>.0")
    for cap in (1, 0):
        with pytest.raises(ValueError):
            ml.characterization_check(left, right, formula_depth=1, grid_cap=cap)
    report = ml.characterization_check(left, right, formula_depth=1, grid_cap=2)
    assert not report.consistent and not report.decider_equivalent
    assert report.formula == parse_formula("<a>true \\/ <b>true")
    assert report.theta == (Fraction(1, 4),)


def test_characterization_negative_depths_are_rejected():
    left, right = parse_term("<a,1>.0"), parse_term("<a,2>.0")
    for options in ({"formula_depth": -1}, {"max_theta_len": -1}):
        with pytest.raises(ValueError):
            ml.characterization_check(left, right, **options)
    assert not ml.characterization_check(left, right, formula_depth=1, max_theta_len=1).consistent


def test_characterization_requires_performance_closure():
    closed, open_ = parse_term("<a,1>.0"), parse_term("<a,*1>.0")
    for left, right in ((open_, closed), (closed, open_)):
        with pytest.raises(NotPerformanceClosed):
            ml.characterization_check(left, right, formula_depth=1)
