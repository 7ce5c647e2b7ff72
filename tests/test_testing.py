from __future__ import annotations

import hashlib
import pickle
from collections import deque
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mpcalc import terms as t
from mpcalc.computations import filter_le_theta, filter_len, prob_set
from mpcalc.corpus import random_term
from mpcalc.errors import CalcError, NotPerformanceClosed, NotWellFormed, ReservedNameError
from mpcalc.mlogic import enumerate_formulas, eval as eval_formula, formula_test
from mpcalc import testing
from mpcalc.oracle import bounded_testing_oracle, passing_probability, successful_measures
from mpcalc.parser import parse_formula, parse_term, parse_test_body
from mpcalc.semantics import build_lts, derive_transitions
from mpcalc.testing import (canonical_tests, flavored_tests, interaction, make_test,
                            parse_test, prob_pass, successful_computations)


def _trans(term):
    return {(name, str(rate), str(target)): count
            for (name, rate, target), count in derive_transitions(term)}


def test_test_shape_validation():
    parse_test("<a,*1>.s + <b,*2>.s")
    with pytest.raises(NotWellFormed):
        parse_test("<a,2>.s")  # timed visible prefix
    with pytest.raises(NotWellFormed):
        parse_test("<tau,*1>.s")  # passive tau
    with pytest.raises(NotWellFormed):
        parse_test("rec X : <a,*1>.X")
    with pytest.raises(NotWellFormed):
        parse_test("s + <a,*1>.s")  # ambiguous success summand
    # liberal grammar allows success next to other summands
    parse_test("s + <a,*1>.s", flavor="liberal")
    # tau flavor allows timed tau only
    parse_test("<tau,3>.<a,*1>.s", flavor="tau")
    with pytest.raises(NotWellFormed):
        parse_test("<tau,3>.s")
    with pytest.raises(NotWellFormed, match="tau test prefixes must be exponentially timed"):
        parse_test("<tau,*1>.<a,*1>.s", flavor="tau")
    for source, flavor in (("<a,*1>.0", "reactive"), ("s + s", "reactive"),
                           ("<tau,1>.(s + <a,*1>.s)", "tau"), ("<a,*1>.<tau,2>.s", "tau"),
                           ("<a,*1>.(s + <b,*1>.s)", "reactive"),
                           ("<tau,1>.<a,*1>.s", "liberal")):
        with pytest.raises(NotWellFormed):
            parse_test(source, flavor=flavor)
    for source, flavor in (("s + s", "liberal"), ("<a,*1>.<tau,2>.<b,*1>.s", "tau"),
                           ("<tau,1>.<a,*1>.s + <b,*1>.s", "tau"), ("<z,*1>.s", "reactive")):
        parse_test(source, flavor=flavor)


def test_a_test_is_checked_when_it_is_made():
    with pytest.raises(NotWellFormed):
        testing.Test(parse_test_body("<a,2>.s"), "reactive")
    with pytest.raises(ValueError):
        testing.Test(t.SUCCESS, "bogus")


def _record_built_terms(monkeypatch):
    """The states whose term is built from their states, in build order."""
    built = []
    term_of = testing._term_of
    monkeypatch.setattr(testing, "_term_of",
                        lambda state: (state.term is None and built.append(state)) or term_of(state))
    return built


@pytest.mark.parametrize("flavor", testing.FLAVORS)
def test_the_oracle_indexes_each_test_once(monkeypatch, flavor):
    calls = []
    index = testing._index
    monkeypatch.setattr(testing, "_index", lambda *args: calls.append(args) or index(*args))
    built = _record_built_terms(monkeypatch)
    verdict = bounded_testing_oracle(parse_term("<a,1>.<b,1>.0"), parse_term("<a,1>.<b,2>.0"),
                                     depth=2, flavor=flavor)
    assert not verdict.equivalent and verdict.tests_checked > 1
    # s is indexed from its term; every other test, flavored variants
    # included, is made from states and measured on them, and the search
    # builds no term
    assert len(calls) == 1 and built == []
    # reading the witness builds its term, and no other
    assert str(verdict.witness_test) == "<a,*1>.<b,*1>.s"
    assert built[0] is verdict.witness_test.root and len(built) == 2


def test_interaction_synchronizes_on_all_visible_names():
    one = interaction(parse_term("<a,1>.0"), parse_test("<a,*1>.s"))
    assert _trans(one) == {("a", "1", "0 |[a,z]| s"): 1}
    # tau is outside the sync set: the process moves by itself
    alone = interaction(parse_term("<tau,2>.0"), parse_test("s"))
    assert {(n, str(r)) for (n, r, _), _ in derive_transitions(alone)} == {("tau", "2")}
    # mismatched names block
    blocked = interaction(parse_term("<a,1>.0"), parse_test("<b,*1>.s"))
    assert derive_transitions(blocked) == ()


def test_interaction_rejects_open_process():
    with pytest.raises(NotPerformanceClosed):
        interaction(parse_term("<a,*1>.0"), parse_test("s"))


def test_successful_computations_stop_at_first_success():
    comps = successful_computations(parse_term("<a,5>.0"), parse_test("s"), 3)
    assert len(comps) == 1 and len(comps[0]) == 0
    blocked = successful_computations(parse_term("<a,1>.0"), parse_test("<b,*1>.s"), 3)
    assert blocked == []
    single = successful_computations(parse_term("<a,1>.0"), parse_test("<a,*1>.s"), 3)
    assert [len(c) for c in single] == [1]


def test_prob_pass_success_race():
    success = parse_test("s")
    assert prob_pass(parse_term("<tau,2>.0"), success, (Fraction(1, 2),)) == 1
    assert prob_pass(parse_term("<tau,1>.0"), success, (Fraction(1, 2),)) == 0
    # empty bound sequence: the root interaction state is already successful
    assert prob_pass(parse_term("<a,5>.0"), success, ()) == 1


def test_prob_pass_race_probability():
    guard = parse_test("<a,*1>.s")
    for lam, gam in ((1, 1), (2, 3), (5, 1)):
        process = parse_term(f"<tau,{lam}>.0 + <a,{gam}>.0")
        breakpoint_ = Fraction(1, lam + gam)
        expected = Fraction(gam, lam + gam)
        assert prob_pass(process, guard, (breakpoint_,)) == expected
        assert prob_pass(process, guard, (2 * breakpoint_,)) == expected
        below = breakpoint_ - Fraction(1, 100)
        assert prob_pass(process, guard, (below,)) == 0


def test_prob_pass_two_steps():
    chain = parse_term("<a,1>.<b,4>.0")
    test = parse_test("<a,*1>.<b,*1>.s")
    # stepwise sojourns are 1 and 1/4
    assert prob_pass(chain, test, (Fraction(1), Fraction(1, 4))) == 1
    assert prob_pass(chain, test, (Fraction(1), Fraction(1, 5))) == 0
    assert prob_pass(chain, test, (Fraction(1, 2), Fraction(1, 4))) == 0
    # length-1 bound sequence sees no success at that exact length
    assert prob_pass(chain, test, (Fraction(1),)) == 0


def test_prob_pass_z_branch_keeps_competition():
    process = parse_term("<a,2>.0 + <b,3>.0")
    test = parse_test("<a,*1>.s + <b,*1>.<z,*1>.s")
    assert prob_pass(process, test, (Fraction(1, 5),)) == Fraction(2, 5)
    assert prob_pass(process, test, (Fraction(1, 6),)) == 0


def test_canonical_test_counts():
    # counting recurrence: 1 + (sum over nonempty E' of |E'|) * previous
    assert [len(list(canonical_tests(["a"], d))) for d in range(5)] == [1, 2, 3, 4, 5]
    assert [len(list(canonical_tests(["a", "b"], d))) for d in range(5)] == [1, 5, 21, 85, 341]
    assert [str(x.term) for x in canonical_tests(["a"], 1)] == ["s", "<a,*1>.s"]
    # with no names s is the only test, and no empty level is walked
    assert [str(x) for x in canonical_tests([], 10**12)] == ["s"]


def test_canonical_tests_shapes():
    tests = canonical_tests(["a", "b"], 1)
    rendered = {str(x.term) for x in tests}
    assert "s" in rendered
    assert "<a,*1>.s + <b,*1>.<z,*1>.s" in rendered
    # every canonical test parses in the reactive grammar
    for x in canonical_tests(["a", "b"], 1):
        assert parse_test(str(x.term)).term == x.term


def test_canonical_tests_are_built_as_they_are_consumed(monkeypatch):
    made, tests_of = [], []
    state, test_of = testing.TestState, testing._test_of
    monkeypatch.setattr(testing, "TestState", lambda *args: made.append(args) or state(*args))
    monkeypatch.setattr(testing, "_test_of",
                        lambda *args: tests_of.append(args) or test_of(*args))
    built = _record_built_terms(monkeypatch)
    tests = canonical_tests(["a", "b"], 4)
    first = [next(tests) for _ in range(6)]
    # s, the four depth-1 tests, and the first depth-2 test: the state of
    # s and one new root for each of the other five, and no term yet
    assert len(made) == 6 and len(tests_of) == 5 and built == []
    assert [args[0] for args in tests_of] == [x.root for x in first[1:]]
    assert [str(x) for x in first] == [
        "s", "<a,*1>.s", "<b,*1>.s", "<a,*1>.s + <b,*1>.<z,*1>.s",
        "<a,*1>.<z,*1>.s + <b,*1>.s", "<a,*1>.<a,*1>.s"]
    # each new root once; the depth-2 test reuses its continuation's term
    assert built == [x.root for x in first[1:]]
    assert first[5].term.body is first[1].term
    # the terms are kept: reading them again builds none
    assert all(x.term is x.root.term for x in first) and len(built) == 5


def test_canonical_tests_reject_reserved_names():
    for names in (["a", "tau"], ["z"]):
        with pytest.raises(ReservedNameError):
            canonical_tests(names, 1)


def test_canonical_tests_reject_negative_depths():
    with pytest.raises(CalcError):
        canonical_tests(["a"], -1)
    assert [str(x) for x in canonical_tests(["a"], 0)] == ["s"]


def _digest(tests):
    return hashlib.sha1("\n".join(f"{x.flavor} {x}" for x in tests).encode()).hexdigest()[:12]


def test_flavored_tests_pin_the_liberal_and_tau_variants():
    base = list(canonical_tests(["a", "b"], 2))
    assert list(flavored_tests(base, "reactive")) == base
    liberal = list(flavored_tests(base, "liberal"))
    timed = list(flavored_tests(base, "tau"))
    assert (len(liberal), _digest(liberal)) == (75, "d8930b84f696")
    assert (len(timed), _digest(timed)) == (75, "4759c3df1e79")
    assert "liberal <a,*1>.s + <b,*1>.(<z,*1>.s + s)" in {f"{x.flavor} {x}" for x in liberal}
    # tests compare and hash by term and flavor
    assert liberal[0] == make_test(t.SUCCESS, "liberal") != base[0]
    assert hash(liberal[0]) == hash(make_test(t.SUCCESS, "liberal"))
    assert pickle.loads(pickle.dumps(base[-1])) == base[-1]
    with pytest.raises(ValueError):
        flavored_tests(base, "bogus")


def _shape(state):
    return (tuple((name, rate, _shape(body)) for name, rate, body in state.summands),
            state.successful, state.live)


def test_canonical_tests_index_only_their_new_root(monkeypatch):
    calls = []
    index = testing._index
    monkeypatch.setattr(testing, "_index", lambda *args: calls.append(args) or index(*args))
    tests = list(canonical_tests(["a", "b", "c"], 3))
    # s is indexed from its term; every other test is made from states
    assert len(calls) == 1 and len(tests) == 1885
    monkeypatch.undo()
    # the states are those a full index of each term finds, and the
    # term built from them prints as one that parses back to it
    for test in tests:
        assert _shape(test.root) == _shape(testing.Test(test.term, "reactive").root)
        assert parse_test(str(test)).term == test.term


def test_flavored_variants_are_made_from_states(monkeypatch):
    base = list(canonical_tests(["a", "b"], 2))
    for flavor in ("liberal", "tau"):
        calls = []
        index = testing._index
        monkeypatch.setattr(testing, "_index", lambda *args: calls.append(args) or index(*args))
        variants = list(flavored_tests(base, flavor))
        monkeypatch.undo()
        # a variant edits its base test's states and indexes no term
        assert calls == []
        full = [testing.Test(x.term, flavor) for x in variants]
        assert [_shape(x.root) for x in variants] == [_shape(x.root) for x in full]
    with pytest.raises(ValueError):
        list(flavored_tests(flavored_tests(base, "liberal"), "tau"))


_TERM_EDITS = {
    "liberal": lambda node: t.nest_right(t.summand_list(node) + [t.SUCCESS]),
    "tau": lambda node: t.Prefix(t.TAU, t.Rate(1), node),
}


def _term_variants(term, edit):
    # the variants read off the term: edit at one node at a time, in
    # pre-order over the nodes other than s reached through visible names
    # other than z, each path node rebuilt as a right-nested sum
    if isinstance(term, t.Success):
        return
    yield edit(term)
    parts = t.summand_list(term)
    for i, part in enumerate(parts):
        if isinstance(part, t.Prefix) and part.name != t.FAILURE_NAME:
            for body in _term_variants(part.body, edit):
                kept = parts[:i] + [t.Prefix(part.name, part.rate, body)] + parts[i + 1:]
                yield t.nest_right(kept)


@pytest.mark.parametrize("flavor", ["liberal", "tau"])
def test_flavored_variants_match_the_term_level_edit(flavor):
    # bases indexed from formula terms, unlike canonical ones, share the
    # states of equal subterms, s among them, so an edit at one occurrence
    # of a shared node must leave the others as they are; the last base
    # cannot succeed until a liberal edit puts s beside its z
    bases = [make_test(formula_test(f)) for f in enumerate_formulas(("a", "b"), 2)]
    for base in bases + [parse_test("<a,*1>.<z,*1>.s")]:
        variants = list(flavored_tests([base], flavor))
        expected = [base.term, *_term_variants(base.term, _TERM_EDITS[flavor])]
        assert [x.term for x in variants] == expected
        assert ([_shape(x.root) for x in variants]
                == [_shape(testing.Test(term, flavor).root) for term in expected])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_prob_pass_monotone_in_theta(seed):
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=12)
    tests = list(canonical_tests(["a", "b"], 2))
    test = tests[rng.randrange(len(tests))]
    theta = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(2))
    wider = tuple(v + Fraction(rng.randint(0, 3), 4) for v in theta)
    assert prob_pass(process, test, theta) <= prob_pass(process, test, wider)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_prob_pass_within_unit_interval(seed):
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=12)
    test = parse_test("<a,*1>.s + <b,*1>.<z,*1>.s")
    theta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 3)))
    value = prob_pass(process, test, theta)
    assert 0 <= value <= 1


def _term_level_prob_pass(process, test, theta):
    # the definition, read literally: successful computations of the
    # composed interaction term of length exactly |theta| within theta
    n = len(theta)
    return prob_set(filter_le_theta(
        filter_len(successful_computations(process, test, n), n), theta))


_REACTIVE = list(canonical_tests(["a", "b"], 2))
_TEST_FAMILIES = tuple(list(flavored_tests(_REACTIVE, flavor)) for flavor in testing.FLAVORS)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_prob_pass_matches_the_term_level_reference(seed):
    rng = Random(seed)
    process = random_term(rng, depth=3, max_states=8)
    while not any(tr.name == t.TAU for tr in build_lts(process).transitions()):
        process = random_term(rng, depth=3, max_states=8)
    family = rng.choice(_TEST_FAMILIES)
    test = family[rng.randrange(len(family))]
    theta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 4)))
    expected = _term_level_prob_pass(process, test, theta)
    assert prob_pass(process, test, theta) == expected
    measures = successful_measures(build_lts(process), test, len(theta))
    assert passing_probability(measures, theta) == expected


def _reaches_success(product, node):
    # breadth-first over the product's step branches, without the closure
    queue, seen = deque([(0, node)]), {(0, node)}
    while queue:
        state, node = queue.popleft()
        if node.successful:
            return True
        for _, state2, node2 in product.step(state, node)[1]:
            if (state2, node2) not in seen:
                seen.add((state2, node2))
                queue.append((state2, node2))
    return False


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([None, 1, 3]), st.sampled_from(_TEST_FAMILIES))
def test_can_succeed_matches_a_search_over_the_product(seed, loop, family):
    # one product is asked about every test of a family in turn, so its
    # memo is shared across tests, as in a witness search
    process = random_term(Random(seed), depth=3, max_states=8)
    if loop is not None:
        process = t.Rec("L", t.Choice(t.Prefix(t.TAU, t.Rate(loop), t.Var("L")), process))
    product = testing.InteractionProduct(build_lts(process))
    for test in family:
        expected = _reaches_success(product, test.root)
        # the search's skip question stores no answer for the root, whose
        # record the search above may have made for its steps
        passed, record = product.can_pass(test.root), product._records.get(test.root)
        assert passed == expected and (record is None or not record.reach)
        assert product.can_succeed(0, test.root) == expected


@pytest.mark.parametrize("theta", [(0,), (-1,)])
def test_prob_pass_refuses_bounds_that_are_not_positive(theta):
    # as eval_formula does, with the same error
    process, test = parse_term("<a,1>.0"), parse_test("<a,*1>.s")
    with pytest.raises(ValueError) as formula_error:
        eval_formula(process, theta, parse_formula("<a>true"))
    with pytest.raises(ValueError) as test_error:
        prob_pass(process, test, theta)
    assert (type(test_error.value), str(test_error.value)) == (
        type(formula_error.value), str(formula_error.value))


def test_prob_pass_long_theta_on_tau_loops():
    # 3^20 computations of length 20; the forward pass keeps one product state
    theta = (Fraction(1, 6),) * 20
    loop = parse_term("rec X : <tau,1>.X + <tau,2>.X + <tau,3>.X")
    success = parse_test("s")
    measures = successful_measures(build_lts(loop), success, len(theta))
    assert prob_pass(loop, success, theta) == passing_probability(measures, theta) == 1
    slower = theta[:-1] + (Fraction(1, 7),)
    assert prob_pass(loop, success, slower) == passing_probability(measures, slower) == 0
    # exit rate 6 before the test takes a and 4 after, when a is blocked
    visible = parse_term("rec X : <tau,1>.X + <a,2>.X + <tau,3>.X")
    guard = parse_test("<a,*1>.s")
    measures = successful_measures(build_lts(visible), guard, len(theta))
    for bound, expected in ((Fraction(1, 6), Fraction(2, 3) ** 19 / 3),
                            (Fraction(1, 4), 1 - Fraction(2, 3) ** 20)):
        theta = (bound,) * 20
        assert prob_pass(visible, guard, theta) == passing_probability(measures, theta) == expected
