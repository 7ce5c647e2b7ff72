from __future__ import annotations

import gc
from random import Random

from mpcalc import terms as t
from mpcalc.axioms import LAW_IDS, RewriteStep, apply_law
from mpcalc.corpus import (a4_instance, a4_violation, chain_pair, chain_term,
                           deadlock_free_term, law_instance, random_pair,
                           random_pairs, random_term, sound_steps)
from mpcalc.decider import decide_equiv
from mpcalc.semantics import build_lts


def test_same_seed_reproduces_the_corpus():
    one = [str(random_term(Random(17), depth=3)) for _ in range(5)]
    two = [str(random_term(Random(17), depth=3)) for _ in range(5)]
    assert one == two
    pairs_a = random_pairs(Random(18), 10)
    pairs_b = random_pairs(Random(18), 10)
    assert [(str(p.left), str(p.right), p.kind) for p in pairs_a] == \
        [(str(p.left), str(p.right), p.kind) for p in pairs_b]


def test_random_term_contract():
    rng = Random(19)
    for _ in range(40):
        term = random_term(rng, names=("a", "b"), depth=3, max_states=8)
        wf = t.check_wellformed(term)
        assert wf.closed and wf.guarded
        lts = build_lts(term, state_bound=8)
        assert lts.performance_closed
        assert len(lts.states) <= 8
        assert t.visible_names(term) <= {"a", "b"}


def test_tau_free_generation():
    rng = Random(20)
    for _ in range(30):
        term = random_term(rng, depth=3, tau=False)
        assert all(prefix.name != t.TAU for prefix in t.subterms(term)
                   if isinstance(prefix, t.Prefix))
        # hiding must not turn a visible move into an internal one either
        assert all(tr.name != t.TAU for tr in build_lts(term).transitions()), str(term)


def test_pair_kinds():
    rng = Random(21)
    pairs = random_pairs(rng, 60)
    kinds = {p.kind for p in pairs}
    assert kinds == {"random", "law", "perturbed"}
    for pair in pairs:
        if pair.kind == "law":
            assert apply_law(pair.left, pair.step) == pair.right
            assert decide_equiv(pair.left, pair.right).equivalent


def test_sound_steps_apply_everywhere():
    rng = Random(22)
    for _ in range(20):
        term = random_term(rng, depth=3)
        for step in sound_steps(term):
            apply_law(term, step)  # must not raise


def test_law_instances_have_root_redexes():
    rng = Random(23)
    for law in LAW_IDS:
        instance, step = law_instance(rng, law)
        assert step.law == law and step.position == ()
        apply_law(instance, step)


def test_a4_samples():
    rng = Random(24)
    for _ in range(5):
        instance = a4_instance(rng)
        merged = apply_law(instance, RewriteStep("A4"))
        assert decide_equiv(instance, merged).equivalent
    for _ in range(5):
        lhs, rhs = a4_violation(rng)
        assert not decide_equiv(lhs, rhs).equivalent


def test_deadlock_free_horizon():
    rng = Random(25)
    for _ in range(10):
        term = deadlock_free_term(rng, horizon=5)
        lts = build_lts(term, state_bound=24)
        frontier = {lts.state_of(lts.root)}
        for _ in range(5):
            assert all(lts.outgoing[state] for state in frontier)
            frontier = {lts.state_of(tr.target)
                        for state in frontier for tr in lts.outgoing[state]}


def test_draws_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            random_term(Random(27), depth=4)
        assert gc.collect() == 0
        for _ in range(10):
            deadlock_free_term(Random(28))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chain_generators():
    rng = Random(26)
    chain = chain_term(rng, length=50)
    assert len(build_lts(chain).states) == 51
    left, right = chain_pair(rng, length=20, equivalent=True)
    assert decide_equiv(left, right).equivalent
    left, right = chain_pair(rng, length=20, equivalent=False)
    assert not decide_equiv(left, right).equivalent
