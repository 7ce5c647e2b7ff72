from __future__ import annotations

import json
from fractions import Fraction
from random import Random

import pytest

from mpcalc import terms as t
from mpcalc.axioms import RewriteStep, apply_law
from mpcalc.cli import main
from mpcalc.errors import StateBoundExceeded
from mpcalc.parser import parse_term
from mpcalc.corpus import deadlock_free_term, random_pairs, random_term
from mpcalc.semantics import Transition, build_lts, derive_transitions, export_dot, export_json


def _entries(source, law=None):
    """The transitions of source, or with a law of A5-A8 those of its
    rewrite, whose prefix summands are the moves the law computed."""
    term = parse_term(source)
    if law is not None:
        term = apply_law(term, RewriteStep(law))
    return {(name, str(rate), str(target)): count
            for (name, rate, target), count in derive_transitions(term)}


def test_multiplicity_counts_derivation_proofs():
    assert _entries("<a,1>.0 + <a,1>.0") == {("a", "1", "0"): 2}
    assert _entries("<a,1>.0 + <a,2>.0") == {("a", "1", "0"): 1, ("a", "2", "0"): 1}


def test_race_between_distinct_actions():
    assert _entries("<a,1>.0 + <b,2>.<a,1>.0") == {
        ("a", "1", "0"): 1,
        ("b", "2", "<a,1>.0"): 1,
    }


def test_interleaving_keeps_parallel_context():
    source = "<a,1>.0 |[]| <b,2>.0"
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "1", "0 |[]| <b,2>.0"): 1,
        ("b", "2", "<a,1>.0 |[]| 0"): 1,
    }


# The rates below are computed by hand; the expansion law A5 must carry
# the same literal rates as the transition rules.

def test_generative_reactive_synchronization():
    # exp <a,3> against two passive branches *1 and *2: rate splits 3*w/W
    source = "<a,3>.0 |[a]| (<a,*1>.0 + <a,*2>.0)"
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "1", "0 |[a]| 0"): 1,
        ("a", "2", "0 |[a]| 0"): 1,
    }


def test_reactive_generative_synchronization():
    # the mirror image: passive *1 and *2 on the left, W = 3, against <a,3>
    source = "(<a,*1>.0 + <a,*2>.<b,1>.0) |[a]| <a,3>.0"
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "1", "0 |[a]| 0"): 1,
        ("a", "2", "<b,1>.0 |[a]| 0"): 1,
    }


def test_reactive_reactive_normalization():
    # norm(v,w) = (v/W_P)(w/W_Q)(W_P + W_Q) stays passive
    # norm(1,2) = (1/4)(2/2)(4+2) = 3/2, norm(3,2) = (3/4)(2/2)(6) = 9/2
    source = "(<a,*1>.0 + <a,*3>.0) |[a]| <a,*2>.0"
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "*3/2", "0 |[a]| 0"): 1,
        ("a", "*9/2", "0 |[a]| 0"): 1,
    }


def test_two_sync_names_split_by_their_own_weights():
    # a: W = 1 + 3 on the right, 2*1/4 and 2*3/4; b: W = 1 + 3 on the left
    source = ("(<a,2>.0 + <b,*1>.0 + <b,*3>.<c,1>.0) |[a,b]|"
              " (<a,*1>.0 + <a,*3>.<c,1>.0 + <b,4>.0)")
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "1/2", "0 |[a,b]| 0"): 1,
        ("a", "3/2", "0 |[a,b]| <c,1>.0"): 1,
        ("b", "1", "0 |[a,b]| 0"): 1,
        ("b", "3", "<c,1>.0 |[a,b]| 0"): 1,
    }


def test_timed_and_passive_summands_on_both_sides():
    # W_P = 1, W_Q = 2; <a,2> takes *2 at 2*2/2, <a,3> takes *1 at 3*1/1,
    # *1 and *2 give norm(1,2) = (1/1)(2/2)(1+2) = 3, and <a,2>, <a,3>
    # never meet
    source = "(<a,2>.<b,1>.0 + <a,*1>.0) |[a]| (<a,3>.0 + <a,*2>.<c,1>.0)"
    assert _entries(source) == _entries(source, "A5") == {
        ("a", "2", "<b,1>.0 |[a]| <c,1>.0"): 1,
        ("a", "3", "0 |[a]| 0"): 1,
        ("a", "*3", "0 |[a]| <c,1>.0"): 1,
    }


def test_synchronization_counts_multiplicity():
    # each copy of <a,1> takes *2 (W = 2) at 1*2/2; <a,2> splits over the
    # two copies of *1 (W = 2) at 2*1/2 each
    for source in ("(<a,1>.0 + <a,1>.0) |[a]| <a,*2>.0",
                   "<a,2>.0 |[a]| (<a,*1>.0 + <a,*1>.0)"):
        assert _entries(source) == _entries(source, "A5") == {("a", "1", "0 |[a]| 0"): 2}


def test_blocked_synchronization_has_no_transition():
    # b is outside the sync set, so the passive b moves on its own
    source = "<a,3>.0 |[a]| <b,*1>.0"
    assert _entries(source) == _entries(source, "A5") == {
        ("b", "*1", "<a,3>.0 |[a]| 0"): 1,
    }
    # passive alone cannot move inside the sync set
    assert _entries("<a,*1>.0 |[a]| 0") == _entries("<a,*1>.0 |[a]| 0", "A6") == {}


def test_hiding_renames_to_tau_and_keeps_rate():
    assert _entries("<a,3>.<b,1>.0 / {a}") == {("tau", "3", "<b,1>.0 / {a}"): 1}
    assert _entries("<b,1>.0 / {a}") == {("b", "1", "0 / {a}"): 1}


def test_relabeling_applies_mapping():
    assert _entries("<a,2>.0[a->b]") == {("b", "2", "0[a->b]"): 1}
    assert _entries("<tau,2>.0[a->b]") == {("tau", "2", "0[a->b]"): 1}


def test_recursion_unfolds_once_per_step():
    term = parse_term("rec X : <a,1>.X")
    lts = build_lts(term)
    assert len(lts.states) == 1
    (tr,) = list(lts.transitions())
    assert tr.name == "a" and tr.multiplicity == 1


def test_lts_aggregates_and_bounds():
    lts = build_lts(parse_term("<a,1>.0 + <a,1>.0"))
    (tr,) = list(lts.transitions())
    assert tr.multiplicity == 2 and tr.aggregate == 2
    with pytest.raises(StateBoundExceeded):
        build_lts(parse_term("<a,1>.<b,1>.<a,1>.0"), state_bound=2)


def _reference_build(term):
    """Reference: the breadth-first build that alpha-normalizes every
    state and makes each Transition as it goes."""
    root = t.alpha_normalize(term)
    states, index, outgoing = [root], {root: 0}, []
    for state in states:  # grows as it is read: breadth-first
        group = []
        for (name, rate, target), count in derive_transitions(state):
            target = t.alpha_normalize(target)
            if target not in index:
                index[target] = len(states)
                states.append(target)
            group.append(Transition(state, name, rate, target, count))
        outgoing.append(group)
    moves = [tuple((tr.name, tr.aggregate, index[tr.target]) for tr in group)
             for group in outgoing]
    return states, index, moves, outgoing


def _binder_sample():
    """Corpus terms with and without rec binders, built without the
    parser, so binders keep the names the generator gave them."""
    rng = Random(41)
    terms = [deadlock_free_term(rng) for _ in range(30)]
    terms += [side for sample in random_pairs(rng, 30, depth=3, max_states=10)
              for side in (sample.left, sample.right)]
    loop = t.Rec("Y", t.Prefix("b", t.Rate(Fraction(1, 2)), t.Var("Y")))
    twice = t.Choice(t.Prefix("a", t.Rate(1), t.NIL), t.Prefix("a", t.Rate(1), t.NIL))
    terms.append(t.Parallel(frozenset("a"), twice, t.Prefix("a", t.Rate.weight(2), loop)))
    # nested and shadowed binders under hiding, relabeling and parallel
    x, y = t.Var("X"), t.Var("Y")
    shadowed = t.Rec("X", t.Prefix("a", t.Rate(1), t.Rec("X", t.Prefix("b", t.Rate(1), x))))
    nested = t.Rec("X", t.Prefix("a", t.Rate(1), t.Rec("Y", t.Choice(
        t.Prefix("b", t.Rate(2), x), t.Prefix("c", t.Rate(3), y)))))
    terms += [shadowed, t.Hide(frozenset("a"), nested), t.Relabel((("b", "c"),), shadowed),
              t.Parallel(frozenset("b"), nested, t.Hide(frozenset("c"), shadowed)),
              t.Rec("Y", t.Prefix("d", t.Rate(1), t.Parallel(frozenset(), nested, shadowed)))]
    return terms


def test_build_lts_matches_a_build_that_normalizes_every_state():
    kinds = set()
    for term in _binder_sample():
        lts = build_lts(term)
        states, index, moves, outgoing = _reference_build(term)
        assert lts.states == states and lts.index == index
        assert lts.moves == moves and lts.outgoing == outgoing
        assert list(lts.transitions()) == [tr for group in outgoing for tr in group]
        # each target of an alpha-normal closed term is alpha-normal
        for state in lts.states:
            for (_, _, target), _ in derive_transitions(state):
                assert t.alpha_normalize(target) is target
        kinds.add(any(isinstance(node, t.Rec) for node in t.subterms(term)))
    assert kinds == {True, False}


def test_build_lts_of_a_binder_free_root_normalizes_nothing(monkeypatch):
    calls = []
    normalize = t.alpha_normalize
    monkeypatch.setattr(t, "alpha_normalize", lambda term: calls.append(term) or normalize(term))
    lts = build_lts(parse_term("(<a,7/5>.<b,1>.0 + <c,2>.0) |[b]| <b,*3>.<d,5/3>.0"))
    assert len(lts.states) == 5 and calls == []
    # a root with a binder is normalized on every build, and each unfolding
    # once, when derive_transitions first derives its binder
    derive_transitions.cache_clear()
    root = t.Rec("W", t.Prefix("e", t.Rate(Fraction(9, 7)), t.Prefix(
        "f", t.Rate(1), t.Var("W"))))
    for count in (2, 1):
        calls.clear()
        lts = build_lts(root)
        assert len(lts.states) == 2 and len(calls) == count
    assert str(lts.root) == "rec X1 : <e,9/7>.<f,1>.X1"
    x = t.Var("X")
    growing = t.Rec("X", t.Prefix("a", t.Rate(1), t.Parallel(frozenset(), x, x)))
    for count in (2, 1):
        calls.clear()
        with pytest.raises(StateBoundExceeded):
            build_lts(growing)
        assert len(calls) == count


def test_performance_closed_detection():
    assert build_lts(parse_term("<a,1>.0")).performance_closed
    assert not build_lts(parse_term("<a,*1>.0")).performance_closed
    # passive inside a closing synchronization is fine
    assert build_lts(parse_term("<a,3>.0 |[a]| <a,*1>.0")).performance_closed


def test_export_json_shape():
    lts = build_lts(parse_term("<a,1>.0 + <a,1>.0"))
    doc = export_json(lts, annotate_rates=True)
    assert doc["states"][0] == "<a,1>.0 + <a,1>.0"
    (edge,) = doc["transitions"]
    assert edge == {"src": 0, "name": "a", "rate": {"kind": "exp", "num": 1, "den": 1},
                    "tgt": 1, "mult": 2}
    assert doc["rates"][0]["rate_t"] == {"num": 2, "den": 1}
    assert doc["rates"][1]["sojourn"] == "inf"
    json.dumps(doc)


def test_export_dot_labels():
    text = export_dot(build_lts(parse_term("<a,1>.0 + <a,1>.0")))
    assert text.startswith("digraph")
    assert '"a, 1 [x2]"' in text


def test_every_rendering_agrees_with_the_transition_view(capsys):
    rng = Random(23)
    terms = [random_term(rng, depth=3, max_states=12) for _ in range(30)]
    terms += [parse_term(source) for source in (
        "(<a,1>.0 + <a,1>.0) |[a]| <a,*2>.rec X : <b,1/2>.X",
        "rec X : <a,1>.(<b,2>.X + <b,2>.X) + <tau,3>.0",
        "<a,*1>.<b,2>.0 + <c,1>.0")]
    for term in terms:
        lts = build_lts(term)
        edges = [(lts.index[tr.source], tr.name, tr.rate, lts.index[tr.target], tr.multiplicity)
                 for tr in lts.transitions()]
        assert export_json(lts)["transitions"] == [
            {"src": i, "name": name,
             "rate": {"kind": "passive" if rate.passive else "exp",
                      "num": rate.value.numerator, "den": rate.value.denominator},
             "tgt": j, "mult": count}
            for i, name, rate, j, count in edges]
        marks = [(i, name, rate, f" [x{count}]" if count > 1 else "", j)
                 for i, name, rate, j, count in edges]
        assert [line for line in export_dot(lts).splitlines() if " -> " in line] == [
            f'  n{i} -> n{j} [label="{name}, {rate}{mult}"];' for i, name, rate, mult, j in marks]
        assert main(["lts", str(term)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"states: {len(lts.states)}"] + [
            f"{'*' if lts.index[state] == 0 else ' '} {lts.index[state]}: {state}"
            for state in lts.states] + [
            f"  {i} --{name},{rate}{mult}--> {j}" for i, name, rate, mult, j in marks]
    assert {tr.multiplicity > 1 for term in terms for tr in build_lts(term).transitions()} == {
        True, False}
