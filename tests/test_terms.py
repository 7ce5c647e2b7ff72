from __future__ import annotations

import dataclasses as d
from fractions import Fraction
from random import Random

import pytest

from mpcalc import terms as t
from mpcalc.corpus import random_term
from mpcalc.errors import NotWellFormed, ReservedNameError
from mpcalc.parser import parse_term
from mpcalc.semantics import derive_transitions


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        t.Rate(0)
    with pytest.raises(ValueError):
        t.Rate(Fraction(-1, 2))


def test_rate_printing():
    assert str(t.Rate(Fraction(3, 2))) == "3/2"
    assert str(t.Rate(2, passive=True)) == "*2"


def test_pretty_respects_precedence():
    inner = t.Choice(t.Prefix("a", t.Rate(1), t.NIL),
                     t.Prefix("b", t.Rate(2), t.NIL))
    term = t.Prefix("c", t.Rate(1), inner)
    assert str(term) == "<c,1>.(<a,1>.0 + <b,2>.0)"
    par = t.Parallel(frozenset({"a"}), inner, t.NIL)
    assert str(par) == "(<a,1>.0 + <b,2>.0) |[a]| 0"


def test_relabel_canonicalizes_mapping():
    r1 = t.Relabel((("a", "b"), ("c", "c")), t.NIL)
    r2 = t.Relabel((("a", "b"),), t.NIL)
    assert r1 == r2
    with pytest.raises(ValueError):
        t.Relabel((("tau", "a"),), t.NIL)
    with pytest.raises(ValueError):
        t.Relabel((("a", "b"), ("a", "c")), t.NIL)


def test_wellformedness_flags():
    closed = t.Prefix("a", t.Rate(1), t.NIL)
    wf = t.check_wellformed(closed)
    assert wf.closed and wf.guarded

    open_term = t.Var("X")
    assert not t.check_wellformed(open_term).closed

    unguarded = t.Rec("X", t.Choice(t.Var("X"), t.NIL))
    assert not t.check_wellformed(unguarded).guarded
    with pytest.raises(NotWellFormed, match="^unguarded recursion on X$"):
        derive_transitions(unguarded)

    guarded_loop = t.Rec("X", t.Prefix("a", t.Rate(1), t.Var("X")))
    wf = t.check_wellformed(guarded_loop)
    assert wf.closed and wf.guarded


def test_require_analyzable_reserves_failure_name():
    bad = t.Prefix(t.FAILURE_NAME, t.Rate(1), t.NIL)
    with pytest.raises(Exception):
        t.require_analyzable(bad)
    t.require_analyzable(bad, allow_failure_name=True)


def _reference_require_analyzable(term, allow_failure_name):
    """require_analyzable as three walks: closedness, guardedness, z."""
    wf = t.check_wellformed(term)
    if not wf.closed:
        return NotWellFormed, f"term has free variables {sorted(t.free_vars(term))}"
    if not wf.guarded:
        return NotWellFormed, "unguarded recursion"
    if t.uses_failure_name(term) and not allow_failure_name:
        return ReservedNameError, "name 'z' is reserved for tests"
    return None


def _raised(term, allow_failure_name):
    try:
        t.require_analyzable(term, allow_failure_name=allow_failure_name)
    except (NotWellFormed, ReservedNameError) as error:
        return type(error), str(error)
    return None


def test_require_analyzable_raises_the_first_of_its_errors_in_one_walk():
    x, y = t.Var("X"), t.Var("Y")

    def a(body):
        return t.Prefix("a", t.Rate(1), body)

    def z(body):
        return t.Prefix("z", t.Rate(1), body)

    terms = [
        x, t.Rec("X", x), t.Rec("X", a(x)), t.Rec("X", t.Choice(x, y)),
        t.Choice(z(t.NIL), y), t.Rec("X", t.Choice(z(t.NIL), x)),
        t.Rec("X", t.Rec("Y", t.Choice(a(x), y))), t.Rec("X", t.Rec("X", a(x))),
        t.Rec("X", t.Choice(t.Rec("X", x), a(x))), t.Choice(t.Rec("Y", a(y)), t.Choice(y, x)),
        t.Hide(frozenset({"z"}), t.NIL), t.Parallel(frozenset({"z"}), a(t.NIL), t.NIL),
        t.Relabel((("b", "z"),), t.NIL), t.Rec("X", t.Hide(frozenset({"b"}), a(x))),
    ]
    rng = Random(6)
    terms += [random_term(rng, names=("a", "z"), depth=4, max_states=20) for _ in range(50)]
    outcomes = set()
    for term in terms:
        for allow in (False, True):
            outcome = _raised(term, allow)
            assert outcome == _reference_require_analyzable(term, allow)
            outcomes.add(outcome and outcome[1])
    assert {None, "unguarded recursion", "name 'z' is reserved for tests"} <= outcomes
    chain = t.Prefix("z", t.Rate(1), t.NIL)
    for i in range(5000):
        chain = t.Prefix("ab"[i % 2], t.Rate(1), chain)
    assert _raised(chain, False) == (ReservedNameError, "name 'z' is reserved for tests")


def test_alpha_normalize_identifies_bound_renamings():
    one = t.Rec("X", t.Prefix("a", t.Rate(1), t.Var("X")))
    two = t.Rec("Y", t.Prefix("a", t.Rate(1), t.Var("Y")))
    assert t.alpha_normalize(one) == t.alpha_normalize(two)


def test_alpha_normalize_keeps_what_it_does_not_rename():
    a_loop = t.Prefix("a", t.Rate(1), t.Var("X1"))
    for term in (t.Choice(t.Prefix("b", t.Rate(2), t.NIL), t.NIL),
                 t.Rec("X1", t.Choice(a_loop, t.Rec("X2", t.Prefix("b", t.Rate(1), t.Var("X2")))))):
        assert t.alpha_normalize(term) is term
    binder_free = t.Prefix("b", t.Rate(2), t.NIL)
    renamed = t.alpha_normalize(t.Choice(binder_free, t.Rec("Y", t.Prefix("a", t.Rate(1), t.Var("Y")))))
    assert renamed == t.Choice(binder_free, t.Rec("X1", a_loop))
    assert renamed.left is binder_free


def test_alpha_normalize_steps_around_free_names():
    # a free X1 pushes the binder to X1_, even one already named X1
    term = t.Choice(t.Var("X1"), t.Rec("X1", t.Prefix("a", t.Rate(1), t.Var("X1"))))
    assert t.alpha_normalize(term) == t.Choice(
        t.Var("X1"), t.Rec("X1_", t.Prefix("a", t.Rate(1), t.Var("X1_"))))


def test_alpha_equivalent_terms_parse_equal():
    assert parse_term("rec Y : <a,1>.Y + rec Z : <b,1>.Z") == parse_term(
        "rec X : <a,1>.X + rec X : <b,1>.X")
    nested = parse_term("rec P : <a,1>.rec Q : <b,1>.(P + Q)")
    assert nested == parse_term("rec A : <a,1>.rec B : <b,1>.(A + B)")
    assert nested == t.Rec("X1", t.Prefix("a", t.Rate(1), t.Rec("X2", t.Prefix(
        "b", t.Rate(1), t.Choice(t.Var("X1"), t.Var("X2"))))))


def test_substitute_closed_replacement():
    # Replacements are closed (recursion unfolding), so capture cannot arise.
    loop = t.Rec("X", t.Prefix("a", t.Rate(1), t.Var("X")))
    opened = t.Prefix("a", t.Rate(1), t.Var("X"))
    assert t.substitute(opened, "X", loop) == t.Prefix("a", t.Rate(1), loop)
    # Binders for the same variable shadow: nothing changes inside.
    assert t.substitute(loop, "X", t.NIL) == loop
    # Other variables pass through untouched.
    other = t.Prefix("b", t.Rate(2), t.Var("Y"))
    assert t.substitute(other, "X", loop) == other


def test_children_and_subterms():
    term = t.Hide(frozenset({"a"}),
                  t.Choice(t.Prefix("a", t.Rate(1), t.NIL), t.SUCCESS))
    kids = t.children(term)
    assert len(kids) == 1 and isinstance(kids[0], t.Choice)
    assert t.NIL in list(t.subterms(term))
    assert t.SUCCESS in list(t.subterms(term))


def _recursive_subterms(term):
    yield term
    for child in t.children(term):
        yield from _recursive_subterms(child)


def test_subterms_walk_in_preorder_at_any_depth():
    # error messages report the first offending subterm, so the order is kept
    rng = Random(5)
    for _ in range(200):
        term = random_term(rng, names=("a", "b", "c"), depth=4, max_states=20)
        assert list(t.subterms(term)) == list(_recursive_subterms(term))
    chain = t.NIL
    for i in range(5000):
        chain = t.Prefix("ab"[i % 2], t.Rate(1), chain)
    assert t.visible_names(chain) == {"a", "b"}


def test_term_hash_is_the_hash_of_the_class_name_and_fields():
    # terms cache their hash; its value is the one a fields walk gives
    body = t.Prefix("a", t.Rate(2), t.SUCCESS)
    terms = [t.NIL, t.SUCCESS, t.Var("X"), body, t.Choice(body, t.NIL),
             t.Parallel({"a"}, body, t.NIL), t.Hide({"a"}, body),
             t.Relabel((("a", "b"),), body), t.Rec("X", t.Prefix("b", t.Rate(1), t.Var("X")))]
    for term in terms:
        fields = tuple(getattr(term, f.name) for f in d.fields(term))
        assert hash(term) == hash((type(term).__name__, fields))
