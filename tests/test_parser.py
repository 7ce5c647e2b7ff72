from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mpcalc import mlogic, terms as t
from mpcalc.corpus import random_term
from mpcalc.errors import ParseError, RateValueError, ReservedNameError
from mpcalc.parser import parse_formula, parse_term, parse_test_body
from mpcalc.semantics import build_lts


def test_prefix_rates_and_weights():
    term = parse_term("<a,3/2>.<b,*2>.0")
    assert term == t.Prefix("a", t.Rate(Fraction(3, 2)),
                            t.Prefix("b", t.Rate(2, passive=True), t.NIL))


def test_decimal_rates_are_exact():
    term = parse_term("<a,0.3>.0")
    assert term.rate.value == Fraction(3, 10)


def test_precedence_choice_weakest():
    term = parse_term("<a,1>.0 + <b,1>.0 |[b]| 0")
    assert isinstance(term, t.Choice)
    assert isinstance(term.right, t.Parallel)


# Each row reads source as the explicitly parenthesized reading beside it.
@pytest.mark.parametrize("source, reading", [
    ("<a,1>.rec X : <b,1>.X + <c,1>.0", "<a,1>.(rec X : (<b,1>.X + <c,1>.0))"),
    ("<c,1>.0 + rec X : <b,1>.X + <c,1>.X", "<c,1>.0 + (rec X : (<b,1>.X + <c,1>.X))"),
    ("<c,1>.0 |[]| rec X : <b,1>.X + <c,1>.0", "<c,1>.0 |[]| (rec X : (<b,1>.X + <c,1>.0))"),
    ("rec X : <a,1>.X / {a}", "rec X : ((<a,1>.X) / {a})"),
    ("rec X : <a,1>.X[a->b] |[b]| <b,*1>.0", "rec X : (((<a,1>.X)[a->b]) |[b]| <b,*1>.0)"),
    ("<a,1>.0 / {a} |[]| <b,1>.0", "((<a,1>.0) / {a}) |[]| <b,1>.0"),
    ("<a,1>.0 |[]| <b,1>.0 |[a]| <a,*1>.0", "<a,1>.0 |[]| (<b,1>.0 |[a]| <a,*1>.0)"),
    ("<a,1>.0 + <b,1>.0 + <c,1>.0", "<a,1>.0 + (<b,1>.0 + <c,1>.0)"),
    pytest.param("(" * 500 + "<a,1>.0" + ")" * 500, "<a,1>.0", id="500 parentheses"),
])
def test_binding_strength(source, reading):
    assert parse_term(source) == parse_term(reading)


def test_static_operators():
    term = parse_term("(<a,1>.0 / {a})[b->c]")
    assert isinstance(term, t.Relabel)
    assert isinstance(term.body, t.Hide)
    assert term.mapping == (("b", "c"),)


def test_conflicting_relabeling_is_a_parse_error():
    assert parse_term("<a,1>.0[a->b,a->b]").mapping == (("a", "b"),)
    with pytest.raises(ParseError, match=r"a is relabeled to both b and c at 1:14"):
        parse_term("<a,1>.0[a->b,a->c]")


def test_recursion_syntax():
    term = parse_term("rec X : <a,1>.X")
    assert isinstance(term, t.Rec)
    # alpha normalization happens at parse time
    assert parse_term("rec Y : <a,1>.Y") == term


def test_parse_errors():
    with pytest.raises(RateValueError):
        parse_term("<a,0>.0")
    for bad in ("<a,-1>.0", "<a,1>.", "0 +", "<a,1>0", "(", "rec X <a,1>.X"):
        with pytest.raises(ParseError):
            parse_term(bad)
    with pytest.raises(ReservedNameError):
        parse_term("<z,1>.0")


@pytest.mark.parametrize("parse, source, error, message, line, column", [
    (parse_term, "<a,1>.0 +\n\t#", ParseError, "unexpected character '#'", 2, 2),
    (parse_term, "<a,1>.0\t$", ParseError, "unexpected character '$'", 1, 9),
    (parse_term, "<a,1>.0 +\n\t<b,1> 0", ParseError, "expected '.' (found '0')", 2, 8),
    (parse_term, "<a,1>.0 +\r\n\t(<b,1>.0", ParseError,
     "expected ')' (found 'end of input')", 2, 10),
    (parse_term, "", ParseError, "expected a term (found 'end of input')", 1, 1),
    (parse_term, "<a,1>.\n", ParseError, "expected a term (found 'end of input')", 2, 1),
    (parse_term, "<a,1>.0 +\r\n", ParseError, "expected a term (found 'end of input')", 2, 1),
    (parse_term, "   \n  ", ParseError, "expected a term (found 'end of input')", 2, 3),
    (parse_term, "<a,1>.0 +\r\n <b,1/0>.0", RateValueError, "zero denominator", 2, 5),
    (parse_term, "<a,1>.0 +\n  <b,0>.0", RateValueError, "rate must be positive, got 0", 2, 6),
    (parse_term, "<a,1>.0 +\n\t<b,*0/3>.0", RateValueError, "rate must be positive, got 0",
     2, 5),
    (parse_term, "<a,1>.0\n\t[a->b,\r\n  a->c]", ParseError,
     "a is relabeled to both b and c", 3, 3),
    (parse_test_body, "<a,*1>.s +\n\t<b,*1>. ", ParseError,
     "expected a term (found 'end of input')", 2, 10),
    (parse_formula, "<a>\ttrue\n)", ParseError, "trailing input (found ')')", 2, 1),
    (parse_term, "0 0", ParseError, "trailing input (found '0')", 1, 3),
    # an error about tau points at the name, not at the token after it
    (parse_term, "<a,1>.0 / {tau}", ParseError, "tau may not appear in a name set", 1, 12),
    (parse_term, "<a,1>.0 |[tau]| 0", ParseError, "tau may not appear in a name set", 1, 11),
    (parse_term, "<a,1>.0[tau->a]", ParseError, "relabeling must keep tau fixed", 1, 9),
    (parse_term, "<a,1>.0[a->tau]", ParseError, "relabeling must keep tau fixed", 1, 12),
    (parse_formula, "<tau>true", ParseError, "diamond names must be visible", 1, 2),
    # digits and whitespace are ASCII only
    (parse_term, "<a,\u0661>.0", ParseError, "unexpected character '\u0661'", 1, 4),
    (parse_term, "<a,1>.0\xa0+ 0", ParseError, "unexpected character '\\xa0'", 1, 8),
])
def test_parse_error_positions(parse, source, error, message, line, column):
    # columns count characters from 1, a tab or a carriage return as one
    with pytest.raises(error) as caught:
        parse(source)
    assert type(caught.value) is error
    assert (caught.value.line, caught.value.column) == (line, column)
    assert str(caught.value) == f"{message} at {line}:{column}"


def test_passive_tau_parses_but_is_never_performance_closed():
    # The grammar does not restrict which actions may be passive.
    term = parse_term("<tau,*1>.0")
    assert term == t.Prefix("tau", t.Rate(1, passive=True), t.NIL)
    lts = build_lts(term)
    assert not lts.performance_closed


def test_success_symbol_only_in_test_mode():
    # plain terms read `s` as a (free) variable, tests read it as success
    assert parse_term("s") == t.Var("s")
    body = parse_test_body("<a,*1>.s")
    assert body == t.Prefix("a", t.Rate(1, passive=True), t.SUCCESS)
    assert parse_test_body("s") is t.SUCCESS


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_pretty_parse_roundtrip(seed):
    term = random_term(Random(seed), depth=4, max_states=40)
    assert parse_term(str(term)) == term


def test_formula_parsing():
    assert parse_formula("true") is mlogic.TRUE
    assert parse_formula("<a>true") == mlogic.Diamond("a", mlogic.TRUE)
    nested = parse_formula("<a>true \\/ <b><a>true")
    assert nested == mlogic.Or(mlogic.Diamond("a", mlogic.TRUE),
                               mlogic.Diamond("b", mlogic.Diamond("a", mlogic.TRUE)))
    # \/ is right-associative over three disjuncts
    three = parse_formula("<a>true \\/ <b>true \\/ <c>true")
    assert isinstance(three.right, mlogic.Or)


def test_formula_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("<tau>true")
    with pytest.raises(Exception):
        parse_formula("true \\/ <a>true")  # true is never a disjunct
    with pytest.raises(Exception):
        parse_formula("<a>true \\/ <a>true")  # overlapping init sets


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_formula_roundtrip(seed):
    rng = Random(seed)
    formulas = mlogic.enumerate_formulas(["a", "b"], 2)
    formula = rng.choice(formulas)
    assert parse_formula(str(formula)) == formula
