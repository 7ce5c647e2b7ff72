"""Bounded testing-equivalence oracle.

Verdicts are computed from first principles: enumerate tests, run each
against both processes, and compare passing probabilities at every bound
sequence.  For a fixed test and computation length, the passing
probability as a function of theta is a monotone step function whose
jumps sit exactly at the stepwise sojourn-time vectors of successful
computations, so equality for all theta holds iff the signed probability
mass agrees vector by vector; a strict inequality at any minimal
differing vector yields a concrete witness theta.

Successful computations are grouped over testing.InteractionProduct,
the product of the process LMTS with the test's syntax tree that
prob_pass also runs on, instead of composing interaction terms.  The
slower term-level route in the testing module is kept as the reference
and the two are cross-checked in the test suite.

_search is the one test loop.  search_witness runs it with the least
differing vector as its comparison, old_style_oracle with a sweep over a
breakpoint grid.  The oracles run it on the LMTSs they build from the
terms; the decider runs search_witness on the LMTSs it decided on, to
turn an inequivalence into a distinguishing (test, theta) pair, and
measures the tests only from the length of its witness word on, below
which no canonical test can differ (search_witness).  The
loop skips, without measuring, every test whose success neither
process can reach (InteractionProduct.can_pass): its measures are
empty at every length on both sides and cannot differ.  It measures the
other tests on the same two products for the whole search
(InteractionProduct.measures), so a continuation that many canonical
tests share is measured once per side, and what the products keep of
a consumed test goes with its nodes.  This module keeps no memo of its
own: it enumerates tests and compares their measures.  The loop reads no test's term, so a
canonical test or a flavored variant of one builds its term only if it
is returned as the witness.
"""

from __future__ import annotations

import dataclasses as d
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import product as cartesian

from . import terms as t
from .computations import breakpoint_grid
from .errors import CalcError
from .semantics import LMTS, build_lts
from .testing import (InteractionProduct, Measure, Test, Vector, canonical_tests,
                      flavored_tests)


def successful_measures(lts: LMTS, test: Test, max_len: int) -> list[Measure]:
    """Probability mass of successful computations of each exact length,
    grouped by their stepwise sojourn-time vectors."""
    if max_len < 0:
        raise CalcError(f"computation length must be at least 0, got {max_len}")
    return InteractionProduct(lts).measures(test.root, max_len)


def passing_probability(measures: list[Measure], theta: Vector) -> Fraction:
    """prob_pass read off the grouped measures: length-|theta| mass whose
    vector is dominated pointwise by theta."""
    if len(theta) >= len(measures):
        raise ValueError("theta longer than the enumerated bound")
    total = Fraction(0)
    for vector, mass in measures[len(theta)].items():
        if all(vector[i] <= theta[i] for i in range(len(theta))):
            total += mass
    return total


@d.dataclass(frozen=True)
class OracleVerdict:
    equivalent: bool
    witness_test: Test | None = None
    witness_theta: Vector | None = None
    prob_left: Fraction | None = None
    prob_right: Fraction | None = None
    tests_checked: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def environment_tests(lts1: LMTS, lts2: LMTS, depth: int) -> Iterator[Test]:
    """Canonical reactive tests up to the given depth over the names
    visible in either process."""
    return canonical_tests(sorted(lts1.visible_names() | lts2.visible_names()), depth)


def _search(lts1: LMTS, lts2: LMTS, tests: Iterable[Test], max_len: int,
            differ: Callable[[list[Measure], list[Measure]], tuple | None],
            min_len: int = 0) -> OracleVerdict:
    """The one test loop: run the tests in order against both processes
    and return the first one that differ separates.  differ gets both
    sides' successful_measures up to max_len, the lengths below min_len
    left empty, and returns (theta, left probability, right probability)
    or None."""
    if max_len < 0:
        raise CalcError(f"computation length must be at least 0, got {max_len}")
    if not 0 <= min_len <= max_len:
        raise CalcError(f"first measured length must be in 0..{max_len}, got {min_len}")
    products = (InteractionProduct(lts1), InteractionProduct(lts2))
    checked = 0
    for checked, test in enumerate(tests, 1):
        root = test.root
        if not any(product.can_pass(root) for product in products):
            continue
        found = differ(*[product.measures(root, max_len, min_len) for product in products])
        if found is not None:
            theta, left, right = found
            return OracleVerdict(False, test, theta, left, right, checked)
    return OracleVerdict(equivalent=True, tests_checked=checked)


def _first_difference(m1: list[Measure], m2: list[Measure]) -> tuple | None:
    """The lexicographically least differing vector of the shortest length
    at which the measures differ, with both passing probabilities there.
    It is minimal pointwise: a differing vector below it would come
    first."""
    for length1, length2 in zip(m1, m2):
        if length1 == length2:
            continue
        support = [
            v
            for v in set(length1) | set(length2)
            if length1.get(v, Fraction(0)) != length2.get(v, Fraction(0))
        ]
        if support:
            theta = min(support)
            return theta, passing_probability(m1, theta), passing_probability(m2, theta)
    return None


def search_witness(lts1: LMTS, lts2: LMTS, tests: Iterable[Test], max_len: int,
                   min_len: int = 0) -> OracleVerdict:
    """Run the tests in order against both processes and return the first
    one whose successful-computation measures differ at some length from
    min_len up to max_len, with the lexicographically least differing
    vector of the shortest such length as theta, which is also minimal
    pointwise (_first_difference).  tests_checked counts the tests taken
    from the iterable, the ones that neither process can pass included.

    Lengths below min_len are not measured.  The decider passes the
    length L of its shortest differing label word, which is sound for
    canonical reactive tests: a canonical test's measure at length k is
    a fixed linear image of the probabilities of the label words of
    length k, and every shorter word has equal probability on both sides.
    A step of the product from a process state with per-name rate table
    rho, at a test node offering the names E, is the decider's label
    (E, name, R(rho, E)): it has probability rate / R(rho, E) and
    sojourn 1 / R(rho, E), where R(rho, E) = rho(tau) + sum over b in E
    of rho(b), and a tau step keeps the node.  A canonical test is
    name-deterministic, so the node that follows a word is fixed.  So no
    canonical test differs at a length below L."""
    return _search(lts1, lts2, tests, max_len, _first_difference, min_len)


def _setup(
    p1: t.ProcessTerm, p2: t.ProcessTerm, depth: int, state_bound: int
) -> tuple[LMTS, LMTS, Iterator[Test]]:
    lts1 = build_lts(p1, state_bound)
    lts2 = build_lts(p2, state_bound)
    return lts1, lts2, environment_tests(lts1, lts2, depth)


def bounded_testing_oracle(
    p1: t.ProcessTerm,
    p2: t.ProcessTerm,
    depth: int = 4,
    *,
    flavor: str = "reactive",
    state_bound: int = 10000,
) -> OracleVerdict:
    """Compare passing probabilities over all generated tests of the given
    flavor, at every computation length up to depth and every bound
    sequence.  Sound up to the bounds; a returned witness is a genuine
    distinguishing (test, theta) pair."""
    lts1, lts2, base = _setup(p1, p2, depth, state_bound)
    return search_witness(lts1, lts2, flavored_tests(base, flavor), depth)


def old_style_oracle(
    p1: t.ProcessTerm,
    p2: t.ProcessTerm,
    depth: int = 2,
    *,
    state_bound: int = 10000,
) -> OracleVerdict:
    """Length-free comparison: cumulative probability of all successful
    computations within theta, without the exact-length filter.  Meaningful
    for processes without timed tau moves, where successful computations
    are maximal.  Evaluated by direct sweep over a breakpoint grid
    (observed sojourn values, midpoints, one value above the maximum) as an
    independent check of the grouped-measure path."""
    lts1, lts2, tests = _setup(p1, p2, depth, state_bound)
    return _search(lts1, lts2, tests, depth, _cumulative_witness)


def _cumulative(measures: list[Measure], theta: Vector) -> Fraction:
    """Mass of the successful computations of every length up to |theta|
    whose vector is dominated by theta on its own length."""
    return sum((passing_probability(measures, theta[:length])
                for length in range(min(len(theta), len(measures) - 1) + 1)), Fraction(0))


def _cumulative_witness(m1: list[Measure], m2: list[Measure]) -> tuple | None:
    """The first theta of the breakpoint grids, shortest first, at which
    the cumulative probabilities differ, with both of them."""
    depth = len(m1) - 1
    position_values: list[list[Fraction]] = [[] for _ in range(depth)]
    for side in (m1, m2):
        for length_measure in side:
            for vector in length_measure:
                for i_pos, value in enumerate(vector):
                    position_values[i_pos].append(value)
    grids = [breakpoint_grid(vals, 12) for vals in position_values]
    for length in range(depth + 1):
        for theta in cartesian(*grids[:length]):
            left = _cumulative(m1, theta)
            right = _cumulative(m2, theta)
            if left != right:
                return theta, left, right
    return None
