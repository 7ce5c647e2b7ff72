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

search_witness is the one test loop.  The oracles run it on the LMTSs
they build from the terms; the decider runs it on the LMTSs it decided
on, to turn an inequivalence into a distinguishing (test, theta) pair.
"""

from __future__ import annotations

import dataclasses as d
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import product as cartesian

from . import terms as t
from .computations import breakpoint_grid
from .semantics import LMTS, build_lts
from .testing import InteractionProduct, Test, canonical_tests, flavored_tests

Vector = tuple[Fraction, ...]
Measure = dict[Vector, Fraction]


def successful_measures(lts: LMTS, test: Test, max_len: int) -> list[Measure]:
    """Probability mass of successful computations of each exact length,
    grouped by their stepwise sojourn-time vectors."""
    product = InteractionProduct(lts, test)
    states = test.states
    cache: dict[tuple[int, t.ProcessTerm, bool, int], Measure] = {}

    def measure(state: int, node: t.ProcessTerm, seen: bool, budget: int) -> Measure:
        seen = seen or states[node].successful
        if not seen and not states[node].live:
            return {}
        if budget == 0:
            return {(): Fraction(1)} if seen else {}
        key = (state, node, seen, budget)
        if key in cache:
            return cache[key]
        out: Measure = {}
        sojourn, branches = product.step(state, node)
        for share, state2, node2 in branches:
            for vector, mass in measure(state2, node2, seen, budget - 1).items():
                key2 = (sojourn,) + vector
                out[key2] = out.get(key2, Fraction(0)) + share * mass
        cache[key] = out
        return out

    return [measure(0, test.term, False, length) for length in range(max_len + 1)]


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


def _minimal_difference(m1: Measure, m2: Measure) -> Vector | None:
    support = [
        v
        for v in set(m1) | set(m2)
        if m1.get(v, Fraction(0)) != m2.get(v, Fraction(0))
    ]
    if not support:
        return None
    minimal = [
        v
        for v in support
        if not any(u != v and all(u[i] <= v[i] for i in range(len(v))) for u in support)
    ]
    return min(minimal)


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


def search_witness(lts1: LMTS, lts2: LMTS, tests: Iterable[Test], max_len: int) -> OracleVerdict:
    """Run the tests in order against both processes and return the first
    one whose successful-computation measures differ at some length up to
    max_len, with a minimal differing vector of the shortest such length
    as theta.  tests_checked counts the tests taken from the iterable."""
    checked = 0
    for checked, test in enumerate(tests, 1):
        m1 = successful_measures(lts1, test, max_len)
        m2 = successful_measures(lts2, test, max_len)
        for length in range(max_len + 1):
            theta = _minimal_difference(m1[length], m2[length])
            if theta is not None:
                return OracleVerdict(
                    equivalent=False,
                    witness_test=test,
                    witness_theta=theta,
                    prob_left=passing_probability(m1, theta),
                    prob_right=passing_probability(m2, theta),
                    tests_checked=checked,
                )
    return OracleVerdict(equivalent=True, tests_checked=checked)


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

    def cumulative(measures: list[Measure], theta: Vector) -> Fraction:
        total = Fraction(0)
        for length in range(min(len(theta), len(measures) - 1) + 1):
            for vector, mass in measures[length].items():
                if all(vector[i] <= theta[i] for i in range(length)):
                    total += mass
        return total

    checked = 0
    for checked, test in enumerate(tests, 1):
        m1 = successful_measures(lts1, test, depth)
        m2 = successful_measures(lts2, test, depth)
        position_values: list[list[Fraction]] = [[] for _ in range(depth)]
        for side in (m1, m2):
            for length_measure in side:
                for vector in length_measure:
                    for i_pos, value in enumerate(vector):
                        position_values[i_pos].append(value)
        grids = [breakpoint_grid(vals, 12) for vals in position_values]
        for length in range(depth + 1):
            for theta in cartesian(*grids[:length]):
                left = cumulative(m1, theta)
                right = cumulative(m2, theta)
                if left != right:
                    return OracleVerdict(
                        equivalent=False,
                        witness_test=test,
                        witness_theta=theta,
                        prob_left=left,
                        prob_right=right,
                        tests_checked=checked,
                    )
    return OracleVerdict(equivalent=True, tests_checked=checked)
