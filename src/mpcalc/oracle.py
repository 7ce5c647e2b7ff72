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

Most tests of a search cannot be passed: their success path asks for
names in an order that the process never offers.  Such a test has no
successful computation on either side, so its measures are empty at
every length and cannot differ; the loop counts it in tests_checked and
skips it without measuring.  Whether a product state (process state,
test node) can still reach a successful test node is memoized per side
over the whole search.  The process's tau moves, which leave the test
node where it is, are folded into a per-state closure, so the recursion
only goes down the test and ends.  Canonical tests share the nodes of
their continuations, so the memo answers for them across tests; each
test's root is asked once and not stored, so nothing keeps a test after
it is consumed.
"""

from __future__ import annotations

import dataclasses as d
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import product as cartesian

from . import terms as t
from .computations import breakpoint_grid
from .errors import CalcError, NotPerformanceClosed
from .semantics import LMTS, build_lts
from .testing import InteractionProduct, Test, TestState, canonical_tests, flavored_tests

Vector = tuple[Fraction, ...]
Measure = dict[Vector, Fraction]


def successful_measures(lts: LMTS, test: Test, max_len: int) -> list[Measure]:
    """Probability mass of successful computations of each exact length,
    grouped by their stepwise sojourn-time vectors."""
    if max_len < 0:
        raise CalcError(f"computation length must be at least 0, got {max_len}")
    product = InteractionProduct(lts)
    cache: dict[tuple[int, TestState, bool, int], Measure] = {}
    return [_measure(product, cache, 0, test.root, False, length) for length in range(max_len + 1)]


def _measure(product: InteractionProduct, cache: dict, state: int, node: TestState,
             seen: bool, budget: int) -> Measure:
    seen = seen or node.successful
    if not seen and not node.live:
        return {}
    if budget == 0:
        return {(): Fraction(1)} if seen else {}
    key = (state, node, seen, budget)
    if key in cache:
        return cache[key]
    out: Measure = {}
    sojourn, branches = product.step(state, node)
    for share, state2, node2 in branches:
        for vector, mass in _measure(product, cache, state2, node2, seen, budget - 1).items():
            key2 = (sojourn,) + vector
            out[key2] = out.get(key2, Fraction(0)) + share * mass
    cache[key] = out
    return out


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


class _Side:
    """One process of a witness search, with a memo, kept over the whole
    search, of whether a product state (process state, test node) can
    reach a successful test node.  Tau moves of the process are folded
    into a per-state closure, so every step of the recursion goes down
    the test.  Canonical tests share their continuations' nodes, so the
    memo answers for them across tests; a test's root is not memoized."""

    def __init__(self, lts: LMTS):
        if not lts.performance_closed:
            raise NotPerformanceClosed("the process under test is not performance-closed")
        self.lts = lts
        self._moves = lts.moves
        self._closures: dict[int, tuple[int, ...]] = {}
        self._memo: dict[tuple[int, TestState], bool] = {}

    def can_pass(self, test: Test) -> bool:
        return self._passable(0, test.root)

    def _reaches(self, state: int, node: TestState) -> bool:
        key = (state, node)
        known = self._memo.get(key)
        if known is None:
            known = self._memo[key] = self._passable(state, node)
        return known

    def _passable(self, state: int, node: TestState) -> bool:
        if node.successful or not node.live:
            return node.successful
        for source in self._closure(state):
            for name, _, target in self._moves[source]:
                if name != t.TAU:
                    for sname, srate, body in node.summands:
                        if sname == name and srate.passive and self._reaches(target, body):
                            return True
            for sname, srate, body in node.summands:
                if sname == t.TAU and not srate.passive and self._reaches(source, body):
                    return True
        return False

    def _closure(self, state: int) -> tuple[int, ...]:
        """state and every state its tau moves reach."""
        closure = self._closures.get(state)
        if closure is None:
            seen = {state}
            stack = [state]
            while stack:
                for name, _, target in self._moves[stack.pop()]:
                    if name == t.TAU and target not in seen:
                        seen.add(target)
                        stack.append(target)
            closure = self._closures[state] = tuple(seen)
        return closure


def _measures(sides: tuple[_Side, _Side], test: Test,
              max_len: int) -> tuple[list[Measure], ...] | None:
    """successful_measures of the test on both sides, or None when neither
    side can reach success with it: then both are empty at every length."""
    if not any(side.can_pass(test) for side in sides):
        return None
    return tuple(successful_measures(side.lts, test, max_len) for side in sides)


def search_witness(lts1: LMTS, lts2: LMTS, tests: Iterable[Test], max_len: int) -> OracleVerdict:
    """Run the tests in order against both processes and return the first
    one whose successful-computation measures differ at some length up to
    max_len, with a minimal differing vector of the shortest such length
    as theta.  tests_checked counts the tests taken from the iterable,
    the ones that neither process can pass included."""
    if max_len < 0:
        raise CalcError(f"computation length must be at least 0, got {max_len}")
    sides = (_Side(lts1), _Side(lts2))
    checked = 0
    for checked, test in enumerate(tests, 1):
        measures = _measures(sides, test, max_len)
        if measures is None:
            continue
        m1, m2 = measures
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

    sides = (_Side(lts1), _Side(lts2))
    checked = 0
    for checked, test in enumerate(tests, 1):
        measures = _measures(sides, test, depth)
        if measures is None:
            continue
        m1, m2 = measures
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
