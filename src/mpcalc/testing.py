"""Tests and test-driven computations.

A test is a finite choice tree of passive prefixes with a distinguished
success state s.  Three grammars of increasing liberality are supported:

  reactive   T ::= s | T'      T' ::= <a,*w>.T | T' + T'
  liberal    T ::= s | <a,*w>.T | T + T          (s may be a summand)
  tau        reactive plus exponentially timed  <tau,lambda>.T'  prefixes

The interaction of a performance-closed P with T runs them in parallel,
synchronized on every visible name of either side plus the reserved
failure name z.  A configuration is successful when its test projection
includes s as a top-level summand (for reactive tests this means the
projection is exactly s).  A computation is successful when it traverses
a successful configuration anywhere, origin included; computations may
extend past success, which matters for timed silent moves.

This module makes the tests: a Test checks the grammar of its flavor
and indexes its states in one walk when it is made, canonical_tests
builds the canonical reactive tests as they are consumed, and
flavored_tests turns them into their liberal or tau variants.  It also
owns the interaction product: InteractionProduct steps a process LMTS
and a test's state index together, and both prob_pass (one forward
pass, pruned by theta) and the oracle's successful_measures run on it.
The term-level route (interaction, interaction_lts,
successful_computations, then computations.prob_set) composes the
interaction term and enumerates its computations one by one; it follows
the definitions literally and is kept as the reference the test suite
compares against.
"""

from __future__ import annotations

import dataclasses as d
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, combinations

from . import terms as t
from .computations import Computation, Theta, enumerate_computations
from .errors import CalcError, NotPerformanceClosed, NotWellFormed, ReservedNameError
from .parser import parse_test_body
from .semantics import LMTS, build_lts

FLAVORS = ("reactive", "liberal", "tau")


@d.dataclass(frozen=True)
class TestState:
    """A state of a test: its prefix summands (name, rate, body), whether s
    is a summand, and whether success is still reachable, given that z
    never synchronizes."""

    summands: tuple[tuple[str, t.Rate, t.ProcessTerm], ...]
    successful: bool
    live: bool


@d.dataclass(frozen=True)
class Test:
    """A test term of the given flavor, checked against its grammar when it
    is made.  states maps each state of the test to its TestState."""

    term: t.ProcessTerm
    flavor: str = "reactive"
    states: dict[t.ProcessTerm, TestState] = d.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown test flavor {self.flavor!r}")
        object.__setattr__(self, "states", _index(self.term, self.flavor))

    def __str__(self) -> str:
        return t.pretty(self.term)


make_test = Test


def is_successful_projection(term: t.ProcessTerm) -> bool:
    return any(isinstance(s, t.Success) for s in t.summand_list(term))


def _index(term: t.ProcessTerm, flavor: str) -> dict[t.ProcessTerm, TestState]:
    """The states of a test, in one walk that also checks the grammar of
    its flavor; NotWellFormed names the first rule broken."""
    states: dict[t.ProcessTerm, TestState] = {}

    def visit(node: t.ProcessTerm) -> TestState:
        if node in states:
            return states[node]
        parts = t.summand_list(node)
        successful = live = False
        summands = []
        for part in parts:
            if isinstance(part, t.Success):
                if len(parts) > 1 and flavor != "liberal":
                    raise NotWellFormed("the success state cannot occur as a choice summand here")
                successful = live = True
                continue
            if not isinstance(part, t.Prefix):
                raise NotWellFormed(f"not a test construct: {t.pretty(part)}")
            if part.name == t.TAU:
                if flavor != "tau":
                    raise NotWellFormed("timed tau prefixes require a tau-capable test")
                if part.rate.passive:
                    raise NotWellFormed("tau test prefixes must be exponentially timed")
                # the grammar forbids success immediately after an internal move
                if isinstance(part.body, t.Success):
                    raise NotWellFormed("the success state cannot occur as a choice summand here")
            elif not part.rate.passive:
                raise NotWellFormed(f"test action {part.name} must be passive")
            summands.append((part.name, part.rate, part.body))
            if visit(part.body).live and part.name != t.FAILURE_NAME:
                live = True
        states[node] = TestState(tuple(summands), successful, live)
        return states[node]

    visit(term)
    return states


def parse_test(source: str, flavor: str = "reactive") -> Test:
    return Test(parse_test_body(source), flavor)


def interaction(process: t.ProcessTerm, test: Test, state_bound: int = 10000) -> t.ProcessTerm:
    """The composed system P |[all visible names + z]| T.

    The process must be performance-closed on its own; a blocked passive
    action would otherwise vanish silently from the composition.
    """
    t.require_analyzable(process)
    if not build_lts(process, state_bound=state_bound).performance_closed:
        raise NotPerformanceClosed("the process under test is not performance-closed")
    sync = t.visible_names(process) | t.visible_names(test.term) | {t.FAILURE_NAME}
    return t.Parallel(frozenset(sync), process, test.term)


def _projection(state: t.ProcessTerm) -> t.ProcessTerm:
    assert isinstance(state, t.Parallel)
    return state.right


def interaction_lts(process: t.ProcessTerm, test: Test, state_bound: int = 10000) -> LMTS:
    lts = build_lts(
        interaction(process, test, state_bound), state_bound=state_bound, allow_failure_name=True
    )
    if not lts.performance_closed:
        raise NotPerformanceClosed(
            "interaction has reachable passive transitions; the process is not performance-closed"
        )
    return lts


def successful_computations(
    process: t.ProcessTerm, test: Test, max_len: int, state_bound: int = 10000
) -> list[Computation]:
    """Computations of the interaction, up to max_len steps, that traverse a
    successful configuration."""
    lts = interaction_lts(process, test, state_bound=state_bound)
    successful = {state for state in lts.states if is_successful_projection(_projection(state))}
    return [
        computation
        for computation in enumerate_computations(lts, max_len)
        if any(state in successful for state in computation.traversed())
    ]


# (mean sojourn time or None, ((probability, process state, test node), ...))
Step = tuple[Fraction | None, tuple[tuple[Fraction, int, t.ProcessTerm], ...]]


class InteractionProduct:
    """The interaction of a performance-closed LMTS with a test, stepped on
    (process state index, test node) pairs instead of composed terms.

    Tests only synchronize passively on visible names and move alone on
    timed tau, so this product is the reachable part of the interaction
    system: the process moves alone on tau; a visible process action
    synchronizes with the test summands of the same name, its rate split
    by their passive weights; a timed tau summand of the test moves the
    test alone.  Every other visible action of either side is blocked.
    """

    def __init__(self, lts: LMTS, test: Test):
        if not lts.performance_closed:
            raise NotPerformanceClosed("the process under test is not performance-closed")
        self._states = test.states
        self._moves = lts.moves
        self._steps: dict[tuple[int, t.ProcessTerm], Step] = {}

    def step(self, state: int, node: t.ProcessTerm) -> Step:
        """Mean sojourn time of the product state, None when it has no
        move, and its branches (probability, process state, test node)."""
        key = (state, node)
        if key not in self._steps:
            self._steps[key] = self._step(state, node)
        return self._steps[key]

    def _step(self, state: int, node: t.ProcessTerm) -> Step:
        summands = self._states[node].summands
        weights: dict[str, Fraction] = {}
        for name, rate, _ in summands:
            if rate.passive:
                weights[name] = weights.get(name, Fraction(0)) + rate.value
        moves: list[tuple[Fraction, int, t.ProcessTerm]] = []
        for name, value, target in self._moves[state]:
            if name == t.TAU:
                moves.append((value, target, node))
                continue
            for sname, srate, sbody in summands:
                if sname == name and srate.passive:
                    moves.append((value * srate.value / weights[name], target, sbody))
        for sname, srate, sbody in summands:
            if sname == t.TAU and not srate.passive:
                moves.append((srate.value, state, sbody))
        total = sum((value for value, _, _ in moves), Fraction(0))
        if total == 0:
            return None, ()
        return 1 / total, tuple((value / total, s, n) for value, s, n in moves)


def prob_pass(process: t.ProcessTerm, test: Test, theta: Theta, state_bound: int = 10000) -> Fraction:
    """Probability of passing the test within the stepwise bounds theta.

    Only successful computations of length exactly |theta| count, each step
    no slower on average than the corresponding bound.  A computation that
    reaches success earlier contributes at the shorter bound sequences.

    One forward pass over the product of the process LMTS with the test:
    the frontier maps (process state, test node, success seen) to the
    probability of reaching it within the bounds so far.  Entries that can
    no longer succeed, that stop before |theta| steps, or whose next step
    is slower on average than its bound are dropped.  state_bound limits
    the states of the process LMTS; the product is never larger than that
    times the nodes of the test.

    The process must be closed, guarded, free of the name z and
    performance-closed; build_lts raises its CalcError for the first
    three, and NotPerformanceClosed is raised for the last.
    """
    lts = build_lts(process, state_bound=state_bound)
    product = InteractionProduct(lts, test)
    states = test.states
    frontier = {(0, test.term, states[test.term].successful): Fraction(1)}
    for bound in theta:
        reached: dict[tuple[int, t.ProcessTerm, bool], Fraction] = {}
        for (state, node, seen), mass in frontier.items():
            if not seen and not states[node].live:
                continue
            sojourn, branches = product.step(state, node)
            if sojourn is None or sojourn > bound:
                continue
            for share, state2, node2 in branches:
                key = (state2, node2, seen or states[node2].successful)
                reached[key] = reached.get(key, Fraction(0)) + mass * share
        frontier = reached
    return sum((mass for (_, _, seen), mass in frontier.items() if seen), Fraction(0))


def _canonical_step(environment: frozenset[str], name: str, continuation: t.ProcessTerm) -> t.ProcessTerm:
    one = t.Rate.weight(1)
    failure = t.Prefix(t.FAILURE_NAME, one, t.SUCCESS)
    summands = []
    for b in sorted(environment):
        if b == name:
            summands.append(t.Prefix(name, one, continuation))
        else:
            summands.append(t.Prefix(b, one, failure))
    return t.nest_right(summands)


def canonical_tests(names, depth: int) -> Iterator[Test]:
    """Name-deterministic tests with one success path of length <= depth,
    shortest first, each built when it is consumed.

    Each step picks a permitted environment set and the single name that
    continues towards success; every other permitted name fails in one
    step through the reserved name z.  Each layer is kept as the
    continuations of the next.
    """
    if depth < 0:
        raise CalcError(f"test depth must be at least 0, got {depth}")
    universe = sorted(set(names))
    if t.TAU in universe or t.FAILURE_NAME in universe:
        raise ReservedNameError("environment names must be visible and distinct from z")
    environments = [
        frozenset(combination)
        for size in range(1, len(universe) + 1)
        for combination in combinations(universe, size)
    ]

    def layers() -> Iterator[Test]:
        yield Test(t.SUCCESS, "reactive")
        layer = [t.SUCCESS]
        for level in range(1, depth + 1):
            previous, layer = layer, []
            for environment in environments:
                for name in sorted(environment):
                    for continuation in previous:
                        term = _canonical_step(environment, name, continuation)
                        if level < depth:
                            layer.append(term)
                        yield Test(term, "reactive")

    return layers()


_EDITS = {
    "liberal": lambda node: t.nest_right(t.summand_list(node) + [t.SUCCESS]),
    "tau": lambda node: t.Prefix(t.TAU, t.Rate(Fraction(1)), node),
}


def _edited(term: t.ProcessTerm, edit) -> Iterator[t.ProcessTerm]:
    """term with edit applied at one node at a time, in pre-order over
    the nodes other than s reached through visible names other than z:
    the success path and the first step of each failure branch."""
    if isinstance(term, t.Success):
        return
    yield edit(term)
    parts = t.summand_list(term)
    for i, part in enumerate(parts):
        if isinstance(part, t.Prefix) and part.name != t.FAILURE_NAME:
            for body in _edited(part.body, edit):
                yield t.nest_right(parts[:i] + [t.Prefix(part.name, part.rate, body)] + parts[i + 1:])


def flavored_tests(base: Iterable[Test], flavor: str) -> Iterable[Test]:
    """The reactive base tests in the given flavor.  Reactive tests are
    the base itself.  Liberal tests adjoin s as an extra summand, tau
    tests put a <tau,1> step first, at one node at a time: each base test
    is followed by its variants, and repeats are skipped."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown test flavor {flavor!r}")
    if flavor == "reactive":
        return base
    edit = _EDITS[flavor]

    def variants() -> Iterator[Test]:
        seen: set[t.ProcessTerm] = set()
        for test in base:
            for term in chain((test.term,), _edited(test.term, edit)):
                if term not in seen:
                    seen.add(term)
                    yield Test(term, flavor)

    return variants()
