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

This module makes the tests: canonical_tests builds the canonical
reactive tests as they are consumed, and flavored_tests turns them into
their liberal or tau variants.  It also owns the interaction product:
InteractionProduct steps a process LMTS and a test's syntax tree
together, and both prob_pass (one forward pass, pruned by theta) and the
oracle's successful_measures run on it.
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
from .errors import NotPerformanceClosed, NotWellFormed, ReservedNameError
from .parser import parse_test_body
from .semantics import LMTS, build_lts

FLAVORS = ("reactive", "liberal", "tau")


@d.dataclass(frozen=True)
class Test:
    term: t.ProcessTerm
    flavor: str

    def __str__(self) -> str:
        return t.pretty(self.term)


def is_successful_projection(term: t.ProcessTerm) -> bool:
    return any(isinstance(s, t.Success) for s in t.summand_list(term))


def _validate(term: t.ProcessTerm, flavor: str, success_ok: bool) -> None:
    if isinstance(term, t.Success):
        if not success_ok:
            raise NotWellFormed("the success state cannot occur as a choice summand here")
        return
    if isinstance(term, t.Choice):
        summand_ok = flavor == "liberal"
        _validate(term.left, flavor, summand_ok)
        _validate(term.right, flavor, summand_ok)
        return
    if isinstance(term, t.Prefix):
        if term.name == t.TAU:
            if flavor != "tau":
                raise NotWellFormed("timed tau prefixes require a tau-capable test")
            if term.rate.passive:
                raise NotWellFormed("tau test prefixes must be exponentially timed")
            # the grammar forbids success immediately after an internal move
            _validate(term.body, flavor, success_ok=False)
            return
        if not term.rate.passive:
            raise NotWellFormed(f"test action {term.name} must be passive")
        _validate(term.body, flavor, success_ok=True)
        return
    raise NotWellFormed(f"not a test construct: {t.pretty(term)}")


def make_test(term: t.ProcessTerm, flavor: str = "reactive") -> Test:
    if flavor not in FLAVORS:
        raise ValueError(f"unknown test flavor {flavor!r}")
    _validate(term, flavor, success_ok=True)
    return Test(term, flavor)


def parse_test(source: str, flavor: str = "reactive") -> Test:
    return make_test(parse_test_body(source), flavor)


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


@d.dataclass(frozen=True)
class _NodeInfo:
    summands: tuple[tuple[str, t.Rate, t.ProcessTerm], ...]
    successful: bool
    live: bool  # success still reachable, given that z never synchronizes


def _test_info(test_term: t.ProcessTerm) -> dict[t.ProcessTerm, _NodeInfo]:
    info: dict[t.ProcessTerm, _NodeInfo] = {}

    def visit(node: t.ProcessTerm) -> _NodeInfo:
        if node in info:
            return info[node]
        parts = t.summand_list(node)
        successful = any(isinstance(p, t.Success) for p in parts)
        summands = []
        live = successful
        for part in parts:
            if isinstance(part, t.Success):
                continue
            assert isinstance(part, t.Prefix)
            summands.append((part.name, part.rate, part.body))
            if part.name != t.FAILURE_NAME and visit(part.body).live:
                live = True
        entry = _NodeInfo(tuple(summands), successful, live)
        info[node] = entry
        return entry

    visit(test_term)
    return info


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
        self.info = _test_info(test.term)
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
        summands = self.info[node].summands
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
    info = product.info
    frontier = {(0, test.term, info[test.term].successful): Fraction(1)}
    for bound in theta:
        reached: dict[tuple[int, t.ProcessTerm, bool], Fraction] = {}
        for (state, node, seen), mass in frontier.items():
            if not seen and not info[node].live:
                continue
            sojourn, branches = product.step(state, node)
            if sojourn is None or sojourn > bound:
                continue
            for share, state2, node2 in branches:
                key = (state2, node2, seen or info[node2].successful)
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
                    yield make_test(term, flavor)

    return variants()
