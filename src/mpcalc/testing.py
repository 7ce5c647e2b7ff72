"""Tests and test-driven computations.

A test is a finite choice tree of passive prefixes with a distinguished
success state s.  Three grammars of increasing liberality are supported:

  reactive   T ::= s | T'      T' ::= <a,*w>.T | T' + T'
  liberal    T ::= s | <a,*w>.T | T + T          (s may be a summand)
  tau        T ::= s | T'      T' ::= <a,*w>.T | <tau,lambda>.T' | T' + T'

so a tau test may race a timed tau summand against passive ones;
flavored_tests only ever puts <tau,1> in front of a whole node.

The interaction of a performance-closed P with T runs them in parallel,
synchronized on every visible name of either side plus the reserved
failure name z.  A configuration is successful when its test projection
includes s as a top-level summand (for reactive tests this means the
projection is exactly s).  A computation is successful when it traverses
a successful configuration anywhere, origin included; computations may
extend past success, which matters for timed silent moves.

This module makes the tests.  Test(term, flavor) checks the term
against the grammar of its flavor and indexes its nodes into linked
TestStates in one walk.  canonical_tests makes the canonical reactive
tests as they are consumed, each as one new root state over the states
of the tests made before it; it builds and indexes no term, and a test
builds its term from its states when the term is first read (printed,
compared, hashed, or returned as a witness), each node's term once.
flavored_tests turns them into their liberal or tau variants by
editing their states: a variant is new only at its edited node and the
nodes on the path to it, and builds its term when read, as a canonical
test does.  _term_of is the one place that builds a term from states.
It also owns the interaction product: InteractionProduct steps a
process LMTS and a test's states together by its one move rule, and
measures a test's successful computations by length and sojourn-time
vector.  It keeps one record per test node, held weakly, of the node's
steps, of which product states can still reach success and of its
measures.  prob_pass (one forward pass, pruned by theta) and the
oracle's successful_measures and witness search all run on it.
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
from itertools import combinations
from typing import NamedTuple
from weakref import WeakKeyDictionary

from . import terms as t
from .computations import Computation, Theta, enumerate_computations, make_theta
from .errors import CalcError, NotPerformanceClosed, NotWellFormed, ReservedNameError
from .parser import parse_test_body
from .semantics import LMTS, build_lts

FLAVORS = ("reactive", "liberal", "tau")


@d.dataclass(frozen=True, eq=False)
class TestState:
    """A node of a test: its prefix summands (name, rate, state of the
    body), whether s is a summand, whether success is still reachable,
    given that z never synchronizes, and its term.  States compare and
    hash by identity, so tests built on a shared subtree share its
    states.  A node of a canonical test or of a flavored variant is made
    from states, with no term until _term_of builds it."""

    summands: tuple[tuple[str, t.Rate, TestState], ...]
    successful: bool
    live: bool
    term: t.ProcessTerm | None = d.field(default=None, repr=False)


def _term_of(state: TestState) -> t.ProcessTerm:
    """The term of a test node, built from its states the first time it
    is read and kept on the state, so that a continuation that many tests
    share builds its term once.  A node made from states builds the
    choice of its prefix summands, in order, followed by s when it is
    successful."""
    if state.term is None:
        parts = [t.Prefix(name, rate, _term_of(body)) for name, rate, body in state.summands]
        if state.successful:
            parts.append(t.SUCCESS)
        object.__setattr__(state, "term", t.nest_right(parts))
    return state.term


@d.dataclass(frozen=True, init=False, eq=False, repr=False)
class Test:
    """A test of the given flavor.  Test(term, flavor) checks the term
    against the grammar of the flavor and indexes it: root is the
    TestState of the term, linked to the states of all its nodes.  The
    canonical tests and their flavored variants are made from their
    states instead and build their term the first time it is read.
    Tests compare and hash by term and flavor."""

    root: TestState
    flavor: str

    def __init__(self, term: t.ProcessTerm, flavor: str = "reactive"):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown test flavor {flavor!r}")
        object.__setattr__(self, "root", _index(term, flavor, {}))
        object.__setattr__(self, "flavor", flavor)

    @property
    def term(self) -> t.ProcessTerm:
        return _term_of(self.root)

    def __eq__(self, other):
        if not isinstance(other, Test):
            return NotImplemented
        return self.flavor == other.flavor and self.term == other.term

    def __hash__(self) -> int:
        return hash((self.term, self.flavor))

    def __repr__(self) -> str:
        return f"Test(term={self.term!r}, flavor={self.flavor!r})"

    def __str__(self) -> str:
        return t.pretty(self.term)


make_test = Test


def _test_of(root: TestState, flavor: str) -> Test:
    """The test whose root state is root; the flavor must be a known one."""
    test = object.__new__(Test)
    object.__setattr__(test, "root", root)
    object.__setattr__(test, "flavor", flavor)
    return test


def is_successful_projection(term: t.ProcessTerm) -> bool:
    return any(isinstance(s, t.Success) for s in t.summand_list(term))


def _index(node: t.ProcessTerm, flavor: str, known: dict[t.ProcessTerm, TestState]) -> TestState:
    """The state of a test node, checked against the grammar of its flavor
    in one walk; NotWellFormed names the first rule broken.  known maps
    nodes already indexed to their states and gains those indexed below
    node, so equal subterms share one state.  node itself is not looked
    up.  Only Test(term, flavor) and _FAILURE_STATE index a term: the
    canonical tests and their flavored variants are made from states."""
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
            if isinstance(part.body, t.Success):
                raise NotWellFormed("the success state cannot follow an internal move directly")
        elif not part.rate.passive:
            raise NotWellFormed(f"test action {part.name} must be passive")
        body = known.get(part.body)
        if body is None:
            body = known[part.body] = _index(part.body, flavor, known)
        summands.append((part.name, part.rate, body))
        if body.live and part.name != t.FAILURE_NAME:
            live = True
    return TestState(tuple(summands), successful, live, node)


def parse_test(source: str, flavor: str = "reactive") -> Test:
    return Test(parse_test_body(source), flavor)


def interaction(process: t.ProcessTerm, test: Test, state_bound: int = 10000) -> t.ProcessTerm:
    """The composed system P |[all visible names + z]| T.

    The process must be performance-closed on its own; a blocked passive
    action would otherwise vanish silently from the composition.
    """
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
Step = tuple[Fraction | None, tuple[tuple[Fraction, int, TestState], ...]]
Vector = tuple[Fraction, ...]
# probability mass of the successful computations of one exact length, by
# their stepwise sojourn-time vectors
Measure = dict[Vector, Fraction]


class _NodeRecord(NamedTuple):
    """What a product knows about one test node: its steps and whether it
    can still reach success, keyed by process state, and its measures,
    keyed by (process state, success seen, steps left)."""

    steps: dict[int, Step]
    reach: dict[int, bool]
    measures: dict[tuple[int, bool, int], Measure]


class InteractionProduct:
    """The interaction of a performance-closed LMTS with a test, stepped on
    (process state index, test node) pairs instead of composed terms.

    Tests only synchronize passively on visible names and move alone on
    timed tau, so this product is the reachable part of the interaction
    system: the process moves alone on tau; a visible process action
    synchronizes with the test summands of the same name, its rate split
    by their passive weights; a timed tau summand of the test moves the
    test alone.  Every other visible action of either side is blocked.

    can_succeed says whether a product state can still reach a successful
    test node.  Most tests of a witness search cannot be passed: their
    success path asks for names in an order that the process never
    offers.  The search skips them, and prob_pass and measures drop the
    states that carry no successful mass.  The process's tau moves, which
    leave the test node where it is, are folded into a per-state closure,
    so the recursion only goes down the test and ends.

    The product keeps one _NodeRecord per test node, held weakly by the
    node: canonical tests share the nodes of their continuations, so a
    record answers for them across tests, and a search keeps nothing of a
    test it has consumed.  can_pass asks can_succeed about a test's root
    from the initial state but stores no answer for the root itself: a
    witness search asks it once about each of tens of thousands of new
    roots and measures few of them, and storing those answers made a
    68,738-test search about 1.5 times slower.
    """

    def __init__(self, lts: LMTS):
        if not lts.performance_closed:
            raise NotPerformanceClosed("the process under test is not performance-closed")
        self._moves = lts.moves
        self._records: WeakKeyDictionary[TestState, _NodeRecord] = WeakKeyDictionary()
        self._closures: dict[int, tuple[int, ...]] = {}

    def _record(self, node: TestState) -> _NodeRecord:
        record = self._records.get(node)
        if record is None:
            record = self._records[node] = _NodeRecord({}, {}, {})
        return record

    def step(self, state: int, node: TestState) -> Step:
        """Mean sojourn time of the product state, None when it has no
        move, and its branches (probability, process state, test node)."""
        steps = self._record(node).steps
        known = steps.get(state)
        if known is None:
            step = self._step(state, node)
            # the entry names the node itself, which a tau move of the
            # process leaves in place, as None: an entry that held its
            # own node would keep the node, and so the record, alive
            steps[state] = step[0], tuple([(share, state2, None if node2 is node else node2)
                                           for share, state2, node2 in step[1]])
            return step
        sojourn, branches = known
        return sojourn, tuple([(share, state2, node if node2 is None else node2)
                               for share, state2, node2 in branches])

    def _rule(self, state: int, node: TestState) -> Iterator[tuple]:
        """The moves of the product state, process moves first, as (name,
        rate, passive test weight or None, process state, test node),
        made one at a time: can_succeed stops at the first move that
        reaches success."""
        for name, value, target in self._moves[state]:
            if name == t.TAU:
                yield name, value, None, target, node
                continue
            for sname, srate, sbody in node.summands:
                if sname == name and srate.passive:
                    yield name, value, srate.value, target, sbody
        for sname, srate, sbody in node.summands:
            if sname == t.TAU and not srate.passive:
                yield sname, srate.value, None, state, sbody

    def _step(self, state: int, node: TestState) -> Step:
        weights: dict[str, Fraction] = {}
        for name, rate, _ in node.summands:
            if rate.passive:
                weights[name] = weights.get(name, Fraction(0)) + rate.value
        moves = [(value if weight is None else value * weight / weights[name], s, n)
                 for name, value, weight, s, n in self._rule(state, node)]
        total = sum((value for value, _, _ in moves), Fraction(0))
        if total == 0:
            return None, ()
        return 1 / total, tuple((value / total, s, n) for value, s, n in moves)

    def can_succeed(self, state: int, node: TestState) -> bool:
        """Whether some computation from the product state reaches a
        successful test node."""
        if node.successful or not node.live:
            return node.successful
        reach = self._record(node).reach
        known = reach.get(state)
        if known is None:
            known = reach[state] = self._succeeds_below(state, node)
        return known

    def can_pass(self, root: TestState) -> bool:
        """can_succeed(0, root), without storing the answer for root."""
        if root.successful or not root.live:
            return root.successful
        return self._succeeds_below(0, root)

    def _succeeds_below(self, state: int, node: TestState) -> bool:
        """Whether a move from the tau closure of the product state leads
        to a test node below node from which success can be reached."""
        for source in self._closure(state):
            for _, _, _, target, body in self._rule(source, node):
                if body is not node and self.can_succeed(target, body):
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

    def measures(self, root: TestState, max_len: int, min_len: int = 0) -> list[Measure]:
        """The Measure of the test with this root at each length up to
        max_len; the lengths below min_len are left empty, not measured."""
        return [self._measure(0, root, False, length) if length >= min_len else {}
                for length in range(max_len + 1)]

    def _measure(self, state: int, node: TestState, seen: bool, budget: int) -> Measure:
        seen = seen or node.successful
        if budget == 0:
            return {(): Fraction(1)} if seen else {}
        known = self._record(node).measures
        key = (state, seen, budget)
        out = known.get(key)
        if out is not None:
            return out
        out = {}
        if seen or self.can_succeed(state, node):
            sojourn, branches = self.step(state, node)
            for share, state2, node2 in branches:
                for vector, mass in self._measure(state2, node2, seen, budget - 1).items():
                    key2 = (sojourn,) + vector
                    out[key2] = out.get(key2, Fraction(0)) + share * mass
        known[key] = out
        return out


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
    theta = make_theta(theta)
    lts = build_lts(process, state_bound=state_bound)
    product = InteractionProduct(lts)
    frontier = {(0, test.root, test.root.successful): Fraction(1)}
    for bound in theta:
        reached: dict[tuple[int, TestState, bool], Fraction] = {}
        for (state, node, seen), mass in frontier.items():
            if not seen and not product.can_succeed(state, node):
                continue
            sojourn, branches = product.step(state, node)
            if sojourn is None or sojourn > bound:
                continue
            for share, state2, node2 in branches:
                key = (state2, node2, seen or node2.successful)
                reached[key] = reached.get(key, Fraction(0)) + mass * share
        frontier = reached
    return sum((mass for (_, _, seen), mass in frontier.items() if seen), Fraction(0))


_ONE = t.Rate.weight(1)
# <z,*1>.s, the one node that every failure branch of a canonical test leads to
_FAILURE_STATE = _index(t.Prefix(t.FAILURE_NAME, _ONE, t.SUCCESS), "reactive", {})


def canonical_tests(names, depth: int) -> Iterator[Test]:
    """Name-deterministic tests with one success path of length <= depth,
    shortest first, each made when it is consumed.

    Each step picks a permitted environment set and the single name that
    continues towards success; every other permitted name fails in one
    step through the reserved name z.  Each layer is kept as the states
    of the next layer's continuations.  A new test is made as its root
    state alone, from its environment, its continuation's state and the
    state of the failure node <z,*1>.s, which all tests share: it
    indexes no term, and builds its term only when that is first read.
    """
    if depth < 0:
        raise CalcError(f"test depth must be at least 0, got {depth}")
    universe = sorted(set(names))
    t.require_names(universe, "environment name")
    if t.TAU in universe or t.FAILURE_NAME in universe:
        raise ReservedNameError("environment names must be visible and distinct from z")
    environments = [
        combination
        for size in range(1, len(universe) + 1)
        for combination in combinations(universe, size)
    ]

    def layers() -> Iterator[Test]:
        test = Test(t.SUCCESS, "reactive")
        yield test
        if not environments:  # no names: s is the only test
            return
        layer = [test.root]
        for level in range(1, depth + 1):
            previous, layer = layer, []
            for environment in environments:
                for name in environment:
                    for continuation in previous:
                        root = TestState(tuple([
                            (b, _ONE, continuation if b == name else _FAILURE_STATE)
                            for b in environment]), False, continuation.live)
                        if level < depth:
                            layer.append(root)
                        yield _test_of(root, "reactive")

    return layers()


_EDITS = {
    "liberal": lambda node: TestState(node.summands, True, True),
    "tau": lambda node: TestState(((t.TAU, t.Rate(1), node),), False, node.live),
}


def _edited(node: TestState, edit) -> Iterator[TestState]:
    """node with edit applied at one node at a time, in pre-order over
    the nodes other than s reached through visible names other than z:
    the success path and the first step of each failure branch.  Only
    the edited node and the nodes on the path to it are new."""
    if node.successful:
        return
    yield edit(node)
    for i, (name, rate, body) in enumerate(node.summands):
        if name != t.FAILURE_NAME:
            for inner in _edited(body, edit):
                summands = node.summands[:i] + ((name, rate, inner),) + node.summands[i + 1:]
                yield TestState(summands, False, node.live or inner.live)


def flavored_tests(base: Iterable[Test], flavor: str) -> Iterable[Test]:
    """The reactive base tests in the given flavor.  Reactive tests are
    the base itself.  Liberal tests adjoin s as an extra summand, tau
    tests put a <tau,1> step first, at one node at a time: each base test
    is followed by its variants.  A variant is made from states, as a
    canonical test is: it keeps the states of its base test beside the
    edit, and builds its term only when that is read."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown test flavor {flavor!r}")
    if flavor == "reactive":
        return base
    edit = _EDITS[flavor]

    def variants() -> Iterator[Test]:
        for test in base:
            if test.flavor != "reactive":
                raise ValueError(f"base tests must be reactive, got a {test.flavor} test")
            root = test.root
            # a new root, not the base's own: canonical_tests keeps that as
            # a continuation of its next layer, so a search's memo entries
            # on it would outlive the test
            yield _test_of(TestState(root.summands, root.successful, root.live, root.term), flavor)
            for variant in _edited(root, edit):
                yield _test_of(variant, flavor)

    return variants()
