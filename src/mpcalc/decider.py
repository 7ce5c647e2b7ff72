"""Exact decision procedure for testing equivalence.

Each performance-closed process embeds into a finite weighted automaton
whose letters are the steps of the process as a reactive test node sees
them.  A node that offers the names E races the source state's moves on
E and on tau, at total rate R(rho, E) = rho(tau) + sum over b in E of
rho(b), where rho is the source's per-name rate table; the moves on
other names are blocked.  So a move on a name a in E, or on tau, is the
letter (E, a, R(rho, E)) with weight rate / R(rho, E), and has mean
sojourn 1 / R(rho, E).  E ranges over the sets of names visible in
either process, the empty set included: that is the success state s,
under which only tau moves.  A tau move leaves the node where it is, so
the letter after a tau letter is one that the same node gives; the span
below keeps to such words.  decide_equiv calls two processes equivalent iff the
embeddings assign equal probability to every such word, which a
Tzeng-style span computation decides with exact arithmetic.  Every
reactive test's measure is a linear image of these probabilities, so
equal words give equal tests; the converse is cross-checked against the
bounded testing oracle.

Only part of E shows in a letter.  A move on a reads E only through the
names that its source offers, and every state that offers a offers
names from the scope of a: the names that some state of either process
offers together with a.  So E and E' that agree on that scope give the
same letter, which keeps E's part in the scope.  A tau letter keeps the
part of E in the scope of tau, the names offered where tau moves start
or end; after it, the move on b that the same node takes starts where a
tau move ended, so its letter keeps the names of both scopes that E
holds.  The letters per state are exponential in the size of a scope,
not of the whole name set; the time is polynomial in the state counts
for scopes of bounded size.

Ready set and exit rate alone do not fix what a test sees:

    <c,1>.(<a,1>.0 + <b,3>.0) + <c,1>.(<a,3>.0 + <b,1>.0)
    vs. <c,2>.(<a,2>.0 + <b,2>.0)

offer a and b at exit rate 4 after c on both sides, but <c,*1>.<a,*1>.s
passes them with probabilities 1/2 and 0 within theta (1/2, 1/3), and
the letter <{a} a @1> has probability 1/2 and 0 after <{c} c @2>.  The
whole rate table is more than a reactive test sees: a pair can differ
in the joint law of rho(a) and rho(b) after c, and still agree in the
law of rho(a), of rho(b) and of rho(a) + rho(b), and in the a-weight at
each exit rate; then no reactive test tells them apart and the letters
above agree.  A tau test whose node races a timed tau beside passive
names, <a,*1>.T + <tau,1>.T', reads the joint law and does tell them
apart; the flavored tests of the testing module never put a timed tau
beside a passive summand, and this procedure decides the equivalence of
the reactive tests.  A letter prints as <{a,b} a @4>: the offered set,
the name, and R; a tau letter shows tau in its set, as <{b,tau} tau @2>.

The same reading fixes which lengths the witness search has to measure.
A canonical test is name-deterministic, so the node that follows a word
is fixed, and the test's measure at length k is a fixed linear image of
the probabilities of the words of length k.  The span reports a
shortest differing word, of length L say, so every shorter word has
equal probability on both sides and no canonical test differs at a
length below L: decide_equiv measures each test from length L on only.

Two linear functionals are compared along the way: the all-ones vector
(probability that a run starts with the word) and the terminal vector
(probability that the word is performed and then the process stops).  The
all-ones check is the operative one; terminal mass alone misses pairs
that differ only in non-terminating behavior, such as

    <a,1>.rec X:<b,1>.X + <a,1>.rec Y:<c,1>.Y   vs. rates 1/2 and 3/2,

where every word has terminal mass 0 on both sides yet the b-word
probabilities differ.  Terminal mass is kept because it makes the
empty-word difference (one side stops, the other does not) immediate.
It is read only where the test may offer every name next: after a tau
letter, a process that stops and one that offers only names the locked
set blocks look the same to the test.

The arithmetic is exact and on integers.  embed scales every rate of an
LMTS by D, the least common multiple of its rate denominators, and keys
a letter by (E, a, R * D); the span scales both sides to the least
common multiple of their D, so a letter's integer matrix is one positive
multiple of its probabilities on both sides.  Fractions are made only
for the witness word and for the matrices view of an automaton.
"""

from __future__ import annotations

import dataclasses as d
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from . import terms as t
from .errors import NotPerformanceClosed
from .oracle import environment_tests, search_witness
from .semantics import LMTS, build_lts

Vector = tuple[int, ...]
# A label as an automaton keys it: (offered, name, R * D), the rate R an
# integer over the automaton's scale D
Key = tuple[tuple[str, ...], str, int]


def _shown(offered: tuple[str, ...], name: str) -> tuple[str, ...]:
    """The offered names, with tau for a tau step."""
    return tuple(sorted(offered + (t.TAU,))) if name == t.TAU else offered


def _sort_key(offered: tuple[str, ...], name: str, rate):
    # smaller sets first, so a word keeps to the names it needs
    shown = _shown(offered, name)
    return (len(shown), shown, name, rate)


@d.dataclass(frozen=True)
class AugmentedLabel:
    """One step as a reactive test node sees it: the sorted names the
    node offers, the action name (one of them, or tau), and the rate R at
    which the source's moves on the offered names and on tau race."""

    offered: tuple[str, ...]
    name: str
    rate: Fraction

    @property
    def shown(self) -> tuple[str, ...]:
        return _shown(self.offered, self.name)

    @property
    def sort_key(self):
        return _sort_key(self.offered, self.name, self.rate)

    def __str__(self) -> str:
        return f"<{{{','.join(self.shown)}}} {self.name} @{self.rate}>"


# name -> the names that the letters of its moves may offer, sorted
Scope = dict[str, tuple[str, ...]]


@d.dataclass(frozen=True)
class WeightedAutomaton:
    """An embedded LMTS on integer rates: every rate is an integer over
    scale, the least common multiple D of the LMTS's rate denominators.
    rows maps each label (offered, name, R * D) to its rows, source ->
    ((target, rate * D), ...): the label's probabilities times R * D.
    init and terminal are 0/1 vectors over the states."""

    size: int
    init: Vector
    terminal: Vector
    rows: dict[Key, dict[int, tuple[tuple[int, int], ...]]]
    scale: int
    scope: Scope = d.field(default_factory=dict)

    @cached_property
    def matrices(self) -> dict[AugmentedLabel, dict[int, tuple[tuple[int, Fraction], ...]]]:
        """The label matrices as exact probabilities: label -> source ->
        ((target, probability), ...)."""
        return {AugmentedLabel(offered, name, Fraction(race, self.scale)):
                {src: tuple((tgt, Fraction(weight, race)) for tgt, weight in row)
                 for src, row in by_src.items()}
                for (offered, name, race), by_src in self.rows.items()}


def scope_of(*ltss: LMTS) -> Scope:
    """The scope of each name moved on in the LMTSs: for a visible name,
    the names that some state offers together with it; for tau, the
    names offered by the states that a tau move leaves or enters."""
    scope: dict[str, set[str]] = {}
    for lts in ltss:
        ready = [{row[0] for row in group if row[0] != t.TAU} for group in lts.rows]
        for i, group in enumerate(lts.rows):
            for name, _, j, _ in group:
                names = scope.setdefault(name, set())
                names |= ready[i]
                if name == t.TAU:
                    names |= ready[j]
    return {name: tuple(sorted(names)) for name, names in scope.items()}


def embed(lts: LMTS, scope: Scope | None = None) -> WeightedAutomaton:
    """The weighted automaton of a performance-closed LMTS as reactive
    tests see it: from each state, each move on a name, visible or tau,
    is the label (E, name, R) with weight rate / R, for each subset E of
    the name's scope that holds a visible name; R is the state's total
    rate on E and tau.  The scope defaults to the LMTS's own.

    The automaton keeps every rate as an integer over D, the least
    common multiple of the LMTS's rate denominators: a move's row entry
    is its rate times D and its label is keyed by R * D, so the label's
    probabilities are its entries over R * D."""
    if not lts.performance_closed:
        raise NotPerformanceClosed("embedding requires a performance-closed process")
    if scope is None:
        scope = scope_of(lts)
    offers = {name: [offered for size in range(len(names) + 1)
                     for offered in combinations(names, size)
                     if name == t.TAU or name in offered]
              for name, names in scope.items()}
    scale = lcm(*{rate.value.denominator for group in lts.rows for _, rate, _, _ in group})
    n = len(lts.states)
    init = (1,) + (0,) * (n - 1)
    terminal = [0] * n
    entries: dict[Key, dict[int, dict[int, int]]] = {}
    for i, group in enumerate(lts.rows):
        if not group:
            terminal[i] = 1
            continue
        moves = []
        table: dict[str, int] = {}
        for name, rate, j, count in group:
            value = rate.value
            weight = value.numerator * (scale // value.denominator) * count
            moves.append((name, weight, j))
            table[name] = table.get(name, 0) + weight
        tau = table.get(t.TAU, 0)
        for name, weight, j in moves:
            for offered in offers[name]:
                race = sum([table[b] for b in offered if b in table], tau)
                row = entries.setdefault((offered, name, race), {}).setdefault(i, {})
                row[j] = row.get(j, 0) + weight
    rows = {key: {src: tuple(sorted(row.items())) for src, row in by_src.items()}
            for key, by_src in entries.items()}
    return WeightedAutomaton(n, init, tuple(terminal), rows, scale, scope)


def embed_pair(lts1: LMTS, lts2: LMTS) -> tuple[WeightedAutomaton, WeightedAutomaton]:
    """Both LMTSs embedded over the scope of both."""
    scope = scope_of(lts1, lts2)
    return embed(lts1, scope), embed(lts2, scope)


@d.dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    witness_word: tuple[AugmentedLabel, ...] | None
    basis_size: int
    dimension: int


def _joint_rows(a1: WeightedAutomaton, a2: WeightedAutomaton,
                scale: int) -> dict[Key, list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """Per label (offered, name, R * scale), the (source, ((target,
    weight), ...)) rows of both automata over the joint state space, a2's
    states after a1's.  Side i's rates are scaled by scale / D_i, so a
    label's weights are its probabilities times R * scale on both sides:
    one positive multiple for the whole label."""
    joint: dict[Key, list] = {}
    for shift, auto in ((0, a1), (a1.size, a2)):
        factor = scale // auto.scale
        for (offered, name, race), by_src in auto.rows.items():
            rows = joint.setdefault((offered, name, race * factor), [])
            if shift == 0 and factor == 1:
                rows.extend(by_src.items())
            else:
                rows.extend((shift + src, tuple((shift + tgt, weight * factor)
                                                for tgt, weight in row))
                            for src, row in by_src.items())
    return joint


def prob_language_equiv(a1: WeightedAutomaton, a2: WeightedAutomaton) -> EquivReport:
    """Decide whether the two automata, embedded over the same scope, give
    every word that a reactive test can read the same probability: every
    word in which a tau label is followed by a label that the same test
    node gives.  Returns a shortest differing word otherwise.

    The span runs over the joint state space of both automata once for
    the free words, which end in a visible label or are empty, and once
    for each offered set E of a tau label, for the words that end in a
    tau label offering E: from there only the tau labels offering E and
    the labels of the names b in E offering the part of E in the scope
    of b go on.  Each part has its own basis; dimension counts every
    part.

    Both sides are joined on integer rates over L, the least common
    multiple of their scales, so each label's integer matrix is R * L
    times its probabilities, one positive multiple on both sides.  The
    vector reached by a word w is an integer vector with no common
    factor, a nonzero multiple of the exact product init * M_w.  Both
    functionals are zero tests and the span of a set of vectors does not
    change when one is scaled, so every test here answers as it would on
    the exact products: a functional violation translates directly into
    the witness word.  The echelon basis of each part's residuals, built
    by fraction-free row reduction, only bounds the exploration, which
    therefore adds at most size1 + size2 vectors to each part.
    """
    if a1.scope != a2.scope:
        raise ValueError(f"automata embedded over different scopes: {a1.scope} and {a2.scope}")
    dim = a1.size + a2.size
    common = lcm(a1.scale, a2.scale)
    joint = _joint_rows(a1, a2, common)
    labels = sorted(joint, key=lambda key: _sort_key(*key))
    # part None holds the free words, part E the words that end in a tau
    # label offering E; a step's part is the one its label leads to
    parts: dict[tuple[str, ...] | None, list] = {None: [
        (label, label[0] if label[1] == t.TAU else None, joint[label]) for label in labels]}
    for _, part, _ in parts[None]:
        if part is not None and part not in parts:
            node = {(t.TAU, part)} | {
                (name, tuple(b for b in part if b in a1.scope[name])) for name in part}
            parts[part] = [step for step in parts[None] if (step[0][1], step[0][0]) in node]
    dimension = dim * len(parts)
    # Sign convention: the difference lives in the start vector, so both
    # functionals are applied unsigned.
    v0 = list(a1.init) + [-x for x in a2.init]
    f_term = list(a1.terminal) + list(a2.terminal)

    def violates(v: list[int], part) -> bool:
        if sum(v) != 0:
            return True
        return part is None and sum(x * w for x, w in zip(v, f_term)) != 0

    # part -> pivot -> basis vector with no common factor whose first
    # nonzero entry is at the pivot
    bases: dict[tuple[str, ...] | None, dict[int, list[int]]] = {part: {} for part in parts}

    def insert(v: list[int], basis: dict[int, list[int]]) -> bool:
        """Add the residual of v to the basis; False when v is in its span."""
        r = v
        for pivot in sorted(basis):
            if r[pivot]:
                b = basis[pivot]
                g = gcd(b[pivot], r[pivot])
                scale, coeff = b[pivot] // g, r[pivot] // g
                r = [scale * x - coeff * y for x, y in zip(r, b)]
        for pivot in range(dim):
            if r[pivot]:
                g = gcd(*r)
                basis[pivot] = [x // g for x in r] if g > 1 else r
                return True
        return False

    def basis_size() -> int:
        return sum(len(basis) for basis in bases.values())

    def report(word: tuple[Key, ...]) -> EquivReport:
        return EquivReport(False, tuple(AugmentedLabel(offered, name, Fraction(race, common))
                                        for offered, name, race in word),
                           basis_size(), dimension)

    queue: deque[tuple[tuple[str, ...] | None, list[int], tuple[Key, ...]]] = deque()
    if violates(v0, None):
        return report(())
    if insert(v0, bases[None]):
        queue.append((None, v0, ()))
    while queue:
        part, vector, word = queue.popleft()
        for label, target, rows in parts[part]:
            out = [0] * dim
            for src, row in rows:
                value = vector[src]
                if value:
                    for tgt, weight in row:
                        out[tgt] += value * weight
            if not any(out):
                continue
            extended = word + (label,)
            if violates(out, target):
                return report(extended)
            g = gcd(*out)
            if g > 1:
                out = [x // g for x in out]
            if insert(out, bases[target]):
                queue.append((target, out, extended))
    assert all(len(basis) <= dim for basis in bases.values())
    return EquivReport(True, None, basis_size(), dimension)


# Bounds of decide_equiv's witness search: the depth of the canonical
# tests it tries and the longest label word it looks for a test of.
SEARCH_DEPTH = 4
SEARCH_LENGTH = 6


@d.dataclass(frozen=True)
class Verdict:
    equivalent: bool
    witness_word: tuple[AugmentedLabel, ...] | None = None
    witness_test: object | None = None
    witness_theta: tuple[Fraction, ...] | None = None
    basis_size: int = 0
    dimension: int = 0
    state_counts: tuple[int, int] = (0, 0)

    def __bool__(self) -> bool:
        return self.equivalent


def decide_equiv(
    p1: t.ProcessTerm,
    p2: t.ProcessTerm,
    state_bound: int = 10000,
    with_test_witness: bool = True,
) -> Verdict:
    """Decide testing equivalence of two performance-closed processes.

    On inequivalence the label-word witness, of length L, is translated
    into a concrete distinguishing (canonical test, theta) pair by the
    oracle's test search over the canonical tests of depth up to
    max(1, min(L, SEARCH_DEPTH)), run on the two LMTSs built here.  It
    measures each test from length L up to max(1, L): no canonical test
    differs at a shorter length (see search_witness).  It is skipped, with
    no test found, when L exceeds SEARCH_LENGTH, or when both processes
    are tau-free and L exceeds SEARCH_DEPTH: on a tau-free process a
    canonical test of depth d has successful computations of length d
    only, so no test the search may try has mass at length L.
    """
    lts1 = build_lts(p1, state_bound)
    lts2 = build_lts(p2, state_bound)
    for which, lts in (("left", lts1), ("right", lts2)):
        if not lts.performance_closed:
            raise NotPerformanceClosed(f"{which} process is not performance-closed")
    a1, a2 = embed_pair(lts1, lts2)
    report = prob_language_equiv(a1, a2)
    witness_test = witness_theta = None
    length = len(report.witness_word or ())
    # scope_of keys tau exactly when either LMTS moves on tau
    if (not report.equivalent and with_test_witness and length <= SEARCH_LENGTH
            and (length <= SEARCH_DEPTH or t.TAU in a1.scope)):
        tests = environment_tests(lts1, lts2, max(1, min(length, SEARCH_DEPTH)))
        found = search_witness(lts1, lts2, tests, max(1, length), length)
        witness_test, witness_theta = found.witness_test, found.witness_theta
    return Verdict(report.equivalent, report.witness_word, witness_test, witness_theta,
                   report.basis_size, report.dimension,
                   (len(lts1.states), len(lts2.states)))
