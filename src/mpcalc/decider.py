"""Exact decision procedure for testing equivalence.

Each performance-closed process embeds into a finite DTMC whose steps are
labeled with the action name, the ready set of the source state (timed tau
included) and the source's total exit rate.  Two processes are testing
equivalent iff the embeddings assign equal probability to every finite
word of augmented labels, which a Tzeng-style span computation decides in
polynomial time with exact arithmetic.

Two linear functionals are compared along the way: the all-ones vector
(probability that a run starts with the word) and the terminal vector
(probability that the word is performed and then the process stops).  The
all-ones check is the operative one; terminal mass alone misses pairs
that differ only in non-terminating behavior, such as

    <a,1>.rec X:<b,1>.X + <a,1>.rec Y:<c,1>.Y   vs. rates 1/2 and 3/2,

where every word has terminal mass 0 on both sides yet the b-word
probabilities differ.  Terminal mass is kept because it makes the
empty-word difference (one side stops, the other does not) immediate.
"""

from __future__ import annotations

import dataclasses as d
from collections import deque
from fractions import Fraction
from math import gcd, lcm

from . import terms as t
from .errors import NotPerformanceClosed
from .oracle import environment_tests, search_witness
from .semantics import LMTS, build_lts

Vector = tuple[Fraction, ...]


@d.dataclass(frozen=True)
class AugmentedLabel:
    """One DTMC step: action name, ready set and total exit rate of the
    source state."""

    ready: frozenset[str]
    name: str
    exit_rate: Fraction

    @property
    def sort_key(self):
        return (tuple(sorted(self.ready)), self.name, self.exit_rate)

    def __str__(self) -> str:
        ready = ",".join(sorted(self.ready))
        return f"<{{{ready}}} {self.name} @{self.exit_rate}>"


@d.dataclass(frozen=True)
class WeightedAutomaton:
    size: int
    init: Vector
    terminal: Vector
    # label -> source -> ((target, probability), ...)
    matrices: dict[AugmentedLabel, dict[int, tuple[tuple[int, Fraction], ...]]]


def embed(lts: LMTS) -> WeightedAutomaton:
    """Embedded DTMC of a performance-closed LMTS."""
    if not lts.performance_closed:
        raise NotPerformanceClosed("embedding requires a performance-closed process")
    n = len(lts.states)
    init = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    terminal = [Fraction(0)] * n
    rows: dict[AugmentedLabel, dict[int, dict[int, Fraction]]] = {}
    for i, moves in enumerate(lts.moves):
        if not moves:
            terminal[i] = Fraction(1)
            continue
        exit_rate = sum((rate for _, rate, _ in moves), Fraction(0))
        ready = frozenset(name for name, _, _ in moves)
        for name, rate, j in moves:
            label = AugmentedLabel(ready, name, exit_rate)
            row = rows.setdefault(label, {}).setdefault(i, {})
            row[j] = row.get(j, Fraction(0)) + rate / exit_rate
    matrices = {
        label: {src: tuple(sorted(row.items())) for src, row in by_src.items()}
        for label, by_src in rows.items()
    }
    return WeightedAutomaton(n, init, tuple(terminal), matrices)


@d.dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    witness_word: tuple[AugmentedLabel, ...] | None
    basis_size: int
    dimension: int


def _integers(values: Vector) -> list[int]:
    """The integer vector with no common factor that is a positive multiple
    of the rational vector values; all zeros stays all zeros."""
    scale = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_rows(a1: WeightedAutomaton, a2: WeightedAutomaton,
                  labels: list[AugmentedLabel]) -> list[tuple[AugmentedLabel, list]]:
    """Per label, in order, the (source, ((target, weight), ...)) rows of
    both automata over the joint state space, a2's states after a1's.  A
    label's weights are its probabilities times the least common multiple
    of their denominators, so each row is a positive multiple of the label
    matrix's row, one multiple for the whole label."""
    steps = []
    for label in labels:
        sides = [(shift, auto.matrices.get(label, {}))
                 for shift, auto in ((0, a1), (a1.size, a2))]
        scale = lcm(*(p.denominator for _, matrix in sides
                      for row in matrix.values() for _, p in row))
        steps.append((label, [
            (shift + src, tuple((shift + tgt, p.numerator * (scale // p.denominator))
                                for tgt, p in row))
            for shift, matrix in sides for src, row in matrix.items()]))
    return steps


def prob_language_equiv(a1: WeightedAutomaton, a2: WeightedAutomaton) -> EquivReport:
    """Decide whether the two automata give every augmented-label word the
    same probability.  Returns a shortest differing word otherwise.

    The vector reached by a word w is an integer vector with no common
    factor, a nonzero multiple of the exact product init * M_w.  Both
    functionals are zero tests and the span of a set of vectors does not
    change when one is scaled, so every test here answers as it would on
    the exact products: a functional violation translates directly into
    the witness word.  The echelon basis of the vectors' residuals, built
    by fraction-free row reduction, only bounds the exploration, which
    therefore adds at most size1 + size2 vectors.
    """
    dim = a1.size + a2.size
    labels = sorted(
        set(a1.matrices) | set(a2.matrices), key=lambda label: label.sort_key
    )
    steps = _integer_rows(a1, a2, labels)
    # Sign convention: the difference lives in the start vector, so both
    # functionals are applied unsigned.
    v0 = _integers(list(a1.init) + [-x for x in a2.init])
    f_term = _integers(list(a1.terminal) + list(a2.terminal))

    def violates(v: list[int]) -> bool:
        if sum(v) != 0:
            return True
        return sum(x * w for x, w in zip(v, f_term)) != 0

    # pivot -> basis vector with no common factor whose first nonzero
    # entry is at the pivot
    basis: dict[int, list[int]] = {}

    def insert(v: list[int]) -> bool:
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

    queue: deque[tuple[list[int], tuple[AugmentedLabel, ...]]] = deque()
    if violates(v0):
        return EquivReport(False, (), 0, dim)
    if insert(v0):
        queue.append((v0, ()))
    while queue:
        vector, word = queue.popleft()
        for label, rows in steps:
            out = [0] * dim
            for src, row in rows:
                value = vector[src]
                if value:
                    for tgt, weight in row:
                        out[tgt] += value * weight
            if not any(out):
                continue
            extended = word + (label,)
            if violates(out):
                return EquivReport(False, extended, len(basis), dim)
            g = gcd(*out)
            if g > 1:
                out = [x // g for x in out]
            if insert(out):
                queue.append((out, extended))
    assert len(basis) <= dim
    return EquivReport(True, None, len(basis), dim)


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

    On inequivalence the label-word witness is translated into a concrete
    distinguishing (canonical test, theta) pair by the oracle's test
    search, run on the two LMTSs built here, whenever the word is short
    enough for the search depth.
    """
    lts1 = build_lts(p1, state_bound)
    lts2 = build_lts(p2, state_bound)
    for which, lts in (("left", lts1), ("right", lts2)):
        if not lts.performance_closed:
            raise NotPerformanceClosed(f"{which} process is not performance-closed")
    report = prob_language_equiv(embed(lts1), embed(lts2))
    sizes = (len(lts1.states), len(lts2.states))
    if report.equivalent:
        return Verdict(
            True,
            basis_size=report.basis_size,
            dimension=report.dimension,
            state_counts=sizes,
        )
    witness_test = None
    witness_theta = None
    if with_test_witness:
        word = report.witness_word or ()
        depth = max(1, min(len(word), 4))
        max_len = max(1, min(len(word), 6))
        tests = environment_tests(lts1, lts2, depth)
        verdict = search_witness(lts1, lts2, tests, max_len)
        if not verdict.equivalent:
            witness_test = verdict.witness_test
            witness_theta = verdict.witness_theta
    return Verdict(
        False,
        witness_word=report.witness_word,
        witness_test=witness_test,
        witness_theta=witness_theta,
        basis_size=report.basis_size,
        dimension=report.dimension,
        state_counts=sizes,
    )
