"""Quantitative modal logic over performance-closed terms.

Formulas are two-level: true may appear under a diamond but never as a
disjunct, and the disjuncts of every Or must have disjoint initial action
sets.  The interpretation eval(P, theta, phi) is the probability that P
satisfies phi quickly enough on average, one theta entry per computation
step.  Disjunctions weight each disjunct by the probability of moving
into it at all (p_j) and grant it the extra average sojourn time (t_j)
freed up by dropping the competing initial actions; both corrections keep
the value aligned with what a canonical reactive test offering the same
initial actions would measure.

Formulas are evaluated on the state indices of the process's LMTS,
reading each state's moves from LMTS.moves, the move table that the
decider's embedding and the interaction product of the testing module
read too.  A disjunct sees its state without the tau moves: the memo key
(state, tau_stripped, theta, formula) carries that as a flag, so no
term is rebuilt.

characterization_check builds each side's LMTS once, sweeps enumerated
formulas against a time grid and cross-checks the outcome with the exact
decider: a differing (phi, theta) on a decider-equivalent pair is a bug
witness in one of the two, never something to patch over.

The sweep evaluates each formula's cut at most once.  Every diamond step
uses up one theta entry and every tau move one more, while an Or hands
its disjuncts a theta of the same length; at an empty theta true is
worth 1 and every other formula 0.  So with thetas of at most n entries
a value depends only on the formula's shape down to diamond depth n
(Or disjunct names included, since they sit at the Or's own depth), with
each deeper body reduced to "true or not".  A formula whose cut an
earlier formula already had takes the same values as that formula on
both sides at every swept theta, so it cannot show a difference that the
earlier one did not; it is counted in formulas_checked but not
evaluated again, and the report stays the one of the full sweep.  Which
formulas are evaluated depends only on the names and the two depths, so
that list is worked out once for each and kept in a small cache.
"""

from __future__ import annotations

import dataclasses as d
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as cartesian
from typing import Iterable, Sequence

from . import terms as t
from .computations import Theta, breakpoint_grid, make_theta
from .decider import embed_pair, prob_language_equiv
from .errors import CalcError, NotPerformanceClosed, NotWellFormed, ReservedNameError
from .semantics import build_lts

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Formula:
    """Base class; instances are TRUE, Diamond, or Or nodes."""

    __slots__ = ()


class _True(Formula):
    __slots__ = ()
    initial: frozenset[str] = frozenset()

    def __repr__(self) -> str:
        return "TRUE"

    def __str__(self) -> str:
        return "true"

    def __reduce__(self) -> str:
        return "TRUE"  # unpickles to the one instance


TRUE = _True()


def _head(formula: Formula) -> str:
    # Diamond bodies reparse at head level, so an Or body needs parens.
    return f"({formula})" if isinstance(formula, Or) else str(formula)


# Diamond and Or compute their hash once, when the node is built, so a
# memo lookup does not rehash the whole formula.  Pickling rebuilds the
# node, because string hashes differ between processes.

@d.dataclass(frozen=True)
class Diamond(Formula):
    name: str
    body: Formula
    initial: frozenset[str] = d.field(init=False, repr=False, compare=False)
    _hash: int = d.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name == t.TAU:
            raise NotWellFormed("diamond actions must be visible")
        if self.name == t.FAILURE_NAME:
            raise ReservedNameError(f"name {t.FAILURE_NAME!r} is reserved for tests")
        if not isinstance(self.body, Formula):
            raise NotWellFormed(f"not a formula: {self.body!r}")
        object.__setattr__(self, "initial", frozenset((self.name,)))
        object.__setattr__(self, "_hash", hash((Diamond, self.name, self.body)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Diamond, (self.name, self.body)

    def __str__(self) -> str:
        return f"<{self.name}>{_head(self.body)}"


@d.dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula
    initial: frozenset[str] = d.field(init=False, repr=False, compare=False)
    _hash: int = d.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for side in (self.left, self.right):
            if not isinstance(side, Formula):
                raise NotWellFormed(f"not a formula: {side!r}")
            if isinstance(side, _True):
                raise NotWellFormed("true cannot be a disjunct")
        left, right = init(self.left), init(self.right)
        if left & right:
            raise NotWellFormed(
                "disjuncts must have disjoint initial action sets")
        object.__setattr__(self, "initial", left | right)
        object.__setattr__(self, "_hash", hash((Or, self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Or, (self.left, self.right)

    def __str__(self) -> str:
        left = f"({self.left})" if isinstance(self.left, Or) else str(self.left)
        return f"{left} \\/ {self.right}"


def init(formula: Formula) -> frozenset[str]:
    """Initial visible actions of a formula, computed when its node was
    built."""
    if not isinstance(formula, (_True, Diamond, Or)):
        raise NotWellFormed(f"not a formula: {formula!r}")
    return formula.initial


class _Semantics:
    """Formula values on the states of one performance-closed LMTS.

    Values are memoized on (state, tau_stripped, theta, formula); with
    tau_stripped set a state is evaluated as if its tau moves were absent,
    which is how an Or disjunct sees the process.  A theta is an interned
    id: id 0 is the empty sequence and every other id stands for a head
    time consed onto the id of the rest, so no memo key hashes a tuple of
    fractions.  Each state's rate over a set of initial names, and the
    reciprocal that the time guards compare against, are worked out once.
    """

    def __init__(self, process: t.ProcessTerm, state_bound: int):
        self.lts = build_lts(process, state_bound)
        if not self.lts.performance_closed:
            raise NotPerformanceClosed(
                f"formula interpretation needs a performance-closed term: {process}")
        self.moves = self.lts.moves
        self.rates: dict[tuple[int, frozenset[str], bool],
                         tuple[Fraction, Fraction | None]] = {}
        self.memo: dict[tuple[int, bool, int, Formula], Fraction] = {}
        self.heads: list[Fraction] = [_ZERO]
        self.rests: list[int] = [0]
        self.theta_ids: dict[tuple[Fraction, int], int] = {}

    def cons(self, head: Fraction, rest: int) -> int:
        """Id of the theta that starts with head and goes on as rest."""
        key = (head, rest)
        found = self.theta_ids.get(key)
        if found is None:
            found = self.theta_ids[key] = len(self.heads)
            self.heads.append(head)
            self.rests.append(rest)
        return found

    def intern(self, theta: Theta) -> int:
        """Id of a theta given as a tuple."""
        found = 0
        for head in reversed(theta):
            found = self.cons(head, found)
        return found

    def rate(self, state: int, names: frozenset[str],
             with_tau: bool) -> tuple[Fraction, Fraction | None]:
        """Total rate of the state's moves on names (and on tau if
        with_tau), with its reciprocal, or None when the rate is 0."""
        key = (state, names, with_tau)
        entry = self.rates.get(key)
        if entry is None:
            value = sum((rate for name, rate, _ in self.moves[state]
                         if name in names or (with_tau and name == t.TAU)), _ZERO)
            entry = (value, _ONE / value if value else None)
            self.rates[key] = entry
        return entry

    def value(self, state: int, tau_stripped: bool, theta: int,
              formula: Formula) -> Fraction:
        key = (state, tau_stripped, theta, formula)
        cached = self.memo.get(key)
        if cached is None:
            cached = self._clause(state, tau_stripped, theta, formula)
            self.memo[key] = cached
        return cached

    def _clause(self, state: int, tau_stripped: bool, theta: int,
                formula: Formula) -> Fraction:
        if not theta:
            return _ONE if isinstance(formula, _True) else _ZERO
        _, mean_time = self.rate(state, formula.initial, not tau_stripped)
        if mean_time is None:
            return _ZERO
        head, rest = self.heads[theta], self.rests[theta]
        # Or has no time guard of its own; the adjusted head times are
        # checked by the inner clauses.
        if not isinstance(formula, Or) and mean_time > head:
            return _ZERO
        # Each branch weighs rate over the rate that mean_time is the
        # reciprocal of: total sums rate * value and is scaled once.
        total = _ZERO
        for name, rate, target in self.moves[state]:
            if name == t.TAU and not tau_stripped:
                # past an initial tau the whole formula races on
                part = self.value(target, False, rest, formula)
            elif isinstance(formula, Diamond) and name == formula.name:
                part = self.value(target, False, rest, formula.body)
            else:
                continue
            if part:
                total += rate * part
        if isinstance(formula, Or):
            # weight each disjunct and grant it the freed-up sojourn time
            for disjunct in (formula.left, formula.right):
                numerator, disjunct_time = self.rate(state, disjunct.initial, False)
                if disjunct_time is None:
                    continue
                adjusted = head + (disjunct_time - mean_time)
                part = self.value(state, True, self.cons(adjusted, rest), disjunct)
                if part:
                    total += numerator * part
        return total * mean_time if total else _ZERO


def eval(process: t.ProcessTerm, theta: Theta, formula: Formula,
         state_bound: int = 10000) -> Fraction:
    """Probability that process satisfies formula quickly enough.

    theta holds one average-time upper bound per computation step; the
    value is an exact rational in [0, 1].
    """
    if not isinstance(formula, Formula):
        raise NotWellFormed(f"not a formula: {formula!r}")
    semantics = _Semantics(process, state_bound)
    return semantics.value(0, False, semantics.intern(make_theta(theta)), formula)


# The most formulas enumerate_formulas makes, and so characterization_check
# sweeps.  The 676 over two names at depth 3 and 729 over three at depth 2
# pass, and so do 8,192 over 13 names at depth 1; four names at depth 2
# make 83,521 (a 48 s sweep of an equivalent pair), three at depth 3
# 389,017,000.
FORMULA_BUDGET = 10_000


def formula_count(names: int, formula_depth: int) -> int:
    """How many formulas enumerate_formulas makes over that many names,
    or FORMULA_BUDGET + 1 if that is more.  With L formulas at one depth,
    the next has true, n L diamonds and C(n, s) L^s disjunctions of s >= 2
    distinct heads: 1 + n L + sum_s C(n, s) L^s = (1 + L)^n."""
    count = 1
    for _ in range(formula_depth if names else 0):
        count = (1 + count) ** names
        if count > FORMULA_BUDGET:
            return FORMULA_BUDGET + 1
    return count


def enumerate_formulas(names: Iterable[str], formula_depth: int) -> list[Formula]:
    """All formulas over names up to the given diamond depth.

    Disjunctions are canonical: right-nested, one diamond per head name,
    heads in sorted order.  Other associations of the same disjunct set
    are not generated.  CalcError is raised, before any is made, when
    there would be more than FORMULA_BUDGET.
    """
    if formula_depth < 0:
        raise ValueError(f"formula depth must be at least 0, got {formula_depth}")
    ordered = sorted(set(names))
    t.require_names(ordered, "diamond name")
    if t.TAU in ordered:
        raise NotWellFormed("diamond actions must be visible")
    if t.FAILURE_NAME in ordered:
        raise ReservedNameError(f"name {t.FAILURE_NAME!r} is reserved for tests")
    if formula_count(len(ordered), formula_depth) > FORMULA_BUDGET:
        raise CalcError(f"{len(ordered)} names at formula depth {formula_depth} make more "
                        f"than FORMULA_BUDGET ({FORMULA_BUDGET}) formulas")
    levels: list[list[Formula]] = [[TRUE]]
    for level in range(1, formula_depth + 1):
        diamonds = [Diamond(name, body)
                    for name in ordered for body in levels[level - 1]]
        by_name = {name: [f for f in diamonds if f.name == name]
                   for name in ordered}
        ors: list[Formula] = []
        for size in range(2, len(ordered) + 1):
            for heads in combinations(ordered, size):
                for combo in cartesian(*(by_name[name] for name in heads)):
                    nested: Formula = combo[-1]
                    for piece in reversed(combo[:-1]):
                        nested = Or(piece, nested)
                    ors.append(nested)
        levels.append([TRUE] + diamonds + ors)
    return levels[formula_depth] if formula_depth else [TRUE]


def formula_test(formula: Formula) -> t.ProcessTerm:
    """Canonical reactive test body measuring the same satisfaction.

    true maps to success, a diamond to a passive prefix, a disjunction to
    a sum; for tau-free processes prob_pass of the resulting test matches
    eval at every theta.
    """
    if isinstance(formula, _True):
        return t.SUCCESS
    if isinstance(formula, Diamond):
        return t.Prefix(formula.name, t.Rate(1, passive=True),
                        formula_test(formula.body))
    return t.Choice(formula_test(formula.left), formula_test(formula.right))


def _time_grid(sides: Sequence[_Semantics], names: Sequence[str],
               cap: int) -> list[Fraction]:
    # Candidate head times are reciprocals of the exit rates the clauses
    # actually compare against, plus midpoints and one value past the max.
    pools = [(frozenset(), True), (frozenset(names), True)]
    pools.extend((frozenset((name,)), with_tau)
                 for name in names for with_tau in (False, True))
    times = {side.rate(state, pool, with_tau)[1]
             for side in sides for state in range(len(side.moves))
             for pool, with_tau in pools}
    times.discard(None)
    return breakpoint_grid(times, cap)


def _cut(formula: Formula, depth: int) -> object:
    """The part of formula that a theta of at most depth entries can see:
    its shape down to diamond depth `depth`, below which each body only
    says whether it is true."""
    if isinstance(formula, _True):
        return True
    if depth == 0:
        return False
    if isinstance(formula, Diamond):
        return ("<>", formula.name, _cut(formula.body, depth - 1))
    return ("\\/", _cut(formula.left, depth), _cut(formula.right, depth))


@lru_cache(maxsize=32)
def _sweep(names: tuple[str, ...], formula_depth: int,
           length: int) -> tuple[tuple[tuple[int, Formula], ...], int]:
    """The formulas a sweep evaluates, each with its place (from 1) in
    enumerate_formulas(names, formula_depth), and the number enumerated.

    A formula is evaluated only if no earlier one has its cut at thetas
    of at most length entries: the later one shows no difference the
    earlier did not.  Formulas with a repeated cut still count in
    formulas_checked.
    """
    formulas = enumerate_formulas(names, formula_depth)
    swept: set[object] = set()
    firsts = []
    for place, formula in enumerate(formulas, 1):
        cut = _cut(formula, length)
        if cut not in swept:
            swept.add(cut)
            firsts.append((place, formula))
    return tuple(firsts), len(formulas)


@d.dataclass(frozen=True)
class CharReport:
    """Outcome of a formula-grid sweep against the decider verdict."""

    consistent: bool
    decider_equivalent: bool
    formula: Formula | None
    theta: Theta | None
    value_left: Fraction | None
    value_right: Fraction | None
    formulas_checked: int

    @property
    def theorem_violation(self) -> bool:
        """True when a differing pair contradicts decider equivalence."""
        return not self.consistent and self.decider_equivalent


def characterization_check(p1: t.ProcessTerm, p2: t.ProcessTerm, *,
                           formula_depth: int = 3,
                           state_bound: int = 10000,
                           grid_cap: int = 4,
                           max_theta_len: int | None = None) -> CharReport:
    """Sweep formulas and bound sequences, reporting the first difference.

    Formulas range over the visible names of both processes up to
    formula_depth; bound sequences up to max_theta_len (default:
    formula_depth) entries over a grid of at most grid_cap values, which
    must be at least 2.  The verdict is consistent when no (formula,
    theta) pair separates the processes; otherwise the earliest
    difference is returned as a counterexample, and a counterexample on
    a pair the decider finds equivalent flags a theorem violation.
    """
    length = formula_depth if max_theta_len is None else max_theta_len
    if formula_depth < 0 or length < 0:
        raise ValueError(f"formula depth and theta length must be at least 0, "
                         f"got {formula_depth} and {length}")
    left = _Semantics(p1, state_bound)
    right = _Semantics(p2, state_bound)
    names = sorted(left.lts.visible_names() | right.lts.visible_names())
    values = _time_grid((left, right), names, grid_cap)
    thetas = [(theta, left.intern(theta), right.intern(theta))
              for theta in (make_theta(combo)
                            for size in range(length + 1)
                            for combo in cartesian(values, repeat=size))]
    equivalent = prob_language_equiv(*embed_pair(left.lts, right.lts)).equivalent

    firsts, total = _sweep(tuple(names), formula_depth, length)
    for checked, formula in firsts:
        for theta, left_id, right_id in thetas:
            value_left = left.value(0, False, left_id, formula)
            value_right = right.value(0, False, right_id, formula)
            if value_left != value_right:
                return CharReport(False, equivalent, formula, theta,
                                  value_left, value_right, checked)
    return CharReport(True, equivalent, None, None, None, None, total)
