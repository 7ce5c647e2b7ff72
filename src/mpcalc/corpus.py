"""Seeded random-term corpus for the property suites.

Every generator draws exclusively from the random.Random instance handed
in, so a fixed seed reproduces the exact stream of terms.  Generated
terms are closed, guarded, performance-closed, and within the requested
state budget; generators verify those properties by building the LMTS
and retrying rather than trusting the grammar walk.

Law instances put the redex at the root with its side conditions
satisfied by construction, then validate by actually applying the law;
the A4 helpers can also manufacture condition-violating pairs by merging
anyway, which is only ever used to produce expected counterexamples.
"""

from __future__ import annotations

import dataclasses as d
from fractions import Fraction
from random import Random
from typing import Sequence

from . import terms as t
from .axioms import LAW_IDS, RewriteStep, a4_merge, apply_law, replace_at, subterm_at
from .errors import CalcError, LawError
from .semantics import LMTS, build_lts

RATE_POOL = tuple(Fraction(n, m) for n, m in
                  ((1, 2), (1, 1), (3, 2), (2, 1), (3, 1), (5, 1), (1, 3)))
WEIGHT_POOL = tuple(Fraction(n) for n in (1, 2, 3))
ATTEMPTS = 400  # draws a generator makes before it gives up
# Nodes one grammar walk may make.  A walk of depth d makes at most
# 2**(d+1) - 1 nodes, 31 at depth 4, so seeded draws up to depth 4 never
# reach it.
NODE_BUDGET = 64


class GenerationError(CalcError):
    """A generator exhausted its retry budget."""


def _rate(rng: Random) -> t.Rate:
    return t.Rate(rng.choice(RATE_POOL))


def _passive(rng: Random) -> t.Rate:
    return t.Rate(rng.choice(WEIGHT_POOL), passive=True)


def _analyzable(term: t.ProcessTerm, max_states: int, tau: bool = True) -> LMTS | None:
    """The LMTS of term if it is performance-closed and has at most
    max_states states (and no tau move, with tau=False), else None."""
    try:
        lts = build_lts(term, state_bound=max(max_states, 2))
    except CalcError:
        return None
    if not tau and any(row[0] == t.TAU for group in lts.rows for row in group):
        return None
    return lts if lts.performance_closed and len(lts.states) <= max_states else None


class _OverBudget(Exception):
    """A grammar walk would make more than NODE_BUDGET nodes."""


def _grow(rng: Random, names: Sequence[str], depth: int, tau: bool,
          static_ops: bool) -> t.ProcessTerm:
    """A random term of at most the given depth.  The walk expects about
    1.2 children per node, so deep draws can grow without end; it raises
    _OverBudget when it would make more than NODE_BUDGET nodes."""
    return _grow_node(rng, names, depth, tau, static_ops, [0])


def _grow_node(rng: Random, names: Sequence[str], depth: int, tau: bool,
               static_ops: bool, nodes: list[int]) -> t.ProcessTerm:
    """One node of _grow's walk and the nodes below it; nodes[0] counts
    the nodes the walk has made."""
    nodes[0] += 1
    if nodes[0] > NODE_BUDGET:
        raise _OverBudget

    def grow() -> t.ProcessTerm:
        return _grow_node(rng, names, depth - 1, tau, static_ops, nodes)

    if depth <= 0:
        return t.NIL
    roll = rng.random()
    if roll < 0.08:
        return t.NIL
    if roll < 0.60 or not static_ops:
        pool = list(names) + ([t.TAU] if tau else [])
        return t.Prefix(rng.choice(pool), _rate(rng), grow())
    if roll < 0.82:
        return t.Choice(grow(), grow())
    if roll < 0.90:
        sync = frozenset(n for n in names if rng.random() < 0.4)
        return t.Parallel(sync, grow(), grow())
    if roll < 0.95:
        hidden = frozenset(n for n in names if rng.random() < 0.4)
        return t.Hide(hidden, grow())
    mapping = tuple((n, rng.choice(names)) for n in names if rng.random() < 0.5)
    return t.Relabel(mapping, grow())


def random_term(rng: Random, names: Sequence[str] = ("a", "b"), depth: int = 3,
                max_states: int = 8, tau: bool = True) -> t.ProcessTerm:
    """A random closed guarded performance-closed term.

    Exponential rates only, so performance closure holds by construction
    and the retry loop mostly enforces the state budget.  With tau=False
    the term has no internal move at all: tau is left out of the prefixes,
    and candidates whose hiding turns visible moves into tau are redrawn.
    Draws past NODE_BUDGET nodes are redrawn too, which only happens
    above depth 4.
    """
    for _ in range(ATTEMPTS):
        try:
            candidate = _grow(rng, names, depth, tau, True)
        except _OverBudget:
            continue
        if candidate == t.NIL:
            continue
        if _analyzable(candidate, max_states, tau):
            return candidate
    raise GenerationError("no term within the state budget")


def _positions(term: t.ProcessTerm) -> list[tuple[int, ...]]:
    out = [()]
    for i, child in enumerate(t.children(term)):
        out.extend((i,) + pos for pos in _positions(child))
    return out


_SOUND_DIRECTIONS = tuple((law, direction) for law in LAW_IDS
                          for direction in (("lr", "rl") if law in ("A1", "A2", "A3")
                                            else ("lr",)))


def sound_steps(term: t.ProcessTerm) -> list[RewriteStep]:
    """Every sound rewrite applicable somewhere in term."""
    steps = []
    for position in _positions(term):
        redex = subterm_at(term, position)
        open_redex = any(isinstance(sub, (t.Rec, t.Var))
                         for sub in t.subterms(redex))
        for law, direction in _SOUND_DIRECTIONS:
            # Rate-sensitive laws are not stated for open subterms.
            if open_redex and law not in ("A1", "A2", "A3"):
                continue
            step = RewriteStep(law, position, direction)
            try:
                apply_law(term, step)
            except LawError:
                continue
            steps.append(step)
    return steps


@d.dataclass(frozen=True)
class PairSample:
    left: t.ProcessTerm
    right: t.ProcessTerm
    kind: str  # random | law | perturbed
    step: RewriteStep | None = None


def _perturb(rng: Random, term: t.ProcessTerm) -> t.ProcessTerm | None:
    spots = [pos for pos in _positions(term)
             if isinstance(subterm_at(term, pos), t.Prefix)]
    if not spots:
        return None
    position = rng.choice(spots)
    prefix = subterm_at(term, position)
    bumped = t.Rate(prefix.rate.value + 1, prefix.rate.passive)
    return replace_at(term, position,
                      t.Prefix(prefix.name, bumped, prefix.body))


def random_pair(rng: Random, names: Sequence[str] = ("a", "b"), depth: int = 3,
                max_states: int = 8, tau: bool = True) -> PairSample:
    """One corpus pair: independent draws, a sound-law twin, or a
    rate-perturbed twin."""
    left = random_term(rng, names, depth, max_states, tau)
    roll = rng.random()
    if roll < 0.4:
        steps = sound_steps(left)
        if steps:
            step = rng.choice(steps)
            return PairSample(left, apply_law(left, step), "law", step)
    if roll < 0.6:
        bumped = _perturb(rng, left)
        if bumped is not None and _analyzable(bumped, max_states):
            return PairSample(left, bumped, "perturbed")
    right = random_term(rng, names, depth, max_states, tau)
    return PairSample(left, right, "random")


def random_pairs(rng: Random, count: int, **kwargs) -> list[PairSample]:
    return [random_pair(rng, **kwargs) for _ in range(count)]


# --- law instance builders (criterion: every law, legal side conditions) ---

def _exp_sum(rng: Random, names: Sequence[str], k: int, depth: int,
             tau: bool = False) -> t.ProcessTerm:
    pool = list(names) + ([t.TAU] if tau else [])
    parts = [t.Prefix(rng.choice(pool), _rate(rng),
                      _grow(rng, names, depth, False, False))
             for _ in range(k)]
    return t.nest_right(parts)


def _small(rng: Random, names: Sequence[str]) -> t.ProcessTerm:
    return _grow(rng, names, rng.randint(0, 2), False, False)


def _reactive_sum(rng: Random, names: Sequence[str], sync: frozenset[str],
                  k: int) -> t.ProcessTerm:
    # Passive prefixes stay inside the sync set, so they either pair with
    # an exponential partner or stay blocked; closure is preserved.
    parts = []
    for _ in range(k):
        if sync and rng.random() < 0.5:
            parts.append(t.Prefix(rng.choice(sorted(sync)), _passive(rng),
                                  _small(rng, names)))
        else:
            parts.append(t.Prefix(rng.choice(list(names)), _rate(rng),
                                  _small(rng, names)))
    return t.nest_right(parts)


def _a4_branches(rng: Random, names: Sequence[str]) -> list[t.Prefix]:
    head = rng.choice(list(names))
    shared = [(rng.choice(list(names)), rng.choice(RATE_POOL))
              for _ in range(rng.randint(1, 2))]
    branches = []
    for _ in range(rng.randint(2, 3)):
        body_parts = []
        for name, total in shared:
            if rng.random() < 0.4:
                # Split the per-name budget; cumulative rates still agree.
                cut = total / 2
                body_parts.append(t.Prefix(name, t.Rate(cut), _small(rng, names)))
                body_parts.append(t.Prefix(name, t.Rate(total - cut),
                                           _small(rng, names)))
            else:
                body_parts.append(t.Prefix(name, t.Rate(total), _small(rng, names)))
        branches.append(t.Prefix(head, _rate(rng), t.nest_right(body_parts)))
    return branches


def a4_instance(rng: Random, names: Sequence[str] = ("a", "b")) -> t.ProcessTerm:
    """A random sum satisfying the merge side condition."""
    for _ in range(200):
        candidate = t.nest_right(list(_a4_branches(rng, names)))
        try:
            apply_law(candidate, RewriteStep("A4"))
        except LawError:
            continue
        if _analyzable(candidate, 64):
            return candidate
    raise GenerationError("no A4 instance found")


def a4_violation(rng: Random, names: Sequence[str] = ("a", "b")
                 ) -> tuple[t.ProcessTerm, t.ProcessTerm]:
    """A perturbed instance paired with its merged form.

    One branch body rate is bumped so the cumulative derivative rates
    disagree; the returned sides are behaviourally distinct.
    """
    for _ in range(200):
        base = a4_instance(rng, names)
        branches = t.summand_list(base)
        which = rng.randrange(len(branches))
        body_parts = t.summand_list(branches[which].body)
        spot = rng.randrange(len(body_parts))
        p = body_parts[spot]
        body_parts[spot] = t.Prefix(p.name, t.Rate(p.rate.value + 1), p.body)
        bumped = list(branches)
        bumped[which] = t.Prefix(branches[which].name, branches[which].rate,
                                 t.nest_right(body_parts))
        lhs = t.nest_right(bumped)
        try:
            apply_law(lhs, RewriteStep("A4"))
        except LawError:
            if _analyzable(lhs, 64):
                return lhs, a4_merge(t.summand_list(lhs))
    raise GenerationError("no A4 violation found")


def law_instance(rng: Random, law: str, names: Sequence[str] = ("a", "b")
                 ) -> tuple[t.ProcessTerm, RewriteStep]:
    """A closed performance-closed term with the law's redex at the root."""
    if law not in LAW_IDS:
        raise LawError(f"unknown law {law!r}")
    for _ in range(400):
        sync = frozenset(n for n in names if rng.random() < 0.5)
        hidden = frozenset(n for n in names if rng.random() < 0.5)
        mapping = tuple((n, rng.choice(list(names)))
                        for n in names if rng.random() < 0.6)
        grow = lambda: _grow(rng, names, rng.randint(1, 3), True, True)
        if law == "A1":
            candidate = t.Choice(grow(), grow())
        elif law == "A2":
            candidate = t.Choice(t.Choice(grow(), grow()), grow())
        elif law == "A3":
            candidate = t.Choice(grow(), t.NIL)
        elif law == "A4":
            candidate = a4_instance(rng, names)
        elif law == "A5":
            candidate = t.Parallel(sync,
                                   _exp_sum(rng, names, rng.randint(1, 3), 2),
                                   _reactive_sum(rng, names, sync,
                                                 rng.randint(1, 3)))
        elif law == "A6":
            candidate = t.Parallel(sync, _exp_sum(rng, names, rng.randint(1, 3), 2),
                                   t.NIL)
        elif law == "A7":
            candidate = t.Parallel(sync, t.NIL,
                                   _exp_sum(rng, names, rng.randint(1, 3), 2))
        elif law == "A8":
            candidate = t.Parallel(sync, t.NIL, t.NIL)
        elif law == "A9":
            candidate = t.Hide(hidden, t.NIL)
        elif law == "A10":
            if not hidden:
                continue
            candidate = t.Hide(hidden, t.Prefix(rng.choice(sorted(hidden)),
                                                _rate(rng), grow()))
        elif law == "A11":
            outside = [n for n in list(names) + [t.TAU] if n not in hidden]
            candidate = t.Hide(hidden, t.Prefix(rng.choice(outside),
                                                _rate(rng), grow()))
        elif law == "A12":
            candidate = t.Hide(hidden, t.Choice(grow(), grow()))
        elif law == "A13":
            candidate = t.Relabel(mapping, t.NIL)
        elif law == "A14":
            pool = list(names) + [t.TAU]
            candidate = t.Relabel(mapping, t.Prefix(rng.choice(pool),
                                                    _rate(rng), grow()))
        else:
            candidate = t.Relabel(mapping, t.Choice(grow(), grow()))
        step = RewriteStep(law)
        try:
            apply_law(candidate, step)
        except LawError:
            continue
        if _analyzable(candidate, 64):
            return candidate, step
    raise GenerationError(f"no {law} instance found")


# --- special corpora ---

def _alive(rng: Random, names: Sequence[str], depth: int) -> t.ProcessTerm:
    """A term that still has a move on every path shorter than depth."""
    if depth == 0:
        return _grow(rng, names, 2, True, False)
    roll = rng.random()
    if roll < 0.15:
        # A guarded loop never deadlocks at any depth.
        var = "X"
        body: t.ProcessTerm = t.Var(var)
        for _ in range(rng.randint(1, 3)):
            body = t.Prefix(rng.choice(list(names)), _rate(rng), body)
        return t.Rec(var, body)
    if roll < 0.35:
        return t.Choice(_alive(rng, names, depth), _alive(rng, names, depth))
    return t.Prefix(rng.choice(list(names) + [t.TAU]), _rate(rng),
                    _alive(rng, names, depth - 1))


def deadlock_free_term(rng: Random, horizon: int = 5,
                       names: Sequence[str] = ("a", "b"),
                       max_states: int = 24) -> t.ProcessTerm:
    """A term whose every computation still has a move before horizon."""
    for _ in range(ATTEMPTS):
        candidate = _alive(rng, names, horizon)
        lts = _analyzable(candidate, max_states)
        if lts is None:
            continue
        frontier = {0}
        for _ in range(horizon):
            if not all(lts.moves[state] for state in frontier):
                break
            frontier = {target for state in frontier for _, _, target in lts.moves[state]}
        else:
            return candidate
    raise GenerationError("no deadlock-free term found")


def chain_term(rng: Random, length: int = 50,
               names: Sequence[str] = ("a", "b")) -> t.ProcessTerm:
    """A prefix chain with the requested number of states minus one."""
    term: t.ProcessTerm = t.NIL
    for _ in range(length):
        term = t.Prefix(rng.choice(list(names)), _rate(rng), term)
    return term


def chain_pair(rng: Random, length: int = 50, equivalent: bool = True
               ) -> tuple[t.ProcessTerm, t.ProcessTerm]:
    left = chain_term(rng, length)
    if equivalent:
        return left, left
    bumped = _perturb(rng, left)
    assert bumped is not None
    return left, bumped
