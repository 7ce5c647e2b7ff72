"""Multitransition semantics.

derive_transitions implements the structural rules for prefix, choice,
parallel composition with asymmetric synchronization, hiding, relabeling
and recursion.  A transition's multiplicity is the number of distinct
derivation proofs, so <a,1>.0 + <a,1>.0 has the a-transition twice.

This module is the one place that says how a static operator moves:
compose_parallel is the parallel rule over the operands' moves, and
Hide.apply and Relabel.apply rename the moves of hiding and relabeling.
The expansion laws A5-A8 of axioms feed compose_parallel with the
operands' prefix summands, one move each.

Synchronization discipline: an exponentially timed action <a,lambda> may
only synchronize with a passive action <a,*w> of the other operand, and
the result is timed lambda * w / W where W is the other operand's total
passive a-weight (reactive preselection).  Two passive actions
synchronize into a passive action whose weight is
norm(w1, w2) = (w1/W1) * (w2/W2) * (W1 + W2).
"""

from __future__ import annotations

import dataclasses as d
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from . import terms as t
from .errors import NotWellFormed, StateBoundExceeded

# A transition entry as produced by derive_transitions.  Each target of an
# alpha-normal closed term is alpha-normal: the rec rule normalizes its
# unfolding, and every other rule puts closed, alpha-normal parts side by
# side at binder depth 0.
Entry = tuple[str, t.Rate, t.ProcessTerm]
# A row of an LMTS move table: action name, aggregate rate (rate times
# multiplicity) and target state index.
Move = tuple[str, Fraction, int]
# A row of the table build_lts fills: action name, rate, target state
# index and multiplicity.
Row = tuple[str, t.Rate, int, int]


@lru_cache(maxsize=None)
def derive_transitions(term: t.ProcessTerm) -> tuple[tuple[Entry, int], ...]:
    """Transition multiset of a closed term, as ((name, rate, target), count)
    pairs in deterministic derivation order.  A rec binder's unfolding is
    alpha-normalized once, when it is derived, and cached with the rest."""
    return tuple(_derive(term).items())


def _derive(term: t.ProcessTerm) -> Counter[Entry]:
    out: Counter[Entry] = Counter()
    if isinstance(term, (t.Nil, t.Success)):
        return out
    if isinstance(term, t.Var):
        raise NotWellFormed(f"cannot derive transitions of free variable {term.name}")
    if isinstance(term, t.Prefix):
        out[(term.name, term.rate, term.body)] = 1
        return out
    if isinstance(term, t.Choice):
        out.update(dict(derive_transitions(term.left)))
        out.update(dict(derive_transitions(term.right)))
        return out
    if isinstance(term, t.Parallel):
        moves = compose_parallel(term, derive_transitions(term.left),
                                 derive_transitions(term.right))
        for entry, count in moves:
            out[entry] += count
        return out
    if isinstance(term, (t.Hide, t.Relabel)):
        for (name, rate, target), count in derive_transitions(term.body):
            out[(term.apply(name), rate, t.with_children(term, (target,)))] += count
        return out
    if isinstance(term, t.Rec):
        if not t.check_wellformed(term).guarded:
            raise NotWellFormed(f"unguarded recursion on {term.var}")
        unfolded = t.alpha_normalize(t.substitute(term.body, term.var, term))
        out.update(dict(derive_transitions(unfolded)))
        return out
    raise TypeError(f"not a process term: {term!r}")


def compose_parallel(
    term: t.Parallel,
    left: Sequence[tuple[Entry, int]],
    right: Sequence[tuple[Entry, int]],
) -> Iterator[tuple[Entry, int]]:
    """The moves of term from the moves left and right of its operands,
    in order: the left operand's free moves, the right operand's, then
    the synchronizations per sync name.  Nothing is aggregated: each
    free operand move gives one move, and each pair of same-named moves
    on a sync name at most one."""
    sync = term.sync
    for (name, rate, target), count in left:
        if name not in sync:
            yield (name, rate, t.Parallel(sync, target, term.right)), count
    for (name, rate, target), count in right:
        if name not in sync:
            yield (name, rate, t.Parallel(sync, term.left, target)), count
    for name in sorted(sync):
        lefts = [(rate, target, count) for (a, rate, target), count in left if a == name]
        rights = [(rate, target, count) for (a, rate, target), count in right if a == name]
        if not lefts or not rights:
            continue
        weight_left = sum((r.value * c for r, _, c in lefts if r.passive), Fraction(0))
        weight_right = sum((r.value * c for r, _, c in rights if r.passive), Fraction(0))
        for lrate, ltarget, lcount in lefts:
            for rrate, rtarget, rcount in rights:
                if not lrate.passive and not rrate.passive:
                    continue  # two timed actions never synchronize
                if not lrate.passive:
                    rate = t.Rate(lrate.value * rrate.value / weight_right)
                elif not rrate.passive:
                    rate = t.Rate(rrate.value * lrate.value / weight_left)
                else:
                    value = (lrate.value / weight_left) * (rrate.value / weight_right) * (
                        weight_left + weight_right
                    )
                    rate = t.Rate(value, passive=True)
                yield (name, rate, t.Parallel(sync, ltarget, rtarget)), lcount * rcount


@d.dataclass(frozen=True)
class Transition:
    source: t.ProcessTerm
    name: str
    rate: t.Rate
    target: t.ProcessTerm
    multiplicity: int

    @property
    def aggregate(self) -> Fraction:
        """Rate mass of this aggregated transition (rate times multiplicity)."""
        return self.rate.value * self.multiplicity

    def __str__(self) -> str:
        mult = f" [x{self.multiplicity}]" if self.multiplicity > 1 else ""
        return f"{self.source} --{self.name},{self.rate}{mult}--> {self.target}"


@d.dataclass
class LMTS:
    """Labeled multitransition system over alpha-normalized state terms.

    rows is the table that build_lts fills: per state index, one (name,
    rate, target index, multiplicity) row per aggregated transition, in
    derivation order.  moves, performance_closed, visible_names and the
    exports read it by index.  outgoing and transitions() give the same
    transitions as Transition objects, made when outgoing is first read,
    for the term-level reference route of the computations module; index
    maps a state term back to its index, for state_of."""

    root: t.ProcessTerm
    states: list[t.ProcessTerm]
    index: dict[t.ProcessTerm, int]
    rows: list[tuple[Row, ...]]

    @cached_property
    def outgoing(self) -> list[list[Transition]]:
        """Per state index, its transitions in derivation order."""
        states = self.states
        return [[Transition(states[i], name, rate, states[j], count)
                 for name, rate, j, count in group]
                for i, group in enumerate(self.rows)]

    def transitions(self):
        for group in self.outgoing:
            yield from group

    @cached_property
    def moves(self) -> list[tuple[Move, ...]]:
        """The move table: per state index, one (name, aggregate rate,
        target index) row per aggregated transition, in derivation order."""
        return [tuple((name, rate.value * count if count > 1 else rate.value, j)
                      for name, rate, j, count in group)
                for group in self.rows]

    def state_of(self, term: t.ProcessTerm) -> int:
        return self.index[t.alpha_normalize(term)]

    @cached_property
    def performance_closed(self) -> bool:
        return not any(rate.passive for group in self.rows for _, rate, _, _ in group)

    def visible_names(self) -> frozenset[str]:
        return frozenset(name for group in self.rows for name, _, _, _ in group
                         if name != t.TAU)


def build_lts(
    term: t.ProcessTerm, state_bound: int = 10000, *, allow_failure_name: bool = False
) -> LMTS:
    """Breadth-first state-space construction: state 0 is the root, and
    the states follow in the order they are found.  Only a root with a
    rec binder is alpha-normalized: derivation keeps every target of an
    alpha-normal closed term alpha-normal (see Entry), so no other state
    needs it.

    Raises StateBoundExceeded when more than state_bound states are reached,
    which signals likely divergence such as rec X : <a,1>.(X |[]| X).
    """
    # a binder-free term is already alpha-normal
    binder = t.require_analyzable(term, allow_failure_name=allow_failure_name)
    root = t.alpha_normalize(term) if binder else term
    states = [root]
    index = {root: 0}
    rows: list[tuple[Row, ...]] = []
    # states grows as it is read: it is the breadth-first queue
    for state in states:
        group: list[Row] = []
        for (name, rate, target), count in derive_transitions(state):
            j = index.get(target)
            if j is None:
                if len(states) >= state_bound:
                    raise StateBoundExceeded(
                        f"more than {state_bound} states reachable from {term}"
                    )
                j = index[target] = len(states)
                states.append(target)
            group.append((name, rate, j, count))
        rows.append(tuple(group))
    return LMTS(root=root, states=states, index=index, rows=rows)


def _rate_json(rate: t.Rate) -> dict:
    return {
        "kind": "passive" if rate.passive else "exp",
        "num": rate.value.numerator,
        "den": rate.value.denominator,
    }


def export_json(lts: LMTS, annotate_rates: bool = False) -> dict:
    data = {
        "states": [t.pretty(s) for s in lts.states],
        "transitions": [
            {"src": i, "name": name, "rate": _rate_json(rate), "tgt": j, "mult": count}
            for i, group in enumerate(lts.rows) for name, rate, j, count in group
        ],
    }
    if annotate_rates:
        # per state, its exit rate (the sum of its exponential moves) and
        # its mean sojourn time 1 / rate, inf when it has no such move
        data["rates"] = []
        for group in lts.rows:
            total = sum((rate.value * count for _, rate, _, count in group if not rate.passive),
                        Fraction(0))
            data["rates"].append({
                "rate_t": {"num": total.numerator, "den": total.denominator},
                "sojourn": {"num": total.denominator, "den": total.numerator} if total else "inf"})
    return data


def export_dot(lts: LMTS) -> str:
    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph lmts {", "  rankdir=LR;"]
    for i, state in enumerate(lts.states):
        shape = "doublecircle" if i == 0 else "circle"
        lines.append(f"  n{i} [shape={shape}, label={quote(t.pretty(state))}];")
    for i, group in enumerate(lts.rows):
        for name, rate, j, count in group:
            mult = f" [x{count}]" if count > 1 else ""
            lines.append(f"  n{i} -> n{j} [label={quote(f'{name}, {rate}{mult}')}];")
    lines.append("}")
    return "\n".join(lines)
