"""Finite computations of a performance-closed system.

A computation is a path of aggregated transitions.  Its execution
probability multiplies step probabilities (aggregated rate over total exit
rate of the source), and its stepwise average duration is the sequence of
mean sojourn times of the traversed states.  Durations are deliberately a
sequence, never a sum: bounds are compared stepwise.
"""

from __future__ import annotations

import dataclasses as d
from fractions import Fraction
from typing import Iterable, Sequence

from . import terms as t
from .errors import DependentComputations, NotPerformanceClosed
from .rates import rate_t
from .semantics import LMTS, Transition

Theta = tuple[Fraction, ...]


def make_theta(values: Iterable) -> Theta:
    theta = tuple(Fraction(v) for v in values)
    if any(v <= 0 for v in theta):
        raise ValueError("average-time bounds must be positive")
    return theta


def breakpoint_grid(values: Iterable[Fraction], cap: int) -> list[Fraction]:
    """Candidate bounds around the given sojourn times: the distinct values,
    midpoints of adjacent ones and one value past the maximum ([1] when
    there are none), thinned evenly to at most cap entries, ends kept."""
    if cap < 2:
        raise ValueError(f"a time grid needs a cap of at least 2, got {cap}")
    base = sorted(set(values))
    if not base:
        return [Fraction(1)]
    full = base + [(a + b) / 2 for a, b in zip(base, base[1:])] + [base[-1] + 1]
    full.sort()
    if len(full) > cap:
        step = (len(full) - 1) / (cap - 1)
        full = [full[round(i * step)] for i in range(cap)]
    return full


@d.dataclass(frozen=True)
class Computation:
    origin: t.ProcessTerm
    steps: tuple[Transition, ...]

    def __post_init__(self) -> None:
        previous = self.origin
        for step in self.steps:
            if step.source != previous:
                raise ValueError("steps do not form a path")
            previous = step.target

    def __len__(self) -> int:
        return len(self.steps)

    def traversed(self) -> tuple[t.ProcessTerm, ...]:
        return (self.origin,) + tuple(step.target for step in self.steps)

    def extended(self, step: Transition) -> Computation:
        return Computation(self.origin, self.steps + (step,))


def prob(computation: Computation) -> Fraction:
    """Execution probability; 1 for the empty computation."""
    value = Fraction(1)
    for step in computation.steps:
        if step.rate.passive:
            raise NotPerformanceClosed("probability undefined with passive steps")
        value *= step.aggregate / rate_t(step.source, 0)
    return value


def time_a(computation: Computation) -> Theta:
    """Stepwise average sojourn times along the computation."""
    return tuple(1 / rate_t(step.source, 0) for step in computation.steps)


def _is_proper_prefix(shorter: Computation, longer: Computation) -> bool:
    return (
        len(shorter) < len(longer)
        and shorter.origin == longer.origin
        and longer.steps[: len(shorter)] == shorter.steps
    )


def prob_set(computations: Sequence[Computation]) -> Fraction:
    """Probability of a set of pairwise independent computations.

    Independence means no computation is a proper prefix of another; the
    guard is checked, not assumed.
    """
    items = list(computations)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if len(a) == len(b):
                continue  # equal lengths can never be proper prefixes
            if _is_proper_prefix(a, b) or _is_proper_prefix(b, a):
                raise DependentComputations(
                    "computations overlap as prefixes; their probabilities do not add"
                )
    return sum((prob(c) for c in items), Fraction(0))


def filter_le_theta(computations: Iterable[Computation], theta: Theta) -> list[Computation]:
    """Keep computations no longer than theta whose stepwise times satisfy
    the bounds; boundaries are inclusive."""
    kept = []
    for c in computations:
        if len(c) > len(theta):
            continue
        times = time_a(c)
        if all(times[i] <= theta[i] for i in range(len(times))):
            kept.append(c)
    return kept


def filter_len(computations: Iterable[Computation], length: int) -> list[Computation]:
    return [c for c in computations if len(c) == length]


def enumerate_computations(lts: LMTS, max_len: int) -> list[Computation]:
    """All computations from the root of length at most max_len, one per
    aggregated transition branch (multiplicity folded into the rate)."""
    out: list[Computation] = []

    def extend(computation: Computation, state_index: int, budget: int) -> None:
        out.append(computation)
        if budget == 0:
            return
        for step in lts.outgoing[state_index]:
            extend(computation.extended(step), lts.index[step.target], budget - 1)

    extend(Computation(lts.root, ()), 0, max_len)
    return out
