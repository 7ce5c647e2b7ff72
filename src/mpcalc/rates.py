"""Exit-rate measures of a term.

Level 0 sums exponential rates, level -1 sums passive weights; both carry
transition multiplicities.  Destinations are predicates or collections over
alpha-normalized target terms, so LMTS states can be passed directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Collection

from . import terms as t
from .semantics import derive_transitions

EXPONENTIAL = 0
PASSIVE = -1

Destination = Callable[[t.ProcessTerm], bool] | Collection[t.ProcessTerm] | None


def _accepts(destination: Destination, target: t.ProcessTerm) -> bool:
    if destination is None:
        return True
    if callable(destination):
        return destination(target)
    return target in destination


def rate_e(term: t.ProcessTerm, name: str, level: int, destination: Destination) -> Fraction:
    """Cumulative rate (level 0) or weight (level -1) of name-transitions
    from a closed term into the destination set.  The term is
    alpha-normalized once, so its targets are too."""
    if level not in (EXPONENTIAL, PASSIVE):
        raise ValueError(f"level must be 0 or -1, got {level}")
    passive = level == PASSIVE
    total = Fraction(0)
    for (a, rate, target), count in derive_transitions(t.alpha_normalize(term)):
        if a != name or rate.passive != passive:
            continue
        if _accepts(destination, target):
            total += rate.value * count
    return total


def rate_o(term: t.ProcessTerm, name: str, level: int) -> Fraction:
    """Overall rate towards anywhere."""
    return rate_e(term, name, level, None)


def rate_t(term: t.ProcessTerm, level: int) -> Fraction:
    """Total exit rate across all action names."""
    if level not in (EXPONENTIAL, PASSIVE):
        raise ValueError(f"level must be 0 or -1, got {level}")
    passive = level == PASSIVE
    total = Fraction(0)
    for (_, rate, _), count in derive_transitions(term):
        if rate.passive == passive:
            total += rate.value * count
    return total


def avg_sojourn(term: t.ProcessTerm):
    """Mean sojourn time 1/rate_t, or infinity at terminal states."""
    total = rate_t(term, EXPONENTIAL)
    if total == 0:
        return math.inf
    return 1 / total
