"""Process terms of a Markovian process calculus.

Actions are pairs <name, rate> where the rate is either exponentially timed
(a positive rational, the parameter of an exponential delay) or passive
(a positive rational weight, written *w, resolved by reactive preselection
against same-name exponential partners).  The silent name is "tau"; the
name "z" is reserved for test failure branches and may not occur in a
process term.
"""

from __future__ import annotations

import dataclasses as d
from fractions import Fraction
from operator import is_
from typing import Iterable, Iterator, Sequence

from .errors import CalcError, NotWellFormed, ReservedNameError

TAU = "tau"
FAILURE_NAME = "z"


@d.dataclass(frozen=True)
class Rate:
    """Exponential rate or passive weight; value is always > 0."""

    value: Fraction
    passive: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise ValueError(f"rate must be positive, got {self.value}")

    @staticmethod
    def weight(value) -> Rate:
        return Rate(Fraction(value), passive=True)

    def __str__(self) -> str:
        text = str(self.value)
        return f"*{text}" if self.passive else text


class ProcessTerm:
    """Base class; concrete nodes are frozen dataclasses below."""

    # Hash caching: terms are used as LMTS state keys and multiset keys, so
    # the default recursive dataclass hash would be quadratic overall.
    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            pass
        # a dataclass's __match_args__ names its fields in order, as
        # dataclasses.fields would, without building Field lists
        names = self.__match_args__  # type: ignore[attr-defined]
        value = hash((self.__class__.__name__, tuple([getattr(self, name) for name in names])))
        object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:
        return pretty(self)


@d.dataclass(frozen=True, eq=True)
class Nil(ProcessTerm):
    __hash__ = ProcessTerm.__hash__


@d.dataclass(frozen=True, eq=True)
class Success(ProcessTerm):
    """Success state of a test; behaves like Nil, prints as "s".

    Never produced by the process-term parser, only by test conversion.
    """

    __hash__ = ProcessTerm.__hash__


@d.dataclass(frozen=True, eq=True)
class Prefix(ProcessTerm):
    name: str
    rate: Rate
    body: ProcessTerm
    __hash__ = ProcessTerm.__hash__


@d.dataclass(frozen=True, eq=True)
class Choice(ProcessTerm):
    left: ProcessTerm
    right: ProcessTerm
    __hash__ = ProcessTerm.__hash__


@d.dataclass(frozen=True, eq=True)
class Parallel(ProcessTerm):
    sync: frozenset[str]
    left: ProcessTerm
    right: ProcessTerm
    __hash__ = ProcessTerm.__hash__

    def __post_init__(self) -> None:
        object.__setattr__(self, "sync", frozenset(self.sync))


@d.dataclass(frozen=True, eq=True)
class Hide(ProcessTerm):
    hidden: frozenset[str]
    body: ProcessTerm
    __hash__ = ProcessTerm.__hash__

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", frozenset(self.hidden))

    def apply(self, name: str) -> str:
        return TAU if name in self.hidden else name


@d.dataclass(frozen=True, eq=True)
class Relabel(ProcessTerm):
    # Sorted (old, new) pairs with identity entries dropped: canonical and
    # hashable.  tau may not be renamed and nothing may be renamed to tau.
    mapping: tuple[tuple[str, str], ...]
    body: ProcessTerm
    __hash__ = ProcessTerm.__hash__

    def __post_init__(self) -> None:
        pairs = {}
        for old, new in self.mapping:
            if TAU in (old, new):
                raise ValueError("relabeling must keep tau fixed")
            if old in pairs and pairs[old] != new:
                raise ValueError(f"ambiguous relabeling of {old}")
            pairs[old] = new
        canon = tuple(sorted((o, n) for o, n in pairs.items() if o != n))
        object.__setattr__(self, "mapping", canon)

    def apply(self, name: str) -> str:
        if name == TAU:
            return TAU
        return dict(self.mapping).get(name, name)


@d.dataclass(frozen=True, eq=True)
class Var(ProcessTerm):
    name: str
    __hash__ = ProcessTerm.__hash__


@d.dataclass(frozen=True, eq=True)
class Rec(ProcessTerm):
    var: str
    body: ProcessTerm
    __hash__ = ProcessTerm.__hash__


NIL = Nil()
SUCCESS = Success()


def children(term: ProcessTerm) -> tuple[ProcessTerm, ...]:
    if isinstance(term, Prefix):
        return (term.body,)
    if isinstance(term, (Choice, Parallel)):
        return (term.left, term.right)
    if isinstance(term, (Hide, Relabel)):
        return (term.body,)
    if isinstance(term, Rec):
        return (term.body,)
    return ()


def with_children(term: ProcessTerm, kids: Sequence[ProcessTerm]) -> ProcessTerm:
    """term rebuilt over kids, which take the places that children lists."""
    if isinstance(term, Prefix):
        return Prefix(term.name, term.rate, kids[0])
    if isinstance(term, Choice):
        return Choice(kids[0], kids[1])
    if isinstance(term, Parallel):
        return Parallel(term.sync, kids[0], kids[1])
    if isinstance(term, Hide):
        return Hide(term.hidden, kids[0])
    if isinstance(term, Relabel):
        return Relabel(term.mapping, kids[0])
    if isinstance(term, Rec):
        return Rec(term.var, kids[0])
    return term


def subterms(term: ProcessTerm) -> Iterator[ProcessTerm]:
    """term and all its subterms in preorder, children left to right, on
    an explicit stack: linear time at any depth."""
    stack = [term]
    while stack:
        sub = stack.pop()
        yield sub
        stack.extend(reversed(children(sub)))


def summand_list(term: ProcessTerm) -> list[ProcessTerm]:
    """The summands of a choice tree, left to right."""
    if isinstance(term, Choice):
        return summand_list(term.left) + summand_list(term.right)
    return [term]


def nest_right(parts: list[ProcessTerm]) -> ProcessTerm:
    """The right-nested choice of parts; NIL when there are none."""
    if not parts:
        return NIL
    acc = parts[-1]
    for p in reversed(parts[:-1]):
        acc = Choice(p, acc)
    return acc


def visible_names(term: ProcessTerm) -> frozenset[str]:
    """All visible action names occurring syntactically in the term.

    Sync sets, hide sets and both sides of relabelings count: they all
    shape which names the term can interact on.
    """
    names: set[str] = set()
    for sub in subterms(term):
        names.update(_own_names(sub))
    return frozenset(names)


def _own_names(sub: ProcessTerm) -> Sequence[str] | frozenset[str]:
    """The names that visible_names takes from the node itself, not from
    its children."""
    if isinstance(sub, Prefix):
        return () if sub.name == TAU else (sub.name,)
    if isinstance(sub, Parallel):
        return sub.sync
    if isinstance(sub, Hide):
        return sub.hidden
    if isinstance(sub, Relabel):
        return [name for pair in sub.mapping for name in pair]
    return ()


def uses_failure_name(term: ProcessTerm) -> bool:
    return FAILURE_NAME in visible_names(term)


def free_vars(term: ProcessTerm) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Rec):
        return free_vars(term.body) - {term.var}
    out: frozenset[str] = frozenset()
    for child in children(term):
        out |= free_vars(child)
    return out


@d.dataclass(frozen=True)
class WellFormedness:
    closed: bool
    guarded: bool


def _guarded(term: ProcessTerm, pending: frozenset[str]) -> bool:
    # pending holds recursion variables whose binder has not yet been
    # crossed by a prefix on the current path.
    if isinstance(term, Var):
        return term.name not in pending
    if isinstance(term, Prefix):
        return _guarded(term.body, frozenset())
    if isinstance(term, Rec):
        return _guarded(term.body, pending | {term.var})
    return all(_guarded(child, pending) for child in children(term))


def check_wellformed(term: ProcessTerm) -> WellFormedness:
    """Closedness plus guardedness of every recursion variable.

    A variable is guarded when every occurrence below its binder sits
    inside at least one action prefix of the binder's body.
    """
    return WellFormedness(
        closed=not free_vars(term),
        guarded=_guarded(term, frozenset()),
    )


def require_analyzable(term: ProcessTerm, *, allow_failure_name: bool = False) -> bool:
    """Raise NotWellFormed if the term has free variables, else if a
    recursion variable is unguarded, else ReservedNameError if it uses the
    name z and that is not allowed.  One walk on an explicit stack finds
    all three, so a term of any depth is checked.  Returns whether the
    term holds a rec binder."""
    free: set[str] = set()
    guarded = True
    failure = False
    binder = False
    none: frozenset[str] = frozenset()
    # (node, variables bound above it, variables bound above it whose
    # binder no prefix on the path has crossed yet)
    stack = [(term, none, none)]
    while stack:
        sub, bound, pending = stack.pop()
        if isinstance(sub, Var):
            if sub.name not in bound:
                free.add(sub.name)
            if sub.name in pending:
                guarded = False
            continue
        if isinstance(sub, Prefix):
            pending = none
        elif isinstance(sub, Rec):
            bound, pending = bound | {sub.var}, pending | {sub.var}
            binder = True
        failure = failure or FAILURE_NAME in _own_names(sub)
        for child in children(sub):
            stack.append((child, bound, pending))
    if free:
        raise NotWellFormed(f"term has free variables {sorted(free)}")
    if not guarded:
        raise NotWellFormed("unguarded recursion")
    if failure and not allow_failure_name:
        raise ReservedNameError(f"name {FAILURE_NAME!r} is reserved for tests")
    return binder


def require_names(names: Iterable[str], what: str) -> None:
    """Raise CalcError unless every name is one the grammar can read: an
    ASCII identifier, [A-Za-z_][A-Za-z0-9_]*.  what says what a name is."""
    for name in names:
        if not (name.isascii() and name.isidentifier()):
            raise CalcError(f"{what} {name!r} is not an identifier")


def substitute(term: ProcessTerm, var: str, replacement: ProcessTerm) -> ProcessTerm:
    """Replace free occurrences of var.  The replacement must be closed
    (always the case for recursion unfolding), so no capture can occur."""
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, Rec) and term.var == var:  # shadowed
        return term
    return with_children(term, [substitute(child, var, replacement) for child in children(term)])


def alpha_normalize(term: ProcessTerm) -> ProcessTerm:
    """Rename recursion binders to canonical names X1, X2, ... by binder
    nesting depth, so alpha-equivalent closed terms become identical.
    Every subterm that no renaming reaches is kept as it is, not copied,
    so a term that is already canonical comes back as the same object."""
    return _alpha(term, {}, 0, free_vars(term))


def _alpha(term: ProcessTerm, env: dict[str, str], depth: int, free: frozenset[str]) -> ProcessTerm:
    if isinstance(term, Var):
        name = env.get(term.name, term.name)
        return term if name == term.name else Var(name)
    if isinstance(term, Rec):
        name = f"X{depth + 1}"
        while name in free:
            name += "_"
        body = _alpha(term.body, {**env, term.var: name}, depth + 1, free)
        return term if name == term.var and body is term.body else Rec(name, body)
    kids = children(term)
    renamed = [_alpha(child, env, depth, free) for child in kids]
    if all(map(is_, renamed, kids)):
        return term
    return with_children(term, renamed)


# Pretty printing.  Binding strength, tightest first: prefix, then hiding
# and relabeling, then parallel, then choice.  rec swallows everything to
# its right, so it is parenthesized whenever it appears as an operand.

_LEVEL_CHOICE = 0
_LEVEL_PAR = 1
_LEVEL_POSTFIX = 2
_LEVEL_PREFIX = 3
_LEVEL_ATOM = 4


def _level(term: ProcessTerm) -> int:
    if isinstance(term, (Nil, Success, Var)):
        return _LEVEL_ATOM
    if isinstance(term, Prefix):
        return _LEVEL_PREFIX
    if isinstance(term, (Hide, Relabel)):
        return _LEVEL_POSTFIX
    if isinstance(term, Parallel):
        return _LEVEL_PAR
    return _LEVEL_CHOICE  # Choice and Rec


def pretty(term: ProcessTerm, min_level: int = 0) -> str:
    if isinstance(term, Nil):
        text = "0"
    elif isinstance(term, Success):
        text = "s"
    elif isinstance(term, Var):
        text = term.name
    elif isinstance(term, Prefix):
        text = f"<{term.name},{term.rate}>.{pretty(term.body, _LEVEL_PREFIX)}"
    elif isinstance(term, Hide):
        text = f"{pretty(term.body, _LEVEL_POSTFIX)} / {{{','.join(sorted(term.hidden))}}}"
    elif isinstance(term, Relabel):
        renames = ",".join(f"{o}->{n}" for o, n in term.mapping)
        text = f"{pretty(term.body, _LEVEL_POSTFIX)}[{renames}]"
    elif isinstance(term, Parallel):
        op = f"|[{','.join(sorted(term.sync))}]|"
        text = f"{pretty(term.left, _LEVEL_POSTFIX)} {op} {pretty(term.right, _LEVEL_PAR)}"
    elif isinstance(term, Choice):
        text = f"{pretty(term.left, _LEVEL_PAR)} + {pretty(term.right, _LEVEL_CHOICE)}"
    elif isinstance(term, Rec):
        text = f"rec {term.var} : {pretty(term.body, _LEVEL_CHOICE)}"
    else:
        raise TypeError(f"not a process term: {term!r}")
    if _level(term) < min_level:
        return f"({text})"
    return text
