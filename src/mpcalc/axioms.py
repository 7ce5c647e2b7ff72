"""Equational laws, static-operator expansion and a normalization prover.

The fifteen laws cover commutativity/associativity/identity of choice
(A1-A3), the rate-merging schema A4, the expansion law A5 for parallel
composition with its nil degenerations A6-A8, and distribution of hiding
(A9-A12) and relabeling (A13-A15) over prefixes and sums.

The laws for static operators read the semantics rather than restate it.
A5-A8 rewrite a composition into the sum of its one-step moves, which
semantics.compose_parallel computes from the operands' prefix summands,
so the synchronization rates of the law and of derive_transitions are
one computation.  A9-A15 distribute a hiding or relabeling over nil, a
prefix (renamed by Hide.apply or Relabel.apply) or a sum, one path for
both operators.

A6 and A7 keep the nil parallel context around the continuations
(<a,rate>.(P |[S]| 0) rather than <a,rate>.P), as the parallel rule
does: dropping it is unsound whenever a continuation mentions a name in
S, e.g. <a,1>.<s,1>.0 |[s]| 0 deadlocks after a while <a,1>.<s,1>.0 does
not.  Innermost expansion removes the kept context in the next round, so
fully expanded results are unaffected.

normalize implements the proof strategy: expand away static operators,
then, bottom up, flatten each sum with A1-A3, merge each group of its
summands that meets A4's side condition once, and sort it under a fixed
total order.  One pass per sum is enough, because a merged group is one
prefix with the group's A4 key, which no other summand has.  No LMTS is
built: A5-A15 share derive_transitions' rules, so the expansion of a
nonrecursive term unfolds its LMTS, and the term is performance closed
unless a passive prefix is met there.

expand_static, normalize, normalize_with_trace and axiom_prove run one
engine, _Engine, which records the law applications its rewriting
amounts to; the traced calls replay the record through apply_law.  The
expanded tree of a parallel composition can be exponentially larger than
its LMTS, so the engine works on distinct subterms, and a trace, as long
as the tree, is refused past TRACE_STEP_BUDGET steps before it is
replayed.  Untraced normal forms share their subterms and have no budget.
"""

from __future__ import annotations

import bisect
import dataclasses as d
from collections import Counter
from fractions import Fraction

from . import terms as t
from .decider import embed_pair, prob_language_equiv
from .errors import CalcError, LawError, NotPerformanceClosed, NotWellFormed, StateBoundExceeded
from .semantics import Entry, build_lts, compose_parallel

LAW_IDS = tuple(f"A{i}" for i in range(1, 16))

Path = tuple[int, ...]


@d.dataclass(frozen=True)
class RewriteStep:
    law: str
    position: Path = ()
    direction: str = "lr"  # lr | rl
    binding: tuple[tuple[str, str], ...] = ()

    def __str__(self) -> str:
        where = ".".join(map(str, self.position)) or "root"
        arrow = "->" if self.direction == "lr" else "<-"
        extra = "".join(f" {k}={v}" for k, v in self.binding)
        return f"{self.law} {arrow} at {where}{extra}"


def subterm_at(term: t.ProcessTerm, position: Path) -> t.ProcessTerm:
    for i in position:
        kids = t.children(term)
        if not 0 <= i < len(kids):
            raise LawError(f"position {position} does not exist")
        term = kids[i]
    return term


def replace_at(term: t.ProcessTerm, position: Path, new: t.ProcessTerm) -> t.ProcessTerm:
    if not position:
        return new
    head = position[0]
    kids = list(t.children(term))
    if not 0 <= head < len(kids):
        raise LawError(f"position {position} does not exist")
    kids[head] = replace_at(kids[head], position[1:], new)
    return t.with_children(term, kids)


def _prefix_sum(term: t.ProcessTerm, law: str) -> list[t.Prefix]:
    parts = t.summand_list(term)
    if not all(isinstance(p, t.Prefix) for p in parts):
        raise LawError(f"{law} needs a sum of prefixes, got {term}")
    return parts  # type: ignore[return-value]


def _cumulative(body: t.ProcessTerm, law: str) -> dict[str, Fraction]:
    """Per-name summed rates of a body that is nil or a sum of
    exponentially timed prefixes."""
    if body == t.NIL:
        return {}
    out: dict[str, Fraction] = {}
    for p in _prefix_sum(body, law):
        if p.rate.passive:
            raise LawError(f"{law} is stated for exponentially timed rates")
        out[p.name] = out.get(p.name, Fraction(0)) + p.rate.value
    return out


def _a4_key(p: t.Prefix) -> tuple:
    """A4's side condition as a key: exponentially timed prefixes merge
    when they agree on the name and on the body's cumulative rates."""
    return p.name, tuple(sorted(_cumulative(p.body, "A4").items()))


def a4_merge(branches: list[t.Prefix]) -> t.Prefix:
    """The right-hand side of A4 for a sum of same-named timed prefixes
    whose bodies are nil or sums of prefixes: one prefix at the total
    rate, each inner prefix rescaled by its branch's share.  The caller
    checks the side condition: one _a4_key for all branches."""
    total = sum((b.rate.value for b in branches), Fraction(0))
    inner: list[t.ProcessTerm] = []
    for b in branches:
        share = b.rate.value / total
        if b.body == t.NIL:
            continue
        for p in _prefix_sum(b.body, "A4"):
            inner.append(t.Prefix(p.name, t.Rate(share * p.rate.value), p.body))
    return t.Prefix(branches[0].name, t.Rate(total), t.nest_right(inner))


# The redex of each law of A5-A15: the static operator at its root and
# the shape of its operands.
_REDEXES = {
    "A5": "P |[S]| Q for sums of prefixes P and Q",
    "A6": "P |[S]| 0",
    "A7": "0 |[S]| P",
    "A8": "0 |[S]| 0",
    "A9": "0 / H",
    "A10": "<a,r>.P / H with a in H",
    "A11": "<a,r>.P / H with a not in H",
    "A12": "(P1 + P2) / H",
    "A13": "0[phi]",
    "A14": "<a,r>.P[phi]",
    "A15": "(P1 + P2)[phi]",
}


def _static_law(x: t.ProcessTerm) -> str | None:
    """The law of A5-A15 whose redex shape x has, if any."""
    if isinstance(x, t.Parallel):
        left_nil, right_nil = x.left == t.NIL, x.right == t.NIL
        return "A8" if left_nil and right_nil else "A6" if right_nil else "A7" if left_nil else "A5"
    if not isinstance(x, (t.Hide, t.Relabel)):
        return None
    hide = isinstance(x, t.Hide)
    if x.body == t.NIL:
        return "A9" if hide else "A13"
    if isinstance(x.body, t.Choice):
        return "A12" if hide else "A15"
    if isinstance(x.body, t.Prefix):
        return "A14" if not hide else "A10" if x.body.name in x.hidden else "A11"
    return None


def _operand_moves(term: t.ProcessTerm, law: str) -> list[tuple[Entry, int]]:
    """The moves of a parallel operand that is nil or a sum of prefixes,
    one per summand."""
    if term == t.NIL:
        return []
    return [((p.name, p.rate, p.body), 1) for p in _prefix_sum(term, law)]


def _static_summands(law: str, x: t.ProcessTerm) -> list[t.ProcessTerm]:
    """The summands of the right-hand side of law, one of A5-A15, at a
    redex x of its shape.  A5-A8 give the one-step moves of the
    composition as prefixes; A9-A15 distribute the hiding or relabeling
    over the nil, prefix or sum body."""
    if isinstance(x, t.Parallel):
        moves = compose_parallel(x, _operand_moves(x.left, law), _operand_moves(x.right, law))
        return [t.Prefix(*move) for move, _ in moves]
    body = x.body
    if isinstance(body, t.Choice):
        return [t.with_children(x, (body.left,)), t.with_children(x, (body.right,))]
    if isinstance(body, t.Prefix):
        return [t.Prefix(x.apply(body.name), body.rate, t.with_children(x, (body.body,)))]
    return []


def _rewrite(law: str, direction: str, x: t.ProcessTerm) -> t.ProcessTerm:
    if law == "A1":
        if isinstance(x, t.Choice):
            return t.Choice(x.right, x.left)
        raise LawError("A1 needs a choice")
    if law == "A2":
        if direction == "lr":
            if isinstance(x, t.Choice) and isinstance(x.left, t.Choice):
                return t.Choice(x.left.left, t.Choice(x.left.right, x.right))
            raise LawError("A2 needs (P1 + P2) + P3")
        if isinstance(x, t.Choice) and isinstance(x.right, t.Choice):
            return t.Choice(t.Choice(x.left, x.right.left), x.right.right)
        raise LawError("A2 (right-to-left) needs P1 + (P2 + P3)")
    if law == "A3":
        if direction == "rl":
            return t.Choice(x, t.NIL)
        if isinstance(x, t.Choice) and x.right == t.NIL:
            return x.left
        raise LawError("A3 needs P + 0")
    if direction != "lr":
        raise LawError(f"{law} is applied left-to-right only")
    if law == "A4":
        branches = _prefix_sum(x, "A4")
        if len(branches) < 2:
            raise LawError("A4 requires at least two branches")
        if any(b.rate.passive for b in branches):
            raise LawError("A4 is stated for exponentially timed rates")
        if len({_a4_key(b) for b in branches}) > 1:
            raise LawError("A4 branches must share one action name and cumulative rates")
        return a4_merge(branches)
    if _static_law(x) != law:
        raise LawError(f"{law} needs {_REDEXES[law]}")
    return t.nest_right(_static_summands(law, x))


def apply_law(term: t.ProcessTerm, step: RewriteStep) -> t.ProcessTerm:
    if step.law not in LAW_IDS:
        raise LawError(f"unknown law {step.law!r}")
    if step.direction not in ("lr", "rl"):
        raise LawError(f"unknown direction {step.direction!r}")
    redex = subterm_at(term, step.position)
    return replace_at(term, step.position, _rewrite(step.law, step.direction, redex))


def _require_nonrecursive(term: t.ProcessTerm) -> None:
    for sub in t.subterms(term):
        if isinstance(sub, (t.Rec, t.Var)):
            raise NotWellFormed("static expansion is defined for nonrecursive terms")
        if isinstance(sub, t.Success):
            raise NotWellFormed("tests cannot be expanded")


# Past this many steps a trace is refused: the expanded tree of a
# parallel composition, which a trace walks, can be exponentially larger
# than its LMTS.
TRACE_STEP_BUDGET = 100_000


def _summand_at(pos: Path, i: int, n: int) -> Path:
    """Position of summand i of the right-nested sum of n summands at pos."""
    return pos + (1,) * i + ((0,) if i < n - 1 else ())


def _size(steps: list) -> int:
    """Length of a recorded run's trace, found without replaying it."""
    return sum(1 if isinstance(item[0], str) else item[2] for item in steps)


def _replay(steps: list, prefix: Path, out: list[RewriteStep]) -> None:
    """Append a recorded run's trace to out, each position prefixed with
    prefix."""
    for item in steps:
        if isinstance(item[0], str):
            law, pos, direction, binding = item
            out.append(RewriteStep(law, prefix + pos, direction, binding))
        elif isinstance(item[1], list):
            at, shared, _ = item
            _replay(shared, prefix + at, out)
        else:  # a sort, as the swaps of adjacent summands an insertion sort makes
            at, passes, _ = item
            for i, count in enumerate(passes):
                for j in range(i, i - count, -1):
                    spine = prefix + at + (1,) * (j - 1)
                    if j == len(passes) - 1:
                        out.append(RewriteStep("A1", spine))
                    else:
                        out += [RewriteStep("A2", spine, "rl"), RewriteStep("A1", spine + (0,)),
                                RewriteStep("A2", spine)]


def _trace(steps: list) -> list[RewriteStep]:
    """The trace of a recorded run; past TRACE_STEP_BUDGET steps it is
    refused before any step is replayed."""
    if _size(steps) > TRACE_STEP_BUDGET:
        raise CalcError(f"the rewrite trace is longer than TRACE_STEP_BUDGET "
                        f"({TRACE_STEP_BUDGET} steps)")
    trace: list[RewriteStep] = []
    _replay(steps, (), trace)
    return trace


class _Engine:
    """One run of the rewriting engine, for one normalize, expand_static
    or axiom_prove call (whose two sides share its memos).

    Each method rewrites the subterm at position pos of the whole term and
    records each step in steps as a (law, position, direction, binding)
    tuple, and each sort as one (position, passes, size) entry.  Each
    distinct redex is eliminated, and each distinct expanded term
    canonicalized, once per run: the result is memoized on the term with
    the steps it took, recorded relative to the subterm's root, and
    (position, steps, size) stands for them at every position where the
    subterm occurs.  The engine is deterministic in the subterm, so this
    record is the trace a walk of the whole tree would take.  Untraced
    callers drop it; traced ones check its size against TRACE_STEP_BUDGET
    and only then replay it, with the positions prepended.  normalize
    allows state_bound compositions (A5-A8 redexes) new to the run, which
    bound the expansion's exponential part; expand_static any number.
    """

    def __init__(self):
        self.steps: list = []
        self.eliminated: dict = {}
        self.canonical: dict = {}
        self.nodes: dict = {}  # one object per eliminated result: keys compare shallowly
        self.budget = float("inf")

    def _once(self, memo: dict, work, x: t.ProcessTerm, pos: Path):
        """work(x, pos), computed once per distinct x."""
        entry = memo.get(x)
        if entry is None:
            outer, self.steps = self.steps, []
            result = work(x, ())
            entry = memo[x] = result, self.steps, _size(self.steps)
            self.steps = outer
        result, steps, size = entry
        if size:
            self.steps.append((pos, steps, size))
        return result

    def record(self, law: str, pos: Path, direction: str = "lr", binding=()) -> None:
        self.steps.append((law, pos, direction, binding))

    def expand(self, x: t.ProcessTerm, pos: Path) -> t.ProcessTerm:
        """Innermost elimination of every static operator in x."""
        if isinstance(x, t.Prefix):
            return t.Prefix(x.name, x.rate, self.expand(x.body, pos + (0,)))
        if isinstance(x, t.Choice):
            # nil summands are dropped on the way (A1, A3), keeping operand
            # sums in the prefix-sum shape the laws expect
            left = self.expand(x.left, pos + (0,))
            right = self.expand(x.right, pos + (1,))
            if right == t.NIL:
                self.record("A3", pos)
                return left
            if left == t.NIL:
                self.record("A1", pos)
                self.record("A3", pos)
                return right
            return t.Choice(left, right)
        if isinstance(x, (t.Parallel, t.Hide, t.Relabel)):
            kids = [self.expand(k, pos + (i,)) for i, k in enumerate(t.children(x))]
            return self.eliminate(t.with_children(x, kids), pos)
        return x

    def eliminate(self, x: t.ProcessTerm, pos: Path) -> t.ProcessTerm:
        """Eliminate the static operator at the root of x, whose operands
        are already expanded, one A5-A15 application at a time."""
        if isinstance(x, t.Parallel) and x not in self.eliminated:
            if not self.budget:
                raise StateBoundExceeded("more distinct compositions to expand than the state bound")
            self.budget -= 1
        return self._once(self.eliminated, self._eliminate, x, pos)

    def _eliminate(self, x: t.ProcessTerm, pos: Path) -> t.ProcessTerm:
        law = _static_law(x)
        binding = (("name", x.body.name),) if law in ("A10", "A11", "A14") else ()
        parts = _static_summands(law, x)
        self.record(law, pos, binding=binding)
        # the summands are static operators (A12, A15) or prefixes whose
        # continuations are (A5-A7, A10, A11, A14), over expanded operands;
        # they are eliminated directly, without walking the operands again
        n = len(parts)
        result = t.nest_right([
            self.eliminate(p, _summand_at(pos, i, n)) if law in ("A12", "A15")
            else t.Prefix(p.name, p.rate, self.eliminate(p.body, _summand_at(pos, i, n) + (0,)))
            for i, p in enumerate(parts)
        ])
        return self.nodes.setdefault(result, result)

    def flatten(self, term: t.ProcessTerm, pos: Path) -> list[t.ProcessTerm]:
        """Summands of the sum at pos, which A2 rotations nest to the right."""
        parts = []
        while isinstance(term, t.Choice):
            if isinstance(term.left, t.Choice):
                self.record("A2", pos)
                term = t.Choice(term.left.left, t.Choice(term.left.right, term.right))
            else:
                parts.append(term.left)
                term, pos = term.right, pos + (1,)
        parts.append(term)
        return parts

    def sort_summands(self, items: list, key, pos: Path) -> list:
        """Stable sort by key of the summands of the right-nested sum at
        pos, one item each, recorded as one (pos, passes, size) entry: how
        many earlier summands each summand passes, and the length of the
        adjacent swaps _replay makes of it, three steps each but one A1 for
        the swap into the last slot, the last summand's first."""
        keys, seen, passes = [key(item) for item in items], [], []
        for k in keys:
            passes.append(len(seen) - bisect.bisect(seen, k))
            bisect.insort(seen, k)
        if any(passes):
            self.steps.append((pos, tuple(passes), 3 * sum(passes) - (2 if passes[-1] else 0)))
        return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]

    def canon(self, term: t.ProcessTerm, pos: Path) -> tuple:
        """The canonical form of an expanded term, which holds no nil
        summands, with its sort key and, for an exponentially timed
        prefix, its A4 key (None otherwise)."""
        return self._once(self.canonical, self._canon, term, pos)

    def _canon(self, term: t.ProcessTerm, pos: Path) -> tuple:
        # Bottom up, each sum is flattened, each of its A4 groups is merged
        # once, in the order of their first members, and it is sorted.
        if isinstance(term, t.Prefix):
            if term.rate.passive:
                raise NotPerformanceClosed("normalization is defined for performance-closed terms")
            # the canonical body is nil or a sum of timed prefixes, as _a4_key needs
            body, body_key, _ = self.canon(term.body, pos + (0,))
            name, rate = term.name, term.rate
            node = t.Prefix(name, rate, body)
            return node, (1, 0 if name == t.TAU else 1, name, rate.value, body_key), _a4_key(node)
        if not isinstance(term, t.Choice):
            return term, (0,), None
        parts = self.flatten(term, pos)
        n = len(parts)
        items = [self.canon(part, _summand_at(pos, i, n)) for i, part in enumerate(parts)]
        for group, size in Counter(a4 for _, _, a4 in items if a4 is not None).items():
            if size < 2:
                continue
            # a stable partition floats the group to the tail of the spine,
            # where a contiguous sum is an addressable subterm
            items = self.sort_summands(items, lambda item: item[2] == group, pos)
            start = len(items) - size
            merge_at = pos + (1,) * start
            self.record("A4", merge_at, binding=(("width", str(size)),))
            merged = a4_merge([p for p, _, _ in items[start:]])
            items[start:] = [self.canon(merged, merge_at)]
        items = self.sort_summands(items, lambda item: item[1], pos)
        if len(items) == 1:  # merged down to one prefix, which sorts as one
            return items[0]
        return t.nest_right([p for p, _, _ in items]), (2, tuple(key for _, key, _ in items)), None

    def normalize(self, term: t.ProcessTerm, state_bound: int) -> tuple[t.ProcessTerm, list]:
        """The normal form of term and the steps the run recorded."""
        t.require_analyzable(term)
        _require_nonrecursive(term)
        self.steps, self.budget = [], state_bound
        return self.canon(self.expand(term, ()), ())[0], self.steps


def expand_static(term: t.ProcessTerm) -> t.ProcessTerm:
    """Remove Parallel/Hide/Relabel by innermost application of A5-A15."""
    _require_nonrecursive(term)
    return _Engine().expand(term, ())


def normalize(term: t.ProcessTerm, state_bound: int = 10000) -> t.ProcessTerm:
    """Normal form under the A1-A4 strategy after static expansion.

    Defined for nonrecursive performance-closed terms; such terms expand
    to exponentially timed prefix trees, which A4 can always merge when
    its cumulative-rate condition holds.  More than state_bound distinct
    parallel compositions to expand raise StateBoundExceeded.
    """
    return _Engine().normalize(term, state_bound)[0]


def normalize_with_trace(
    term: t.ProcessTerm, state_bound: int = 10000
) -> tuple[t.ProcessTerm, list[RewriteStep]]:
    """normalize, with the replayable rewrite sequence it took.  A trace
    longer than TRACE_STEP_BUDGET steps raises CalcError."""
    normal, steps = _Engine().normalize(term, state_bound)
    return normal, _trace(steps)


@d.dataclass(frozen=True)
class ProveReport:
    proved: bool
    normal_left: t.ProcessTerm
    normal_right: t.ProcessTerm
    trace_left: tuple[RewriteStep, ...]
    trace_right: tuple[RewriteStep, ...]
    decider_equivalent: bool

    @property
    def completeness_gap(self) -> bool:
        return not self.proved and self.decider_equivalent


def axiom_prove(
    p1: t.ProcessTerm,
    p2: t.ProcessTerm,
    *,
    state_bound: int = 10000,
) -> ProveReport:
    """Prove p1 = p2 by comparing normal forms; on failure build the two
    LMTSs and decide the pair, so completeness gaps of the strategy are
    visible rather than silent."""
    engine = _Engine()  # law twins share most subterms
    n1, steps = engine.normalize(p1, state_bound)
    trace1 = _trace(steps)
    n2, steps = engine.normalize(p2, state_bound)
    trace2 = _trace(steps)
    proved = n1 == n2
    decided = proved or prob_language_equiv(*embed_pair(build_lts(p1, state_bound),
                                                        build_lts(p2, state_bound))).equivalent
    return ProveReport(proved, n1, n2, tuple(trace1), tuple(trace2), decided)
