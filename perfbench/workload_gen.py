"""Seeded question streams for the benchmark workloads.

Run as its own process, before the measured one: the corpus generators
call build_lts while retrying, which would otherwise pre-fill mpcalc's
module-level caches with the very terms about to be measured.  The
measured process receives only question text (questions.json); the
expected answers and where each comes from go to expect.json, which only
the checker reads.

A stream is a list of rounds.  Every round of a workload has the same mix
of question shapes, so runs of different seeds ask the same mix.  Every
question in a stream has its own input text: rates and names are drawn
afresh for each one, so mpcalc's caches help only the way they help a
user asking a stream of new questions.

    python3 perfbench/workload_gen.py --workload pairs --seed 1 --seconds 30 --out DIR
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from common import BENCH_DIR, WORKLOADS, frac, use_checkout_source

use_checkout_source()

from mpcalc import corpus, mlogic  # noqa: E402
from mpcalc.axioms import apply_law  # noqa: E402
from mpcalc.decider import decide_equiv  # noqa: E402
from mpcalc.parser import parse_term  # noqa: E402
from mpcalc.semantics import build_lts  # noqa: E402
from mpcalc.terms import TAU  # noqa: E402

# Seconds one round takes at the parent commit.  --seconds sets how much
# a run asks: the whole number of rounds closest to that many seconds at
# the parent commit.  The work is then the same for every version and
# seed, so runs compare the same mix and the same growth of mpcalc's
# module-level caches.
ROUND_SECONDS = {"pairs": 1.55, "large": 10.5, "quantitative": 3.4}

# Corpus pairs per pairs round.  With 197 questions a round, 1% of a run
# is about two questions a round, so the tail percentile (p99) falls in
# the middle of the 2-name chains of lengths 5 and 6 (two a round, about
# 0.1 s each), below the 3-name depth-4 searches (one a round, about
# 1 s): the tail is then close to that group's median over the whole
# run, not set by its slowest few questions.
RANDOM_PAIRS = 190
# (visible names, chain length) of the deep-witness pairs; the witness
# word is the whole chain.  Words longer than 4 exceed the witness
# search's depth: they stay in so the defect shows.
DEEP_PAIRS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4))
# 4 names at depth 4 exhaust the time budget at the parent commit.  The
# pair stays in so the defect shows, but only once a run (in round 0, as
# the pinned questions): asked every round, the budget it runs into
# would set most of the round's time.
DEEP_ONCE = (4, 4)
# Interleaved 3-cycles of n operands are asked against themselves and a
# permuted twin (exhaustive spans) for n = 3, 4, and against a twin with
# one rate bumped (early exit) for n = 3, 4, 5.  At n = 5 the exhaustive
# span takes 2 to 12 s at the parent commit depending on the rates, on
# both sides of any time budget that fits a run, so it is left out.
CYCLE_VARIANTS = {3: ("self", "permuted", "perturbed"), 4: ("self", "permuted", "perturbed"),
                  5: ("perturbed",)}
# Chain lengths step evenly so that latencies spread evenly and the
# median falls between close values.  Chains longer than about 330
# prefixes raise RecursionError at the parent commit when two equal
# copies are compared, and whether they do depends on the caller's stack
# depth; 200 keeps a wide margin.
CHAIN_LENGTHS = tuple(range(40, 201, 20))
DEEP_CHAIN = 1000  # fails with RecursionError at the parent commit
CHAR_LAW = 1  # law twins over two names: the full formula sweep
# Pairs whose shortest differing word has at most 2 labels: theta of
# length 2 separates them early.  Longer words need the full sweep.
CHAR_OTHER = 6
# Formula values are the most common and cheapest question, so the
# median latency falls among many of them.
EVALS = 48
# (theta length, test) of the passing-probability questions on tau loops.
# Test s on a loop of three tau branches passes every computation under
# theta entries of at least 1, so each such question enumerates and
# compares all 3^length computations whatever the seed.
PASS_SHAPES = ((5, "s"), (6, "s"), (7, "s"), (6, "<a,*1>.s"))
NORMALIZE = 2
PROVE = 1
PARALLEL_SHAPE = (2, 2, 3)  # prefixes per operand of the 3-way parallel terms

# Distinct values, so that rng.sample draws distinct rates.
CHAIN_RATES = tuple(sorted({Fraction(n, m) for n in range(1, 10) for m in (1, 2, 3)}))
CYCLE_RATES = tuple(sorted({Fraction(n, m) for n in range(1, 10) for m in (1, 2)}))
THETA_GRID = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
PINNED = BENCH_DIR / "pinned.json"


class Stream:
    """Questions of one run, with their expected answers."""

    def __init__(self, workload: str, seed: int):
        self.rng = Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
        self.workload = workload
        self.rounds: list[list[dict]] = []
        self.expect: dict[str, dict] = {}
        self._seen: set[str] = set()

    def fresh(self, kind: str, args: dict) -> bool:
        key = json.dumps([kind, args], sort_keys=True)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def add(self, round_: list, kind: str, group: str, args: dict, expect: dict) -> None:
        qid = f"{self.workload}.{len(self.rounds)}.{len(round_)}"
        round_.append({"id": qid, "kind": kind, "group": group, "args": args})
        self.expect[qid] = expect


def _chain(prefixes) -> str:
    text = "0"
    for name, rate in reversed(prefixes):
        text = f"<{name},{frac(rate)}>.{text}"
    return text


def _label(ready: str, name: str, exit_rate) -> str:
    """Text of the decider's augmented label, as str(AugmentedLabel)."""
    return f"<{{{ready}}} {name} @{frac(exit_rate)}>"


def _chain_pair(rng: Random, names: list[str], length: int):
    """A chain and its twin with the last rate bumped by one.  The
    shortest differing word is the whole chain, ending in the left label."""
    prefixes = [(names[i % len(names)], rng.choice(CHAIN_RATES)) for i in range(length)]
    bumped = prefixes[:-1] + [(prefixes[-1][0], prefixes[-1][1] + 1)]
    word = [_label(name, name, rate) for name, rate in prefixes]
    return _chain(prefixes), _chain(bumped), word


def _spread(main: list, extra: list) -> list:
    """Interleave extra evenly into main, so any prefix has the mix."""
    out = list(main)
    step = len(out) // (len(extra) + 1) if extra else 0
    for i, item in enumerate(extra):
        out.insert((i + 1) * step + i, item)
    return out


def _pinned(stream: Stream, round_: list) -> None:
    """Questions whose answers were pinned at the parent commit."""
    for entry in json.loads(PINNED.read_text())[stream.workload]:
        stream.fresh(entry["kind"], entry["args"])
        stream.add(round_, entry["kind"], "pinned", entry["args"],
                   {"source": "pinned", "pinned": entry["answer"]})


def _random_pair(stream: Stream, witness: bool = True, kinds=None, names=None,
                 max_word=None):
    """One corpus pair (names a and b, at most 8 states), drawn until fresh.
    kinds, names and max_word select pairs; the decider's verdict only
    selects, the checker does not take it as the expected answer."""
    while True:
        (sample,) = corpus.random_pairs(stream.rng, 1, depth=3, max_states=8)
        if kinds is not None and sample.kind not in kinds:
            continue
        if max_word is not None:
            verdict = decide_equiv(sample.left, sample.right, with_test_witness=False)
            if verdict.equivalent or len(verdict.witness_word) > max_word:
                continue
        if names is not None and (build_lts(sample.left).visible_names()
                                  | build_lts(sample.right).visible_names()) != names:
            continue
        args = {"p1": str(sample.left), "p2": str(sample.right)}
        if witness:
            args["witness"] = True
        if stream.fresh("equiv" if witness else "char", args):
            return sample.kind, args


def pairs_round(stream: Stream, round_: list) -> None:
    rng = stream.rng
    small = []
    for _ in range(RANDOM_PAIRS):
        kind, args = _random_pair(stream)
        if kind == "law":
            expect = {"source": "construction: sound-law twin", "equivalent": True}
        else:
            expect = {"source": "oracle"}
        small.append(("equiv", "random", args, expect))
    shapes = DEEP_PAIRS + ((DEEP_ONCE,) if not stream.rounds else ())
    deep = []
    for count, length in shapes:
        while True:
            names = rng.sample(["a", "b", "c", "d"], count)
            left, right, word = _chain_pair(rng, names, length)
            args = {"p1": left, "p2": right, "witness": True}
            if stream.fresh("equiv", args):
                break
        expect = {"source": "construction: last rate bumped", "equivalent": False,
                  "word": word, "test_required": length <= 4}
        deep.append(("equiv", f"deep{count}x{length}", args, expect))
    for kind, group, args, expect in _spread(small, deep):
        stream.add(round_, kind, group, args, expect)


def _cycles(rates, order) -> str:
    return " |[]| ".join(
        f"(rec X{i} : <a,{frac(rates[i])}>.<b,{frac(rates[i])}>.<tau,{frac(rates[i])}>.X{i})"
        for i in order)


def _cycle_pair(rng: Random, n: int, variant: str):
    """Interleaved cycles with distinct rates, a twin, and the expected answer."""
    rates = rng.sample(CYCLE_RATES, n)
    order = list(range(n))
    left = _cycles(rates, order)
    if variant == "self":
        return left, left, {"source": "construction: identical terms", "equivalent": True}
    if variant == "permuted":
        while order == sorted(order):
            rng.shuffle(order)
        return left, _cycles(rates, order), {"source": "construction: permuted operands",
                                             "equivalent": True}
    # One cycle's a-rate bumped: the start state's exit rate differs, so
    # the first label of the left side already separates them.
    which = rng.randrange(n)
    right = left.replace(f"(rec X{which} : <a,{frac(rates[which])}>",
                         f"(rec X{which} : <a,{frac(rates[which] + 1)}>")
    return left, right, {"source": "construction: one rate bumped", "equivalent": False,
                         "word": [_label("a", "a", sum(rates))]}


def large_round(stream: Stream, round_: list) -> None:
    rng = stream.rng
    for n, variants in CYCLE_VARIANTS.items():
        for variant in variants:
            while True:
                left, right, expect = _cycle_pair(rng, n, variant)
                args = {"p1": left, "p2": right, "witness": False}
                if stream.fresh("equiv", args):
                    break
            stream.add(round_, "equiv", f"cycles{n}-{variant}", args, expect)
    for length in CHAIN_LENGTHS + (DEEP_CHAIN,):
        variants = ("equal",) if length == DEEP_CHAIN else ("equal", "perturbed")
        for variant in variants:
            while True:
                names = [rng.choice("ab") for _ in range(length)]
                left, right, word = _chain_pair(rng, names, length)
                if variant == "equal":
                    right = left
                args = {"p1": left, "p2": right, "witness": False}
                if stream.fresh("equiv", args):
                    break
            if variant == "equal":
                expect = {"source": "construction: identical terms", "equivalent": True}
            else:
                expect = {"source": "construction: last rate bumped", "equivalent": False,
                          "word": word}
            stream.add(round_, "equiv", f"chain{length}-{variant}", args, expect)


def _parallel_term(rng: Random) -> str:
    parts = []
    for size in PARALLEL_SHAPE:
        prefixes = [(rng.choice("ab"), rng.choice(CHAIN_RATES)) for _ in range(size)]
        parts.append(_chain(prefixes))
    return " |[]| ".join(parts)


def quantitative_round(stream: Stream, round_: list) -> None:
    rng = stream.rng
    questions = []
    for _ in range(CHAR_LAW):
        _, args = _random_pair(stream, witness=False, kinds=("law",),
                               names=frozenset({"a", "b"}))
        questions.append(("char", "char-law", args,
                          {"source": "construction: sound-law twin", "equivalent": True}))
    for _ in range(CHAR_OTHER):
        _, args = _random_pair(stream, witness=False, kinds=("random", "perturbed"),
                               max_word=2)
        questions.append(("char", "char-other", args, {"source": "re-evaluation"}))
    formulas = mlogic.enumerate_formulas(("a", "b"), 2)
    for _ in range(EVALS):
        while True:
            term = corpus.random_term(rng, depth=3, max_states=10, tau=False)
            # Hiding can still make tau moves; the checker's reference,
            # prob_pass of formula_test, equals eval only without them.
            if any(tr.name == TAU for tr in build_lts(term).transitions()):
                continue
            args = {"p": str(term), "formula": str(rng.choice(formulas)),
                    "theta": [frac(rng.choice(THETA_GRID)) for _ in range(rng.randint(1, 2))]}
            if stream.fresh("eval", args):
                break
        questions.append(("eval", "eval", args, {"source": "prob_pass of formula_test"}))
    for length, test in PASS_SHAPES:
        while True:
            # distinct rates: equal branches would merge into one transition
            rates = rng.sample(CHAIN_RATES, 3)
            if test == "s":
                loop = " + ".join(f"<tau,{frac(r)}>.X" for r in rates)
            else:
                loop = (f"<tau,{frac(rates[0])}>.X + <tau,{frac(rates[1])}>.X"
                        f" + <a,{frac(rates[2])}>.0")
            grid = THETA_GRID if test != "s" else THETA_GRID[-2:]
            args = {"p": f"rec X : {loop}", "test": test,
                    "theta": [frac(rng.choice(grid)) for _ in range(length)]}
            if stream.fresh("pass", args):
                break
        questions.append(("pass", f"pass{length}", args, {"source": "oracle measures"}))
    for _ in range(NORMALIZE):
        args = {"p": _parallel_term(rng)}
        while not stream.fresh("normalize", args):
            args = {"p": _parallel_term(rng)}
        questions.append(("normalize", "normalize", args, {"source": "decider"}))
    for _ in range(PROVE):
        while True:
            left = _parallel_term(rng)
            term = parse_term(left)
            step = rng.choice(corpus.sound_steps(term))
            args = {"p1": left, "p2": str(apply_law(term, step))}
            if stream.fresh("prove", args):
                break
        questions.append(("prove", "prove", args,
                          {"source": "construction: sound-law twin", "equivalent": True}))
    # Mix the groups so any prefix of the round has every kind.
    rng.shuffle(questions)
    for kind, group, args, expect in questions:
        stream.add(round_, kind, group, args, expect)


ROUND_BUILDERS = {"pairs": pairs_round, "large": large_round,
                  "quantitative": quantitative_round}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, rounds: int, pinned: bool = True) -> Stream:
    stream = Stream(workload, seed)
    for index in range(rounds):
        round_: list[dict] = []
        if index == 0 and pinned:
            _pinned(stream, round_)
        ROUND_BUILDERS[workload](stream, round_)
        stream.rounds.append(round_)
    return stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    stream = build(args.workload, args.seed, rounds_for(args.workload, args.seconds))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "questions.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "rounds": stream.rounds}))
    (args.out / "expect.json").write_text(json.dumps(stream.expect))


if __name__ == "__main__":
    main()
