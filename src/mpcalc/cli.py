"""Command-line front end.

Exit codes follow one convention across subcommands: 0 for success (and
for equivalent / proved verdicts), 1 for a negative verdict, 2 for usage
or analysis errors.  With --format json every command wraps its output as
{command, inputs, result} plus a witness key when one exists; rational
values always carry numerator and denominator, never floats alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random

from . import mlogic, terms as t
from .axioms import axiom_prove, normalize
from .computations import make_theta
from .corpus import random_pairs, random_term
from .decider import decide_equiv
from .errors import CalcError
from .parser import parse_formula, parse_term
from .semantics import build_lts, export_dot, export_json
from .testing import FLAVORS, canonical_tests, parse_test, prob_pass

# Past this many term nodes or tests, normalize, prove and gen-tests
# refuse to print: a normal form shares its subterms, but its printed
# tree can be exponentially larger than its LMTS.
OUTPUT_BUDGET = 100_000


def _decimal(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def fmt_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value} ~ {_decimal(value)}"


def frac_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def parse_theta(text: str):
    if not text:
        return make_theta(())
    try:
        return make_theta(Fraction(part) for part in text.split(","))
    except ZeroDivisionError as exc:
        raise CalcError(f"bad theta {text!r}: zero denominator") from exc
    except ValueError as exc:
        raise CalcError(f"bad theta {text!r}: {exc}") from exc


def _check_output(size: int, what: str) -> None:
    if size > OUTPUT_BUDGET:
        raise CalcError(f"the output would hold more than OUTPUT_BUDGET "
                        f"({OUTPUT_BUDGET}) {what}")


def _tree_size(term: t.ProcessTerm, sizes: dict) -> int:
    """Nodes of the printed tree of term, each distinct subterm counted
    once and remembered in sizes."""
    size = sizes.get(term)
    if size is None:
        size = sizes[term] = 1 + sum(_tree_size(kid, sizes) for kid in t.children(term))
    return size


class _Output:
    def __init__(self, command: str, fmt: str, inputs: dict):
        self.command = command
        self.json = fmt == "json"
        self.inputs = inputs
        self.lines: list[str] = []
        self.result: dict = {}
        self.witness: dict | None = None

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self) -> None:
        if self.json:
            doc = {"command": self.command, "inputs": self.inputs,
                   "result": self.result}
            if self.witness is not None:
                doc["witness"] = self.witness
            print(json.dumps(doc, indent=2))
        else:
            for line in self.lines:
                print(line)


def _cmd_parse(args, out: _Output) -> int:
    term = parse_term(args.term)
    wf = t.check_wellformed(term)
    out.say(str(term))
    out.result = {"pretty": str(term), "closed": wf.closed, "guarded": wf.guarded}
    return 0


def _cmd_lts(args, out: _Output) -> int:
    term = parse_term(args.term)
    lts = build_lts(term, args.state_bound)
    if args.dot:
        text = export_dot(lts)
        out.say(text)
        out.result = {"dot": text}
        return 0
    doc = out.result = export_json(lts, annotate_rates=args.annotate_rates)
    out.say(f"states: {len(doc['states'])}")
    for i, state in enumerate(doc["states"]):
        mark = "*" if i == 0 else " "
        note = ""
        if args.annotate_rates:
            rates = doc["rates"][i]
            shown = [value if value == "inf" else fmt_fraction(Fraction(value["num"], value["den"]))
                     for value in (rates["rate_t"], rates["sojourn"])]
            note = f"  [rate_t {shown[0]}, sojourn {shown[1]}]"
        out.say(f"{mark} {i}: {state}{note}")
    for i, group in enumerate(lts.rows):
        for name, rate, j, count in group:
            mult = f" [x{count}]" if count > 1 else ""
            out.say(f"  {i} --{name},{rate}{mult}--> {j}")
    return 0


def _cmd_check_equiv(args, out: _Output) -> int:
    p1 = parse_term(args.p1)
    p2 = parse_term(args.p2)
    verdict = decide_equiv(p1, p2, state_bound=args.state_bound,
                           with_test_witness=not args.no_witness_test)
    out.result = {"equivalent": verdict.equivalent,
                  "basis_size": verdict.basis_size,
                  "dimension": verdict.dimension}
    if verdict.equivalent:
        out.say("equivalent")
        return 0
    out.say("inequivalent")
    witness: dict = {}
    if verdict.witness_word is not None:
        word = " . ".join(str(label) for label in verdict.witness_word)
        out.say(f"witness word: {word or '(empty)'}")
        witness["word"] = [str(label) for label in verdict.witness_word]
    if verdict.witness_test is not None:
        theta = ",".join(str(x) for x in verdict.witness_theta)
        out.say(f"distinguishing test: {verdict.witness_test}")
        out.say(f"theta: {theta}")
        witness["test"] = str(verdict.witness_test)
        witness["theta"] = [frac_json(x) for x in verdict.witness_theta]
    out.witness = witness or None
    return 1


def _cmd_eval_test(args, out: _Output) -> int:
    process = parse_term(args.process)
    test = parse_test(args.test, args.flavor)
    theta = parse_theta(args.theta)
    value = prob_pass(process, test, theta, state_bound=args.state_bound)
    out.say(fmt_fraction(value))
    out.result = {"probability": frac_json(value)}
    return 0


def _cmd_eval_formula(args, out: _Output) -> int:
    process = parse_term(args.process)
    formula = parse_formula(args.formula)
    theta = parse_theta(args.theta)
    value = mlogic.eval(process, theta, formula, state_bound=args.state_bound)
    out.say(fmt_fraction(value))
    out.result = {"probability": frac_json(value)}
    return 0


def _cmd_normalize(args, out: _Output) -> int:
    term = parse_term(args.term)
    normal = normalize(term, state_bound=args.state_bound)
    _check_output(_tree_size(normal, {}), "term nodes")
    out.say(str(normal))
    out.result = {"normal_form": str(normal)}
    return 0


def _cmd_prove(args, out: _Output) -> int:
    p1 = parse_term(args.p1)
    p2 = parse_term(args.p2)
    report = axiom_prove(p1, p2, state_bound=args.state_bound)
    sizes: dict = {}
    _check_output(_tree_size(report.normal_left, sizes)
                  + _tree_size(report.normal_right, sizes), "term nodes")
    out.result = {"proved": report.proved,
                  "normal_left": str(report.normal_left),
                  "normal_right": str(report.normal_right),
                  "trace_left": [str(s) for s in report.trace_left],
                  "trace_right": [str(s) for s in report.trace_right],
                  "decider_equivalent": report.decider_equivalent}
    if report.proved:
        out.say("proved")
        for side, trace in (("left", report.trace_left),
                            ("right", report.trace_right)):
            for step in trace:
                out.say(f"  {side}: {step}")
        out.say(f"normal form: {report.normal_left}")
        return 0
    out.say("not proved")
    out.say(f"normal left:  {report.normal_left}")
    out.say(f"normal right: {report.normal_right}")
    if report.completeness_gap:
        out.say("decider says equivalent: completeness gap, see report")
    return 1


def _cmd_gen_tests(args, out: _Output) -> int:
    names = [n for n in args.environment.split(",") if n]
    tests = canonical_tests(names, args.depth)  # checks names and depth
    # k names give k * 2^(k-1) tests per test of the level above: one per
    # name of each nonempty subset
    k, count, level = len(set(names)), 0, 1
    for _ in range(args.depth + 1):
        count += level
        level *= k * 2 ** k // 2
        if count > OUTPUT_BUDGET or not level:
            break
    _check_output(count, "tests")
    texts = [str(test) for test in tests]
    for text in texts:
        out.say(text)
    out.result = {"count": len(texts), "tests": texts}
    return 0


def _check_pair(payload: tuple[str, str, int]) -> bool:
    left, right, bound = payload
    return decide_equiv(parse_term(left), parse_term(right),
                        state_bound=bound, with_test_witness=False).equivalent


def _cmd_corpus(args, out: _Output) -> int:
    rng = Random(args.seed)
    names = tuple(n for n in args.names.split(",") if n)
    t.require_names(names, "corpus name")
    if t.TAU in names or t.FAILURE_NAME in names:
        raise CalcError(f"--names must be visible names other than {t.FAILURE_NAME}")
    if not names and args.tau_free:
        raise CalcError("--tau-free needs at least one name in --names")
    if args.pairs:
        samples = random_pairs(rng, args.count, names=names, depth=args.depth,
                               max_states=args.max_states, tau=not args.tau_free)
        verdicts: list[bool] | None = None
        if args.check:
            payloads = [(str(s.left), str(s.right), args.state_bound)
                        for s in samples]
            jobs = min(args.jobs, os.cpu_count() or 1)
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    verdicts = list(pool.map(_check_pair, payloads))
            else:
                verdicts = [_check_pair(p) for p in payloads]
        rows = []
        for i, sample in enumerate(samples):
            row = {"kind": sample.kind, "left": str(sample.left),
                   "right": str(sample.right)}
            if sample.step is not None:
                row["step"] = str(sample.step)
            if verdicts is not None:
                row["equivalent"] = verdicts[i]
            rows.append(row)
            note = f"  [{row['equivalent']}]" if verdicts is not None else ""
            out.say(f"{sample.kind}\t{sample.left}\t{sample.right}{note}")
        out.result = {"pairs": rows}
        return 0
    terms = [random_term(rng, names=names, depth=args.depth,
                         max_states=args.max_states, tau=not args.tau_free)
             for _ in range(args.count)]
    for term in terms:
        out.say(str(term))
    out.result = {"terms": [str(x) for x in terms]}
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "lts": _cmd_lts,
    "check-equiv": _cmd_check_equiv,
    "eval-test": _cmd_eval_test,
    "eval-formula": _cmd_eval_formula,
    "normalize": _cmd_normalize,
    "prove": _cmd_prove,
    "gen-tests": _cmd_gen_tests,
    "corpus": _cmd_corpus,
}


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state-bound", type=_at_least(1), default=10000,
                        help="largest explorable state space; for eval-test, "
                        "of the process alone, not of its interaction with "
                        "the test; for normalize and prove, the most distinct "
                        "parallel compositions the expansion of each term may "
                        "eliminate (default 10000)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="mpcalc",
        description="Markovian process calculus workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common],
                       help="parse a term and print it back")
    p.add_argument("term")

    p = sub.add_parser("lts", parents=[common],
                       help="build and print the labeled multitransition system")
    p.add_argument("term")
    p.add_argument("--dot", action="store_true", help="emit a DOT graph")
    p.add_argument("--annotate-rates", action="store_true",
                   help="include exit rates and average sojourn times")

    p = sub.add_parser("check-equiv", parents=[common],
                       help="decide testing equivalence of two terms")
    p.add_argument("-p1", required=True)
    p.add_argument("-p2", required=True)
    p.add_argument("--no-witness-test", action="store_true",
                   help="skip translating the witness word into a test")

    p = sub.add_parser("eval-test", parents=[common],
                       help="probability of passing a test within theta")
    p.add_argument("-p", dest="process", required=True)
    p.add_argument("-t", dest="test", required=True)
    p.add_argument("--theta", default="", help="comma-separated rationals")
    p.add_argument("--flavor", choices=FLAVORS, default="reactive")

    p = sub.add_parser("eval-formula", parents=[common],
                       help="quantitative modal formula interpretation")
    p.add_argument("-p", dest="process", required=True)
    p.add_argument("-f", dest="formula", required=True)
    p.add_argument("--theta", default="", help="comma-separated rationals")

    p = sub.add_parser("normalize", parents=[common],
                       help="axiom-system normal form of a term")
    p.add_argument("term")

    p = sub.add_parser("prove", parents=[common],
                       help="prove equivalence by rewriting to a common normal form")
    p.add_argument("-p1", required=True)
    p.add_argument("-p2", required=True)

    p = sub.add_parser("gen-tests", parents=[common],
                       help="enumerate canonical reactive tests")
    p.add_argument("-E", dest="environment", required=True,
                   help="comma-separated visible names")
    p.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("corpus", parents=[common],
                       help="seeded random terms or term pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=10)
    p.add_argument("--depth", type=_at_least(1), default=3)
    p.add_argument("--max-states", type=_at_least(1), default=8)
    p.add_argument("--names", default="a,b")
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--tau-free", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="decide every emitted pair")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel worker processes for --check, at most "
                   "the number of CPUs")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    inputs = {key: value for key, value in vars(args).items()
              if key not in ("command", "format") and value is not None}
    out = _Output(args.command, args.format, inputs)
    try:
        code = _COMMANDS[args.command](args, out)
    except CalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the recursive term traversals give out on deeply nested terms;
        # exit code 1 would read as a negative verdict
        print("error: term nested too deeply (recursion limit exceeded)", file=sys.stderr)
        return 2
    out.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
