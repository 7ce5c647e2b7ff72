"""Checks every answer of a run against references independent of it.

Runs as its own process after the timed run.  Each expected answer in
expect.json names its source:

- construction: identical terms, permuted operands and sound-law twins
  are equivalent; a bumped rate is inequivalent, and where the generator
  fixed it the exact witness word is known;
- oracle: decider verdicts on random pairs must agree with the bounded
  testing oracle, as in acceptance criterion 07;
- independent engines: every returned witness (test, theta) is confirmed
  by the term-level prob_pass on both sides; prob_pass values must equal
  the oracle's successful_measures; eval_formula on tau-free terms must
  equal prob_pass of formula_test; a reported modal difference must
  re-evaluate to the reported, different values; normal forms and proofs
  are checked against the decider, the recursive normalizer and a replay
  of the rewrite trace;
- pinned: answers recorded at the parent commit (pinned.json).

Only validity of a witness test is checked, not which test was found.

    python3 perfbench/checker.py --questions Q.json --expect E.json --answers A.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import theta_of, use_checkout_source

use_checkout_source()

import mpcalc  # noqa: E402
from mpcalc import parse_term, terms  # noqa: E402
from mpcalc.axioms import RewriteStep, apply_law  # noqa: E402
from mpcalc.oracle import passing_probability, successful_measures  # noqa: E402

ORACLE_DEPTH = 4  # criterion 07's depth


def _differs_under_test(p1, p2, test_text, theta) -> bool:
    test = mpcalc.parse_test(test_text)
    theta = theta_of(theta)
    left = mpcalc.prob_pass(parse_term(p1), test, theta)
    return left != mpcalc.prob_pass(parse_term(p2), test, theta)


def check_equiv(args, expect, answer, problems):
    if "equivalent" in expect and answer["equivalent"] != expect["equivalent"]:
        problems.append(f"verdict {answer['equivalent']}, expected {expect['equivalent']}")
        return
    if "word" in expect and answer["word"] != expect["word"]:
        problems.append(f"witness word {answer['word']}, expected {expect['word']}")
    if answer["equivalent"]:
        if answer["word"] is not None or answer["test"] is not None:
            problems.append("equivalent verdict carries a witness")
    else:
        if answer["word"] is None:
            problems.append("inequivalent verdict without a witness word")
        if answer["test"] is not None:
            if not _differs_under_test(args["p1"], args["p2"], answer["test"], answer["theta"]):
                problems.append(f"witness test {answer['test']} at {answer['theta']} "
                                "passes both sides equally")
        elif expect.get("test_required"):
            problems.append("no witness test for a word the search depth covers")
    if expect["source"] == "oracle":
        oracle = mpcalc.bounded_testing_oracle(parse_term(args["p1"]), parse_term(args["p2"]),
                                               depth=ORACLE_DEPTH)
        if not oracle.equivalent and answer["equivalent"]:
            problems.append(f"oracle distinguishes with {oracle.witness_test}")
        if (not answer["equivalent"] and len(answer["word"] or ()) <= ORACLE_DEPTH
                and oracle.equivalent):
            problems.append("oracle finds no test for a short witness word")


def check_char(args, expect, answer, problems):
    if not answer["consistent"] and answer["decider_equivalent"]:
        problems.append("theorem violation: a formula separates decider-equivalent terms")
    if expect.get("equivalent"):
        if answer["decider_equivalent"] is not True or not answer["consistent"]:
            problems.append("sound-law twins reported as distinguishable")
    if not answer["consistent"]:
        formula = mpcalc.parse_formula(answer["formula"])
        theta = theta_of(answer["theta"])
        left = mpcalc.eval_formula(parse_term(args["p1"]), theta, formula)
        right = mpcalc.eval_formula(parse_term(args["p2"]), theta, formula)
        if (str(left), str(right)) != (answer["left"], answer["right"]) or left == right:
            problems.append(f"reported difference re-evaluates to {left} and {right}")


def check_eval(args, expect, answer, problems):
    formula = mpcalc.parse_formula(args["formula"])
    test = mpcalc.make_test(mpcalc.formula_test(formula))
    reference = mpcalc.prob_pass(parse_term(args["p"]), test, theta_of(args["theta"]))
    if answer["value"] != str(reference):
        problems.append(f"eval {answer['value']}, prob_pass of formula_test {reference}")


def check_pass(args, expect, answer, problems):
    theta = theta_of(args["theta"])
    lts = mpcalc.build_lts(parse_term(args["p"]))
    measures = successful_measures(lts, mpcalc.parse_test(args["test"]), len(theta))
    reference = passing_probability(measures, theta)
    if answer["value"] != str(reference):
        problems.append(f"prob_pass {answer['value']}, oracle measures {reference}")


def check_normalize(args, expect, answer, problems):
    normal = parse_term(answer["normal_form"])
    if not mpcalc.decide_equiv(parse_term(args["p"]), normal, with_test_witness=False).equivalent:
        problems.append("normal form is not equivalent to the term")
    if terms.pretty(mpcalc.normalize(normal)) != answer["normal_form"]:
        problems.append("normal form is not a fixpoint of normalize")


def _replay(text, steps):
    term = parse_term(text)
    for law, position, direction, binding in steps:
        term = apply_law(term, RewriteStep(law, tuple(position), direction,
                                           tuple(tuple(b) for b in binding)))
    return terms.pretty(term)


def check_prove(args, expect, answer, problems):
    if answer["proved"] != (answer["normal_left"] == answer["normal_right"]):
        problems.append("proved flag disagrees with the normal forms")
    if answer["decider_equivalent"] is False and (answer["proved"] or expect.get("equivalent")):
        problems.append("the report calls proved or sound-law twin terms inequivalent")
    if answer["proved"] and not mpcalc.decide_equiv(
            parse_term(args["p1"]), parse_term(args["p2"]), with_test_witness=False).equivalent:
        problems.append("decider calls the proved terms inequivalent")
    for side, key in (("p1", "left"), ("p2", "right")):
        normal, steps = answer[f"normal_{key}"], answer[f"trace_{key}"]
        if terms.pretty(mpcalc.normalize(parse_term(args[side]))) != normal:
            problems.append(f"{key} normal form differs from normalize")
        # A version that builds traces only on request returns none.
        if steps and _replay(args[side], steps) != normal:
            problems.append(f"{key} trace does not replay to the normal form")


CHECKS = {"equiv": check_equiv, "char": check_char, "eval": check_eval,
          "pass": check_pass, "normalize": check_normalize, "prove": check_prove}
# Fields a pin fixes; which witness test is found and the rewrite traces
# may change with later versions.
PINNED_FIELDS = {"equiv": ("equivalent", "word"),
                 "char": ("consistent", "decider_equivalent", "formula", "theta",
                          "left", "right"),
                 "eval": ("value",), "pass": ("value",), "normalize": ("normal_form",),
                 "prove": ("proved", "normal_left", "normal_right")}


def check(question: dict, expect: dict, answer: dict) -> list[str]:
    """Problems with one answer; empty when it is correct."""
    problems: list[str] = []
    kind = question["kind"]
    if "pinned" in expect:
        for field in PINNED_FIELDS[kind]:
            if answer[field] != expect["pinned"][field]:
                problems.append(f"{field} {answer[field]!r}, pinned {expect['pinned'][field]!r}")
    CHECKS[kind](question["args"], expect, answer, problems)
    return problems


def check_run(questions: dict, expect: dict, records: list) -> list[str]:
    """Problems of every answered question of a run, prefixed by its id."""
    by_id = {q["id"]: q for round_ in questions["rounds"] for q in round_}
    problems = []
    for record in records:
        if "answer" not in record:
            continue
        qid = record["id"]
        problems += [f"{qid} ({by_id[qid]['group']}): {p}"
                     for p in check(by_id[qid], expect[qid], record["answer"])]
    return problems


def same_answers(untraced: list, traced: list) -> list[str]:
    """Questions whose traced answer differs from the untraced one.  A
    question may fail on the time budget in one run only."""
    problems = []
    for a, b in zip(untraced, traced):
        if a.get("failure") == "budget" or b.get("failure") == "budget":
            continue
        if a != b:
            problems.append(f"{a['id']}: traced answer differs")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--questions", type=Path, required=True)
    parser.add_argument("--expect", type=Path, required=True)
    parser.add_argument("--answers", type=Path, required=True)
    parser.add_argument("--traced", type=Path, default=None,
                        help="answers of the traced run, compared with --answers")
    args = parser.parse_args()
    questions = json.loads(args.questions.read_text())
    expect = json.loads(args.expect.read_text())
    records = json.loads(args.answers.read_text())["records"]
    problems = check_run(questions, expect, records)
    if args.traced is not None:
        traced = json.loads(args.traced.read_text())["records"]
        problems += check_run(questions, expect, traced)
        problems += same_answers(records, traced)
    for problem in problems:
        sys.stderr.write(f"wrong answer: {problem}\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
