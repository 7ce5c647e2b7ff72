"""The measured process: asks a question stream through mpcalc's library API.

One caller, no threads: a closed loop that asks the next question once
the previous answer is in.  Each question's input text is parsed inside
its timed region, under a per-question time budget.  A question that
raises (RecursionError included) or runs past the budget counts as
failed, with its cause recorded, and the loop goes on.

    python3 perfbench/asker.py --questions Q.json --out A.json --seconds 30
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

from common import fracs, theta_of, use_checkout_source

use_checkout_source()

import mpcalc  # noqa: E402
from mpcalc import terms  # noqa: E402

BUDGET_S = 3.0


class BudgetExceeded(BaseException):
    """Raised from the timer signal; a BaseException so that no handler
    inside mpcalc can swallow it."""


def _on_timer(signum, frame):
    raise BudgetExceeded


# Each asker parses its input text and calls the library; the result is
# turned into JSON by the matching entry of ANSWER outside the timed region.
# The library is reached through the package's attributes at call time,
# so the tracer's rebinding applies.

def ask_equiv(args):
    return mpcalc.decide_equiv(mpcalc.parse_term(args["p1"]), mpcalc.parse_term(args["p2"]),
                               with_test_witness=args["witness"])


def ask_char(args):
    return mpcalc.characterization_check(
        mpcalc.parse_term(args["p1"]), mpcalc.parse_term(args["p2"]),
        formula_depth=3, grid_cap=3, max_theta_len=2)


def ask_eval(args):
    return mpcalc.eval_formula(mpcalc.parse_term(args["p"]), theta_of(args["theta"]),
                               mpcalc.parse_formula(args["formula"]))


def ask_pass(args):
    return mpcalc.prob_pass(mpcalc.parse_term(args["p"]), mpcalc.parse_test(args["test"]),
                            theta_of(args["theta"]))


def ask_normalize(args):
    return mpcalc.normalize(mpcalc.parse_term(args["p"]))


def ask_prove(args):
    return mpcalc.axiom_prove(mpcalc.parse_term(args["p1"]), mpcalc.parse_term(args["p2"]))


def _steps(trace):
    return [[s.law, list(s.position), s.direction, [list(b) for b in s.binding]]
            for s in trace]


ASK = {"equiv": ask_equiv, "char": ask_char, "eval": ask_eval, "pass": ask_pass,
       "normalize": ask_normalize, "prove": ask_prove}
ANSWER = {
    "equiv": lambda v: {
        "equivalent": v.equivalent,
        "word": None if v.witness_word is None else [str(x) for x in v.witness_word],
        "test": None if v.witness_test is None else str(v.witness_test),
        "theta": fracs(v.witness_theta)},
    "char": lambda r: {
        "consistent": r.consistent, "decider_equivalent": r.decider_equivalent,
        "formula": None if r.formula is None else str(r.formula),
        "theta": fracs(r.theta),
        "left": None if r.value_left is None else str(r.value_left),
        "right": None if r.value_right is None else str(r.value_right),
        "formulas_checked": r.formulas_checked},
    "eval": lambda value: {"value": str(value)},
    "pass": lambda value: {"value": str(value)},
    "normalize": lambda term: {"normal_form": terms.pretty(term)},
    "prove": lambda r: {
        "proved": r.proved, "decider_equivalent": r.decider_equivalent,
        "normal_left": terms.pretty(r.normal_left),
        "normal_right": terms.pretty(r.normal_right),
        "trace_left": _steps(r.trace_left), "trace_right": _steps(r.trace_right)},
}


def ask(question: dict, budget: float = BUDGET_S) -> tuple[float, dict]:
    """Ask one question; returns (seconds, record).  The record holds the
    answer, or the cause of the failure."""
    record = {"id": question["id"]}
    previous = signal.signal(signal.SIGALRM, _on_timer)
    start = time.perf_counter()
    try:
        # The timer is disarmed in an inner finally, so a signal that
        # arrives while disarming is still caught below.
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            result = ASK[question["kind"]](question["args"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        record["failure"] = "budget"
    except Exception as exc:  # every failure is counted, none ends the run
        record["failure"] = type(exc).__name__
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if "failure" not in record:
        try:
            record["answer"] = ANSWER[question["kind"]](result)
        except Exception as exc:
            record["failure"] = f"answer:{type(exc).__name__}"
    return elapsed, record


def run(rounds: list, seconds: float, tracer=None, budget: float = BUDGET_S) -> dict:
    """The closed loop over every question of the stream.  Questions left
    after twice the run length are not asked, which cuts off only versions
    far slower than the parent commit.  Returns the records, latencies,
    loop time, and resident memory at the end and at its peak."""
    records, latencies = [], []
    start = time.perf_counter()
    for question in (q for round_ in rounds for q in round_):
        if time.perf_counter() - start >= 2 * seconds:
            break
        if tracer is not None:
            tracer.question = question["id"]
        elapsed, record = ask(question, budget)
        records.append(record)
        latencies.append(elapsed)
    loop_s = time.perf_counter() - start
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return {"records": records, "latencies": latencies, "loop_s": loop_s,
            "rss_end_kb": resident_pages * resource.getpagesize() // 1024,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--questions", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    rounds = json.loads(args.questions.read_text())["rounds"]
    # Set-up ends here: imports done and the question file loaded.
    ready = time.monotonic()
    if args.setup_only:
        args.out.write_text(json.dumps({"ready": ready}))
        return
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = run(rounds, args.seconds, tracer)
    result["ready"] = ready
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write_spans(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
