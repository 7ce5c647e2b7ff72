"""Pins the answers of a fixed catalogue of questions at the current commit.

The catalogue holds questions whose answers no construction fixes:
verdicts and witness words of random pairs, modal differences, formula
values, passing probabilities and normal forms.  Each answer is checked
against the independent references of checker.py before it is pinned.
workload_gen.py puts these questions at the start of every stream, and
checker.py requires later versions to give the same answers.

    python3 perfbench/pin.py    # rewrites perfbench/pinned.json
"""

from __future__ import annotations

import json

import asker
import checker
import workload_gen

PIN_SEED = 912  # the catalogue is drawn from this seed's first round
# group -> how many of that group's questions are pinned
CATALOGUE = {
    "pairs": {"random": 6},
    "large": {},
    "quantitative": {"char-other": 3, "eval": 2, "pass5": 1, "pass6": 1, "normalize": 2},
}


def catalogue(workload: str) -> list[dict]:
    stream = workload_gen.build(workload, PIN_SEED, rounds=1, pinned=False)
    wanted = dict(CATALOGUE[workload])
    chosen = []
    for question in stream.rounds[0]:
        group = question["group"]
        # Random pairs that are sound-law twins are fixed by construction.
        if wanted.get(group, 0) and stream.expect[question["id"]]["source"] != (
                "construction: sound-law twin"):
            wanted[group] -= 1
            chosen.append((question, stream.expect[question["id"]]))
    return chosen


def main() -> None:
    pinned = {}
    for workload in workload_gen.WORKLOADS:
        entries = []
        for question, expect in catalogue(workload):
            _, record = asker.ask(question, budget=60)
            problems = checker.check(question, expect, record["answer"])
            if problems:
                raise SystemExit(f"{question['id']}: {problems}")
            answer = {k: record["answer"][k] for k in checker.PINNED_FIELDS[question["kind"]]}
            entries.append({"kind": question["kind"], "args": question["args"],
                            "answer": answer})
        pinned[workload] = entries
    workload_gen.PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
