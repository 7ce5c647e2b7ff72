"""mpcalc benchmark: one workload, one seed, checked answers, metrics.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Steps, each in its own process so that no step warms mpcalc's
module-level caches for another:

1. workload_gen.py writes the seeded question stream and expected answers;
2. asker.py asks the stream in a closed loop (one caller); with --trace 1
   a second, traced asker.py asks the same questions.  --seconds sets how
   many rounds of questions the stream holds: as many as take that long
   at the parent commit;
3. checker.py checks every answer; one wrong answer fails the run.

With --trace 0, asker.py --setup-only runs in three batches: before the
asker, between the asker and the checker, and after the checker.  These
set-up time probes span the whole run, so that their median does not
hang on how fast the machine is at one moment.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it repeat
the metrics for people, with the tail percentile, sample counts and the
causes of failed questions by question group.  WORKLOADS.md says why
each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from common import BENCH_DIR, ROOT, WORKLOADS, use_checkout_source

SETUP_PROBES = 21  # in three batches over the run
CHILD_TIMEOUT_S = 150

# Spans whose self time is a per-layer metric.
SPAN_NAMES = ("decider.span", "semantics.build_lts", "decider.embed", "decider.decide",
              "oracle.witness", "oracle.measures", "mlogic.char", "mlogic.eval",
              "testing.prob_pass", "axioms.prove", "axioms.trace", "axioms.normalize",
              "parser")


class RunFailed(Exception):
    pass


def _python(script: str, *args, timeout: float = CHILD_TIMEOUT_S) -> None:
    """Run one of the benchmark's scripts and wait for it to end."""
    command = [sys.executable, str(BENCH_DIR / script), *map(str, args)]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{script} did not finish within {timeout} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{script} exited with {done.returncode}")


def _asker(work: Path, questions: Path, name: str, *args) -> tuple[float, Path]:
    """Run asker.py; returns its set-up time (process start until the first
    question is ready) and its output file."""
    out = work / f"{name}.json"
    spawned = time.monotonic()
    _python("asker.py", "--questions", questions, "--out", out, *args)
    return json.loads(out.read_text())["ready"] - spawned, out


def _quantile(values: list[float], percentile: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten questions beyond it
    (at least 50).  A run's question count depends only on --seconds."""
    return min(99, max(50, int(100 * (1 - 10 / count))))


def end_to_end(run: dict, setups: list[float], groups: dict) -> tuple[dict, list[str]]:
    records, latencies = run["records"], run["latencies"]
    failed = sum("failure" in r for r in records)
    answered = len(records) - failed
    tail = tail_percentile(len(latencies))
    tail_s = _quantile(latencies, tail)
    beyond = sum(x > tail_s for x in latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "questions_per_s": (answered / run["loop_s"], "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "rss_end_mb": (run["rss_end_kb"] / 1024, "MB"),
        "answered_share": (answered / len(records), "ratio"),
    }
    causes = Counter((groups[r["id"]], r["failure"]) for r in records if "failure" in r)
    by_group = "".join(f"; {group} {cause}: {n}" for (group, cause), n in sorted(causes.items()))
    notes = [
        f"latency_tail_ms is p{tail} of {len(latencies)} questions, {beyond} beyond it",
        f"failed_share = {failed / len(records):.6f} ratio "
        f"({failed} of {len(records)}{by_group})",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"peak_rss_mb = {run['peak_rss_kb'] / 1024:.1f} MB (ru_maxrss; on pairs it is set by"
        " how far the budget-cut 4-name witness search gets)",
    ]
    return metrics, notes


def per_layer(layers: dict, untraced_s: float, traced_s: float) -> tuple[dict, list[str]]:
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    cache = layers.get("cache", {"hits": 0, "misses": 0, "entries": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("decider.span", "semantics.build_lts", "oracle.witness", "mlogic.char",
                 "testing.prob_pass", "parser"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("decider.span.basis", "decider.span.dimension", "decider.span.label_products",
                 "semantics.states", "semantics.transitions", "decider.embed.labels",
                 "oracle.witness.tests_checked", "mlogic.char.formulas_checked",
                 "axioms.prove.trace_steps"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["decider.span.basis_fill"] = (
        ratio(counts.get("decider.span.basis", 0), counts.get("decider.span.dimension", 0)),
        "ratio")
    metrics["semantics.states_per_s"] = (
        ratio(counts.get("semantics.states", 0), self_s.get("semantics.build_lts", 0)), "1/s")
    metrics["semantics.derive.cache_hit_ratio"] = (
        ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    metrics["semantics.derive.cache_entries"] = (cache["entries"], "count")
    metrics["oracle.witness.found_ratio"] = (
        ratio(counts.get("oracle.witness.found", 0), calls.get("oracle.witness", 0)), "ratio")
    metrics["trace.overhead_share"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    total = sum(self_s.values())
    shares = sorted(((v / total if total else 0.0, k) for k, v in self_s.items()), reverse=True)
    notes = ["self-time shares: " + ", ".join(f"{k} {s:.1%}" for s, k in shares)]
    if layers["absent"]:
        notes.append("absent, reported as 0: " + ", ".join(layers["absent"]))
    return metrics, notes


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    questions, expect = work / "questions.json", work / "expect.json"
    _python("workload_gen.py", "--workload", workload, "--seed", seed, "--seconds", seconds,
            "--out", work)
    setups = []

    def setup_probes():
        for _ in range(0 if trace else SETUP_PROBES // 3):
            setups.append(_asker(work, questions, f"setup{len(setups)}", "--setup-only")[0])

    setup_probes()
    setup, answers = _asker(work, questions, "answers", "--seconds", seconds)
    setups.append(setup)
    setup_probes()
    untraced = json.loads(answers.read_text())
    check = ["--questions", questions, "--expect", expect, "--answers", answers]
    traced = None
    if trace:
        _, traced_out = _asker(work, questions, "traced", "--seconds", seconds, "--trace")
        traced = json.loads(traced_out.read_text())
        check += ["--traced", traced_out]
    try:
        _python("checker.py", *check)
    except RunFailed:
        raise RunFailed("wrong answers; see the lines above") from None
    setup_probes()
    records = untraced["records"]
    if trace:
        both = min(len(untraced["latencies"]), len(traced["latencies"]))
        metrics, notes = per_layer(traced["layers"], sum(untraced["latencies"][:both]),
                                   sum(traced["latencies"][:both]))
    else:
        groups = {q["id"]: q["group"]
                  for round_ in json.loads(questions.read_text())["rounds"] for q in round_}
        metrics, notes = end_to_end(untraced, setups, groups)
    print(f"perfbench {workload} seed {seed}: {len(records)} questions in "
          f"{untraced['loop_s']:.2f} s, one caller, closed loop, all answers checked")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {"correct": True, "attempted": len(records),
            "failed": sum("failure" in r for r in records),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the run's files go (default: .perfbench/ in the checkout)")
    args = parser.parse_args()
    use_checkout_source()
    work = args.workdir or ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RunFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
