"""Tests of the benchmark itself: generator, asker, checker and tracer."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import asker
import checker
import tracer as tracer_module
import workload_gen
from common import BENCH_DIR, ROOT, WORKLOADS

import mpcalc

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_of_each_group(workload: str, seed: int = 5):
    stream = workload_gen.build(workload, seed, rounds=1)
    firsts = {}
    for question in stream.rounds[0]:
        firsts.setdefault(question["group"], question)
    return list(firsts.values()), stream.expect


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_group_answers_correctly(workload):
    questions, expect = _first_of_each_group(workload)
    answered = 0
    for question in questions:
        _, record = asker.ask(question, budget=1.5)
        if "failure" in record:
            # the seed's known defects, and questions cut by the short budget
            assert record["failure"] in ("budget", "RecursionError"), record
            continue
        answered += 1
        assert checker.check(question, expect[question["id"]], record["answer"]) == []
    assert answered >= len(questions) // 3


def test_generator_is_seeded_and_gives_every_question_its_own_text():
    one = workload_gen.build("quantitative", 7, rounds=2)
    two = workload_gen.build("quantitative", 7, rounds=2)
    other = workload_gen.build("quantitative", 8, rounds=2)
    assert one.rounds == two.rounds and one.expect == two.expect
    assert one.rounds != other.rounds
    texts = [json.dumps([q["kind"], q["args"]]) for r in one.rounds for q in r]
    assert len(texts) == len(set(texts))


def _answered(workload, group):
    questions, expect = _first_of_each_group(workload)
    question = next(q for q in questions if q["group"] == group)
    _, record = asker.ask(question, budget=30)
    assert checker.check(question, expect[question["id"]], record["answer"]) == []
    return question, expect[question["id"]], record["answer"]


def test_checker_rejects_a_flipped_verdict():
    question, expect, answer = _answered("pairs", "deep2x3")
    flipped = dict(answer, equivalent=not answer["equivalent"])
    assert checker.check(question, expect, flipped)
    question, expect, answer = _answered("large", "chain40-equal")
    assert checker.check(question, expect, dict(answer, equivalent=False, word=[]))


def test_checker_rejects_a_perturbed_fraction():
    for group in ("pass6", "eval"):
        question, expect, answer = _answered("quantitative", group)
        wrong = str(Fraction(answer["value"]) + Fraction(1, 1000))
        assert checker.check(question, expect, dict(answer, value=wrong))


def test_checker_rejects_an_answer_that_differs_from_its_pin():
    question, expect, answer = _answered("pairs", "pinned")
    pinned = dict(expect, pinned=dict(expect["pinned"], word=["<{a} a @1>"]))
    assert checker.check(question, pinned, answer)


def test_failures_are_counted_with_their_cause():
    questions, _ = _first_of_each_group("large")
    deep = next(q for q in questions if q["group"] == "chain1000-equal")
    assert asker.ask(deep)[1]["failure"] == "RecursionError"
    questions, _ = _first_of_each_group("pairs")
    slow = next(q for q in questions if q["group"] == "deep4x4")
    elapsed, record = asker.ask(slow, budget=0.2)
    assert record["failure"] == "budget" and elapsed < 1.0


def test_traced_and_untraced_runs_give_identical_answers():
    questions = []
    for workload in WORKLOADS:
        firsts, _ = _first_of_each_group(workload, seed=6)
        questions += [q for q in firsts if not q["group"].startswith(
            ("deep4x4", "deep3x4", "chain1", "chain2", "chain8", "cycles4", "char-law",
             "prove", "pass7"))]
    plain = asker.run([questions], seconds=60)
    original = mpcalc.decide_equiv
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert mpcalc.decide_equiv is not original
        traced = asker.run([questions], seconds=60, tracer=tracer)
    finally:
        tracer.uninstall()
    assert mpcalc.decide_equiv is original
    assert traced["records"] == plain["records"]
    summary = tracer.summary()
    assert summary["calls"]["parser"] > 0 and summary["self_s"]["decider.span"] > 0
    assert summary["absent"] == []


def test_tracer_skips_absent_names(monkeypatch):
    monkeypatch.setattr(tracer_module, "LAYERS", tracer_module.LAYERS + (
        ("axioms.gone", "axioms", "no_such_function"),))
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.summary()["absent"] == ["axioms.no_such_function"]


def _run(tmp_path, *args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", "quantitative", "--seed", "3",
               "--seconds", "1", "--workdir", str(tmp_path / "work"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_benchmark_contract(tmp_path, trace, section):
    done = _run(tmp_path, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(tmp_path, "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
