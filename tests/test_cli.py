from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mpcalc import cli, testing
from mpcalc.cli import main
from mpcalc.testing import canonical_tests


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_roundtrip_and_rate_error(capsys):
    code, out, _ = run(capsys, "parse", "<a,3/2>.0")
    assert code == 0 and out == "<a,3/2>.0\n"
    code, _, err = run(capsys, "parse", "<a,0>.0")
    assert code == 2
    assert "rate must be positive" in err


def test_check_equiv_exit_codes_and_witness(capsys):
    code, out, _ = run(capsys, "check-equiv", "-p1", "<tau,2>.0", "-p2", "<tau,1>.0")
    assert code == 1
    assert "inequivalent" in out
    assert "witness word:" in out
    assert "distinguishing test: s" in out
    assert "theta: 1/2" in out
    code, out, _ = run(capsys, "check-equiv",
                       "-p1", "<a,1>.0 + <a,1>.0", "-p2", "<a,2>.0")
    assert code == 0 and "equivalent" in out


def test_eval_test_prints_exact_value(capsys):
    code, out, _ = run(capsys, "eval-test", "-p", "<a,1>.0",
                       "-t", "<a,*1>.s", "--theta", "1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "eval-test", "-p", "<tau,1>.0 + <a,1>.0",
                       "-t", "<a,*1>.s", "--theta", "1/2")
    assert code == 0 and out == "1/2 ~ 0.5\n"


def test_a_zero_theta_denominator_exits_two(capsys):
    code, out, err = run(capsys, "eval-test", "-p", "<a,1>.0", "-t", "<a,*1>.s",
                         "--theta", "1/0")
    assert code == 2 and out == ""
    assert err == "error: bad theta '1/0': zero denominator\n"


def test_eval_test_errors_exit_two(capsys):
    code, out, err = run(capsys, "eval-test", "-p", "<a,*1>.0",
                         "-t", "s", "--theta", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "eval-test", "-p", "<a,1>.<a,1>.0",
                         "-t", "s", "--theta", "1", "--state-bound", "2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_eval_test_names_success_right_after_a_tau_move(capsys):
    code, out, err = run(capsys, "eval-test", "-p", "<a,1>.0",
                         "-t", "<tau,1>.s", "--flavor", "tau")
    assert code == 2 and out == ""
    assert "cannot follow an internal move" in err


def test_eval_test_state_bound_counts_process_states_only(capsys):
    # one process state, three states of the interaction with the test
    code, out, _ = run(capsys, "eval-test", "-p", "rec X : <a,1>.X",
                       "-t", "<a,*1>.<a,*1>.s", "--theta", "1,1",
                       "--state-bound", "1")
    assert code == 0 and out == "1\n"


def test_eval_formula_prints_fraction_and_decimal(capsys):
    code, out, _ = run(capsys, "eval-formula",
                       "-p", "<a,2>.0 + <b,3>.0 + <tau,1>.0",
                       "-f", "<a>true \\/ <b>true", "--theta", "1/6")
    assert code == 0 and out == "5/6 ~ 0.833333333333\n"


def test_eval_formula_rejects_overlapping_disjuncts(capsys):
    code, _, err = run(capsys, "eval-formula", "-p", "<a,1>.0",
                       "-f", "<a>true \\/ <a>true", "--theta", "1")
    assert code == 2 and "disjoint" in err


def test_eval_formula_errors_exit_two(capsys):
    code, out, err = run(capsys, "eval-formula", "-p", "<a,*1>.0",
                         "-f", "true", "--theta", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "eval-formula", "-p", "<a,1>.<a,1>.0",
                         "-f", "<a>true", "--theta", "1", "--state-bound", "2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_eval_formula_rejects_the_failure_name(capsys):
    code, out, err = run(capsys, "eval-formula", "-p", "<a,1>.0",
                         "-f", "<z>true", "--theta", "1")
    assert code == 2 and out == "" and "reserved" in err


def test_normalize_and_prove(capsys):
    code, out, _ = run(capsys, "normalize", "<a,1>.0 + <a,2>.0")
    assert code == 0 and out == "<a,3>.0\n"
    code, out, _ = run(capsys, "prove",
                       "-p1", "<a,1>.<b,2>.0 + <a,3>.<b,2>.0",
                       "-p2", "<a,4>.<b,2>.0")
    assert code == 0
    assert out.startswith("proved\n")
    assert "A4 ->" in out
    assert "normal form: <a,4>.<b,2>.0" in out
    code, out, _ = run(capsys, "prove", "-p1", "<tau,2>.0", "-p2", "<tau,1>.0")
    assert code == 1 and out.startswith("not proved\n")


def _chains(count):
    """count parallel 3-prefix chains, all names distinct."""
    names = iter("abcdefghijklmno")
    return " |[]| ".join(".".join(f"<{next(names)},1>" for _ in range(3)) + ".0"
                         for _ in range(count))


@pytest.mark.parametrize("count", [4, 5])
def test_normalize_refuses_a_normal_form_past_the_output_budget(capsys, count):
    # their normal forms share subterms, but print as trees of 1,846,895
    # and 829,247,194 nodes
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", _chains(count))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "OUTPUT_BUDGET" in err


def test_normalize_state_bound_counts_distinct_compositions(capsys):
    # the composition and its continuations are distinct compositions
    code, out, err = run(capsys, "normalize", "<a,1>.<b,1>.0 |[]| <c,1>.0",
                         "--state-bound", "1")
    assert code == 2 and out == "" and "compositions" in err


def test_prove_counts_both_normal_forms_against_the_output_budget(capsys, monkeypatch):
    # two normal forms <a,3>.0 of two nodes each
    argv = ("prove", "-p1", "<a,1>.0 + <a,2>.0", "-p2", "<a,3>.0")
    monkeypatch.setattr(cli, "OUTPUT_BUDGET", 4)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "OUTPUT_BUDGET", 3)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "OUTPUT_BUDGET" in err


def test_gen_tests_lists_canonical_tests(capsys):
    code, out, _ = run(capsys, "gen-tests", "-E", "a,b", "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "s" in lines
    assert "<a,*1>.s + <b,*1>.<z,*1>.s" in lines


@pytest.mark.parametrize("names, depth", [("a,b", 3), ("a,b,c", 2), ("a,a", 4), ("", 5)])
def test_gen_tests_refuses_past_the_output_budget(capsys, monkeypatch, names, depth):
    # the count is known before any test is built; the budget holds it exactly
    count = len(list(canonical_tests([n for n in names.split(",") if n], depth)))
    monkeypatch.setattr(cli, "OUTPUT_BUDGET", count)
    code, out, _ = run(capsys, "gen-tests", "-E", names, "--depth", str(depth))
    assert code == 0 and len(out.splitlines()) == count
    monkeypatch.setattr(cli, "OUTPUT_BUDGET", count - 1)
    code, out, err = run(capsys, "gen-tests", "-E", names, "--depth", str(depth))
    assert code == 2 and out == "" and "OUTPUT_BUDGET" in err


def test_gen_tests_past_the_output_budget_build_no_test(capsys, monkeypatch):
    # 1,082,401 tests; at depth 30 two names give about 1.5e18
    built = []
    for name in ("_index", "_test_of"):  # a test from its term, a test from its states
        make = getattr(testing, name)
        monkeypatch.setattr(testing, name, lambda *args, make=make: built.append(args) or make(*args))
    for names, depth in (("a,b,c,d", "4"), ("a,b", "30")):
        code, out, err = run(capsys, "gen-tests", "-E", names, "--depth", depth)
        assert code == 2 and out == "" and "OUTPUT_BUDGET" in err
    assert built == []


@pytest.mark.parametrize("names", ["a, b", "a b"])
def test_gen_tests_refuses_names_the_grammar_cannot_read(capsys, names):
    # " b" printed as <b,*1> would parse back as a test over another name
    code, out, err = run(capsys, "gen-tests", "-E", names, "--depth", "1")
    assert code == 2 and out == "" and "not an identifier" in err


def test_corpus_refuses_names_the_grammar_cannot_read(capsys):
    # " b" would be printed into terms that parse back over b, and 1a into
    # terms that do not parse at all
    for names in ("a, b", "1a"):
        code, out, err = run(capsys, "corpus", "--names", names, "--count", "1")
        assert code == 2 and out == "" and "not an identifier" in err
    code, out, _ = run(capsys, "corpus", "--names", "a,b", "--count", "3", "--seed", "3")
    assert code == 0 and out.splitlines() == [
        "<tau,1>.<tau,2>.(0 + 0)",
        "<a,1/3>.0[a->b,b->a] |[a,b]| (0 + 0) / {a,b}",
        "<tau,1/2>.<a,1/3>.(0 |[]| 0)"]


def test_gen_tests_negative_depth_exits_two(capsys):
    code, out, err = run(capsys, "gen-tests", "-E", "a", "--depth", "-1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_lts_text_and_dot(capsys):
    code, out, _ = run(capsys, "lts", "<a,1>.0 + <a,1>.0", "--annotate-rates")
    assert code == 0
    assert "states: 2" in out
    assert "[rate_t 2, sojourn 1/2 ~ 0.5]" in out
    assert "--a,1 [x2]-->" in out
    code, out, _ = run(capsys, "lts", "<a,1>.0", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="a, 1"' in out


def test_json_wrapper_shape(capsys):
    code, out, _ = run(capsys, "check-equiv", "-p1", "<tau,2>.0",
                       "-p2", "<tau,1>.0", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "check-equiv"
    assert payload["inputs"]["p1"] == "<tau,2>.0"
    assert payload["result"]["equivalent"] is False
    assert payload["witness"]["test"] == "s"
    assert payload["witness"]["theta"] == [{"num": 1, "den": 2}]


def test_corpus_is_deterministic_and_checkable(capsys):
    args = ("corpus", "--seed", "9", "--count", "5", "--pairs", "--check")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    assert "[True]" in first or "[False]" in first


def test_corpus_jobs_match_serial_verdicts(capsys):
    serial = ("corpus", "--seed", "4", "--count", "4", "--pairs", "--check")
    code, expected, _ = run(capsys, *serial)
    assert code == 0
    code, parallel, _ = run(capsys, *serial, "--jobs", "2")
    assert code == 0 and parallel == expected


def test_corpus_jobs_are_capped_at_the_cpu_count(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor: records its size, maps in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    args = ("corpus", "--seed", "4", "--count", "2", "--pairs", "--check", "--jobs", "64")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, _, _ = run(capsys, *args)
    assert code == 0 and sizes == [3]
    # an unknown CPU count means one worker: no pool at all
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, _, _ = run(capsys, *args)
    assert code == 0 and sizes == [3]


def test_conflicting_relabeling_exits_two(capsys):
    term = "<a,1>.0[a->b,a->c]"
    for argv in (("parse", term), ("lts", term), ("check-equiv", "-p1", term, "-p2", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "relabeled to both" in err


@pytest.mark.parametrize("argv", [
    ("gen-tests", "-E", "a,tau"),
    ("gen-tests", "-E", "z"),
    ("corpus", "--count", "30", "--names", "a,tau"),
    ("corpus", "--count", "30", "--names", "z"),
    ("corpus", "--names", "", "--tau-free"),
], ids=["gen-tests-tau", "gen-tests-z", "corpus-tau", "corpus-z", "corpus-empty-tau-free"])
def test_reserved_or_missing_names_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_deep_corpus_ends():
    # a separate process, so that a walk that never ends fails the test
    # instead of hanging the suite
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "mpcalc.cli", "corpus", "--count", "3",
                           "--depth", "200"], env=env, capture_output=True, text=True,
                          timeout=30)
    assert done.returncode in (0, 2), done.stderr


def test_corpus_of_tau_moves_needs_no_names(capsys):
    code, out, _ = run(capsys, "corpus", "--names", "", "--count", "2")
    assert code == 0 and len(out.splitlines()) == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["unknown-command"])
    assert info.value.code == 2


def test_deep_terms_exit_two_without_traceback(capsys):
    chain = "<a,1>." * 1000 + "0"
    nested = "(" * 3000 + "0" + ")" * 3000
    for argv in (("parse", chain),
                 ("check-equiv", "-p1", chain, "-p2", chain, "--no-witness-test"),
                 ("parse", nested)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: term nested too deeply") and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (("check-equiv", "-p1", "<a,1>.0", "-p2", "<a,2>.0", "--state-bound", "-3"), "--state-bound"),
    (("lts", "<a,1>.0", "--state-bound", "0"), "--state-bound"),
    (("corpus", "--count", "-1"), "--count"),
    (("corpus", "--count", "two"), "--count"),
    (("corpus", "--jobs", "0"), "--jobs"),
    (("corpus", "--pairs", "--check", "--jobs", "-3"), "--jobs"),
    (("corpus", "--depth", "0"), "--depth"),
    (("corpus", "--depth", "-1"), "--depth"),
    (("corpus", "--max-states", "0"), "--max-states"),
    (("corpus", "--max-states", "-5"), "--max-states"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_corpus_of_no_terms(capsys):
    code, out, _ = run(capsys, "corpus", "--count", "0")
    assert code == 0 and out == ""
