"""Spans around the calls into each mpcalc layer, recorded from outside.

Tracer.install() rebinds each public layer function, in every mpcalc
module that holds it (the package's re-exports included), to a wrapper
that records a span: question id, span id, parent span id, name, start
and end.  A name that no longer exists is skipped and reported absent,
so the tracer survives refactors that delete or rename functions.  The
recursive, cached derive_transitions is not wrapped; its cache counters
are read instead.

Spans stay in memory and are written out by write_spans() at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "mpcalc"

# (span name, module, function).  Several functions may share a span name.
LAYERS = (
    ("parser", "parser", "parse_term"),
    ("parser", "parser", "parse_test_body"),
    ("parser", "parser", "parse_formula"),
    ("semantics.build_lts", "semantics", "build_lts"),
    ("decider.decide", "decider", "decide_equiv"),
    ("decider.embed", "decider", "embed"),
    ("decider.span", "decider", "prob_language_equiv"),
    ("oracle.witness", "oracle", "bounded_testing_oracle"),
    ("oracle.measures", "oracle", "successful_measures"),
    ("testing.prob_pass", "testing", "prob_pass"),
    ("mlogic.char", "mlogic", "characterization_check"),
    ("mlogic.eval", "mlogic", "eval"),
    ("axioms.prove", "axioms", "axiom_prove"),
    ("axioms.trace", "axioms", "normalize_with_trace"),
    ("axioms.normalize", "axioms", "normalize"),
)


def _count_lts(counts, args, result):
    counts["semantics.states"] += len(result.states)
    counts["semantics.transitions"] += sum(len(group) for group in result.outgoing)


def _count_embed(counts, args, result):
    counts["decider.embed.labels"] += len(result.matrices)


def _count_span(counts, args, result):
    labels = len(set(args[0].matrices) | set(args[1].matrices))
    counts["decider.span.basis"] += result.basis_size
    counts["decider.span.dimension"] += result.dimension
    counts["decider.span.label_products"] += result.basis_size * labels


def _count_witness(counts, args, result):
    counts["oracle.witness.tests_checked"] += result.tests_checked
    counts["oracle.witness.found"] += result.witness_test is not None


def _count_char(counts, args, result):
    counts["mlogic.char.formulas_checked"] += result.formulas_checked


def _count_prove(counts, args, result):
    counts["axioms.prove.trace_steps"] += len(result.trace_left) + len(result.trace_right)


COUNTERS = {
    "semantics.build_lts": _count_lts,
    "decider.embed": _count_embed,
    "decider.span": _count_span,
    "oracle.witness": _count_witness,
    "mlogic.char": _count_char,
    "axioms.prove": _count_prove,
}


class Tracer:
    def __init__(self):
        self.question: str | None = None
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._bindings: list[tuple[object, str, object]] = []
        self._cache_start = None

    def _wrap(self, name: str, function):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        count = COUNTERS.get(name)
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, time covered by children
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                spans.append((self.question, frame[0], None if parent is None else parent[0],
                              name, start, end))
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    # The result or signature changed shape; report the
                    # counter as absent rather than change the answer.
                    self.absent.append(f"{name} counts")
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._bindings.append((holder, key, original))
                        setattr(holder, key, traced)
        self._cache_start = self._cache_info()

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._bindings):
            setattr(holder, key, original)
        self._bindings.clear()

    def _cache_info(self):
        semantics = importlib.import_module(f"{PACKAGE}.semantics")
        info = getattr(getattr(semantics, "derive_transitions", None), "cache_info", None)
        return None if info is None else info()

    def summary(self) -> dict:
        """Self time and calls per span name, counts, and cache use."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls),
               "counts": dict(self.counts), "absent": sorted(set(self.absent))}
        end = self._cache_info()
        if end is None or self._cache_start is None:
            out["absent"].append("semantics.derive_transitions.cache_info")
        else:
            out["cache"] = {"hits": end.hits - self._cache_start.hits,
                            "misses": end.misses - self._cache_start.misses,
                            "entries": end.currsize}
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            for question, span, parent, name, start, end in self.spans:
                out.write(json.dumps({"question": question, "span": span, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")
