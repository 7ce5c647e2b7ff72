"""Exact equivalence decisions via the embedded discrete-time chain.

Each step becomes one label for each set of names a reactive test may
offer: the set, the action name, and the rate at which the source's
moves on the set and on tau race, with the step's share of that rate as
its weight.  Probabilistic language equivalence of the two resulting
weighted automata is then decided with a basis of at most n1+n2 vectors
for each part of the span.
"""

from mpcalc.decider import decide_equiv, embed, prob_language_equiv
from mpcalc.parser import parse_term
from mpcalc.semantics import build_lts

# Choices can be deferred: branching early with rates 1 and 2 into the
# same continuation is the same behavior as branching late with rate 3.
early = parse_term("<a,1>.<b,5>.0 + <a,2>.<b,5>.0")
late = parse_term("<a,3>.<b,5>.0")
verdict = decide_equiv(early, late)
print("deferred choice:", "equivalent" if verdict.equivalent else "inequivalent")
print("  basis size:", verdict.basis_size, "of dimension", verdict.dimension)
print()

# Different internal speeds are observable through time bounds, so the
# decision is negative and comes with a distinguishing word, test and
# bound sequence.
fast = parse_term("<tau,2>.0")
slow = parse_term("<tau,1>.0")
verdict = decide_equiv(fast, slow)
print("internal race:", "equivalent" if verdict.equivalent else "inequivalent")
print("  witness word:", " . ".join(str(w) for w in verdict.witness_word))
print("  witness test:", verdict.witness_test,
      " theta:", ",".join(str(v) for v in verdict.witness_theta))
print()

# Both sides offer a and b at exit rate 4 after c, but only the left can
# go on with a at rate 1 or 3: a test that offers a and blocks b sees it,
# so each label carries the set of names the test offers.
mixed = parse_term("<c,1>.(<a,1>.0 + <b,3>.0) + <c,1>.(<a,3>.0 + <b,1>.0)")
even = parse_term("<c,2>.(<a,2>.0 + <b,2>.0)")
verdict = decide_equiv(mixed, even)
print("rates behind one exit rate:", "equivalent" if verdict.equivalent else "inequivalent")
print("  witness word:", " . ".join(str(w) for w in verdict.witness_word))
print("  witness test:", verdict.witness_test,
      " theta:", ",".join(str(v) for v in verdict.witness_theta))
print()

# The raw automata are small enough to inspect.
auto = embed(build_lts(parse_term("<a,2>.0 + <b,3>.0")))
print("embedded chain of a two-way race:")
for label, rows in sorted(auto.matrices.items(), key=lambda kv: kv[0].sort_key):
    for src, entries in rows.items():
        for tgt, prob in entries:
            print(f"  {src} --{label}--> {tgt} with probability {prob}")
report = prob_language_equiv(auto, auto)
print("self comparison:", report.equivalent)
