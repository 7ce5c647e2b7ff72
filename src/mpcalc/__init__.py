"""Markovian process calculus workbench.

Terms with exponentially timed and passive actions, multitransition
semantics, probabilistic testing, an exact testing-equivalence decider,
an equational axiomatization with a rewriting prover, and a quantitative
modal logic, all over exact rational arithmetic.
"""

from .axioms import (LAW_IDS, ProveReport, RewriteStep, apply_law, axiom_prove,
                     expand_static, normalize, normalize_with_trace)
from .computations import (enumerate_computations, filter_le_theta, filter_len,
                           make_theta, prob, prob_set, time_a)
from .decider import (AugmentedLabel, EquivReport, Verdict, WeightedAutomaton,
                      decide_equiv, embed, embed_pair, prob_language_equiv)
from .errors import (CalcError, DependentComputations, LawError,
                     NotPerformanceClosed, NotWellFormed, ParseError,
                     RateValueError, ReservedNameError, StateBoundExceeded)
from .mlogic import (TRUE, CharReport, Diamond, Formula, Or,
                     characterization_check, enumerate_formulas, formula_test)
from .mlogic import eval as eval_formula
from .mlogic import init as formula_init
from .oracle import OracleVerdict, bounded_testing_oracle, old_style_oracle
from .parser import parse_formula, parse_term, parse_test_body
from .rates import avg_sojourn, rate_e, rate_o, rate_t
from .semantics import (LMTS, Transition, build_lts, derive_transitions,
                        export_dot, export_json)
from .terms import (NIL, SUCCESS, TAU, Choice, Hide, Nil, Parallel, Prefix,
                    ProcessTerm, Rate, Rec, Relabel, Success, Var,
                    alpha_normalize, check_wellformed, pretty)
from .testing import (Test, canonical_tests, interaction, interaction_lts,
                      make_test, parse_test, prob_pass, successful_computations)
