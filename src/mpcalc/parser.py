"""Concrete syntax.

Process terms:

    P ::= "0" | "<" name "," rate ">" "." P | P "+" P | P "|[" names "]|" P
        | P "/" "{" names "}" | P "[" a "->" b ("," ...)* "]"
        | ident | "rec" ident ":" P

    rate ::= number | number "/" number | "*" number | "*" number "/" number

Binding strength, tightest first: prefix, hiding/relabeling, parallel,
choice.  One function, _term, reads a term in that order: a run of
prefixes; one primary ("0", a name, a parenthesized term or a rec); its
hidings and relabelings; one "|[...]|", whose right operand it reads at
parallel level; and, at choice level only, one "+", whose right operand
it reads at choice level.  So "+" and "|[...]|" associate to the right,
and the body of "rec X : ...", read at choice level, extends as far right
as possible.  Tests share the syntax, with "s" for the success state.
Formulas: "true", "<a> phi", "phi \\/ phi", parentheses.

Tokens are ASCII: a digit is 0-9, and only ASCII whitespace separates.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import terms as t
from .errors import ParseError, RateValueError, ReservedNameError

# One match per token: leading whitespace, then the token, a lone
# character that starts no token, or the end of the source.  Every offset
# matches, so one pass over the source reads every token.
_TOKENS = re.compile(
    r"""
    \s*(?:
      (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol>\|\[|\]\||->|\\/|[<>,.+/{}()\[\]:*])
    | (?P<bad>\S)
    | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.ASCII,
)

# A token is (kind, text, offset into the source), kind one of "number",
# "ident", "symbol" and "end"; the end token has empty text.
Token = tuple[str, str, int]


def _position(source: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of an offset into source.
    Lines end at newlines; any other character, a tab or a carriage
    return too, is one column."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKENS.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}",
                             *_position(source, start))
        tokens.append((kind, match[kind], start))
        if kind == "end":
            break
    return tokens


class _Stream:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.position = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def error_at(self, token: Token, message: str, error=ParseError) -> ParseError:
        return error(message, *_position(self.source, token[2]))

    def error(self, message: str) -> ParseError:
        tok = self.current
        shown = tok[1] or "end of input"
        return self.error_at(tok, f"{message} (found {shown!r})")

    def check(self, text: str) -> bool:
        # text is never empty, so the end token never matches
        return self.tokens[self.position][1] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.position][1] == text:
            self.position += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(f"expected {text!r}")

    def ident(self, what: str = "name") -> str:
        kind, text, _ = self.tokens[self.position]
        if kind != "ident":
            raise self.error(f"expected {what}")
        self.position += 1
        return text

    def finish(self) -> None:
        if self.tokens[self.position][0] != "end":
            raise self.error("trailing input")

    def number(self) -> Fraction:
        kind, text, _ = self.tokens[self.position]
        if kind != "number":
            raise self.error("expected number")
        self.position += 1
        # an integer converts without Fraction's parse of the text
        return Fraction(int(text)) if text.isdigit() else Fraction(text)


def _parse_rate(stream: _Stream) -> t.Rate:
    tok = stream.current
    passive = stream.accept("*")
    value = stream.number()
    if stream.accept("/"):
        denominator = stream.number()
        if denominator == 0:
            raise stream.error_at(tok, "zero denominator", RateValueError)
        value = value / denominator
    if not value:  # a number token is never negative
        raise stream.error_at(tok, f"rate must be positive, got {value}", RateValueError)
    return t.Rate(value, passive=passive)


def _parse_name_list(stream: _Stream, closing: str) -> frozenset[str]:
    names: set[str] = set()
    if not stream.check(closing):
        while True:
            tok = stream.current
            name = stream.ident()
            if name == t.TAU:
                raise stream.error_at(tok, "tau may not appear in a name set")
            names.add(name)
            if not stream.accept(","):
                break
    stream.expect(closing)
    return frozenset(names)


def _parse_renames(stream: _Stream) -> tuple[tuple[str, str], ...]:
    targets: dict[str, str] = {}
    if not stream.check("]"):
        while True:
            start = stream.current
            old = stream.ident()
            stream.expect("->")
            end = stream.current
            new = stream.ident()
            if t.TAU in (old, new):
                raise stream.error_at(start if old == t.TAU else end,
                                      "relabeling must keep tau fixed")
            if targets.setdefault(old, new) != new:
                raise stream.error_at(
                    start, f"{old} is relabeled to both {targets[old]} and {new}")
            if not stream.accept(","):
                break
    stream.expect("]")
    return tuple(targets.items())


_CHOICE = 0
_PARALLEL = 1


def _term(stream: _Stream, test_mode: bool, level: int) -> t.ProcessTerm:
    """Read a term at choice or parallel level.  test_mode admits the
    success atom "s"."""
    actions = []
    while stream.accept("<"):
        name = stream.ident("action name")
        stream.expect(",")
        rate = _parse_rate(stream)
        stream.expect(">")
        stream.expect(".")
        actions.append((name, rate))
    if stream.accept("0"):
        term = t.NIL
    elif stream.accept("("):
        term = _term(stream, test_mode, _CHOICE)
        stream.expect(")")
    elif stream.accept("rec"):
        var = stream.ident("recursion variable")
        stream.expect(":")
        term = t.Rec(var, _term(stream, test_mode, _CHOICE))
    elif stream.current[0] == "ident":
        name = stream.ident()
        term = t.SUCCESS if test_mode and name == "s" else t.Var(name)
    else:
        raise stream.error("expected a term")
    for name, rate in reversed(actions):
        term = t.Prefix(name, rate, term)
    while True:
        if stream.accept("/"):
            stream.expect("{")
            term = t.Hide(_parse_name_list(stream, "}"), term)
        elif stream.accept("["):
            term = t.Relabel(_parse_renames(stream), term)
        else:
            break
    if stream.accept("|["):
        sync = _parse_name_list(stream, "]|")
        term = t.Parallel(sync, term, _term(stream, test_mode, _PARALLEL))
    if level == _CHOICE and stream.accept("+"):
        term = t.Choice(term, _term(stream, test_mode, _CHOICE))
    return term


def parse_term(source: str) -> t.ProcessTerm:
    """Parse a process term.  Recursion binders are renamed to canonical
    depth-indexed names so alpha-equivalent terms parse identically."""
    stream = _Stream(source)
    term = _term(stream, False, _CHOICE)
    stream.finish()
    # Only an identifier can spell the reserved name, and only the
    # keyword rec makes a binder: the term is walked only when needed.
    idents = {text for kind, text, _ in stream.tokens if kind == "ident"}
    if t.FAILURE_NAME in idents and t.uses_failure_name(term):
        raise ReservedNameError(f"name {t.FAILURE_NAME!r} is reserved for tests")
    if "rec" in idents:
        return t.alpha_normalize(term)
    return term


def parse_test_body(source: str) -> t.ProcessTerm:
    """Parse test syntax into a raw term; grammar-level validation happens
    in the testing module, which knows the test flavor."""
    stream = _Stream(source)
    term = _term(stream, True, _CHOICE)
    stream.finish()
    return term


# Formula syntax; the node classes live in mlogic.

def parse_formula(source: str):
    from . import mlogic

    stream = _Stream(source)

    def or_formula():
        left = head()
        if stream.accept("\\/"):
            return mlogic.Or(left, or_formula())
        return left

    def head():
        if stream.accept("true"):
            return mlogic.TRUE
        if stream.accept("<"):
            tok = stream.current
            name = stream.ident("action name")
            if name == t.TAU:
                raise stream.error_at(tok, "diamond names must be visible")
            stream.expect(">")
            return mlogic.Diamond(name, head())
        if stream.accept("("):
            inner = or_formula()
            stream.expect(")")
            return inner
        raise stream.error("expected a formula")

    formula = or_formula()
    stream.finish()
    return formula
