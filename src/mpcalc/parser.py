"""Concrete syntax.

Process terms:

    P ::= "0" | "<" name "," rate ">" "." P | P "+" P | P "|[" names "]|" P
        | P "/" "{" names "}" | P "[" a "->" b ("," ...)* "]"
        | ident | "rec" ident ":" P

    rate ::= number | number "/" number | "*" number | "*" number "/" number

Binding strength, tightest first: prefix, hiding/relabeling, parallel,
choice.  "+" and "|[...]|" associate to the right; "rec X : ..." extends as
far right as possible.  Tests share the syntax, with "s" for the success
state.  Formulas: "true", "<a> phi", "phi \\/ phi", parentheses.
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
    re.VERBOSE,
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


class _TermParser:
    """test_mode admits the success atom "s"."""

    def __init__(self, stream: _Stream, test_mode: bool):
        self.stream = stream
        self.test_mode = test_mode

    def parse(self) -> t.ProcessTerm:
        term = self.choice()
        if self.stream.current[0] != "end":
            raise self.stream.error("trailing input")
        return term

    def choice(self) -> t.ProcessTerm:
        left = self.parallel()
        if self.stream.accept("+"):
            return t.Choice(left, self.choice())
        return left

    def parallel(self) -> t.ProcessTerm:
        left = self.postfix()
        if self.stream.accept("|["):
            sync = _parse_name_list(self.stream, "]|")
            return t.Parallel(sync, left, self.parallel())
        return left

    def postfix(self) -> t.ProcessTerm:
        term = self.prefixed()
        while True:
            if self.stream.accept("/"):
                self.stream.expect("{")
                term = t.Hide(_parse_name_list(self.stream, "}"), term)
            elif self.stream.accept("["):
                term = t.Relabel(self._renames(), term)
            else:
                return term

    def _renames(self) -> tuple[tuple[str, str], ...]:
        targets: dict[str, str] = {}
        if not self.stream.check("]"):
            while True:
                start = self.stream.current
                old = self.stream.ident()
                self.stream.expect("->")
                end = self.stream.current
                new = self.stream.ident()
                if t.TAU in (old, new):
                    raise self.stream.error_at(start if old == t.TAU else end,
                                               "relabeling must keep tau fixed")
                if targets.setdefault(old, new) != new:
                    raise self.stream.error_at(
                        start, f"{old} is relabeled to both {targets[old]} and {new}")
                if not self.stream.accept(","):
                    break
        self.stream.expect("]")
        return tuple(targets.items())

    def prefixed(self) -> t.ProcessTerm:
        stream = self.stream
        actions = []
        while stream.accept("<"):
            name = stream.ident("action name")
            stream.expect(",")
            rate = _parse_rate(stream)
            stream.expect(">")
            stream.expect(".")
            actions.append((name, rate))
        term = self.atom()
        for name, rate in reversed(actions):
            term = t.Prefix(name, rate, term)
        return term

    def atom(self) -> t.ProcessTerm:
        stream = self.stream
        if stream.accept("0"):
            return t.NIL
        if stream.accept("("):
            term = self.choice()
            stream.expect(")")
            return term
        if stream.accept("rec"):
            var = stream.ident("recursion variable")
            stream.expect(":")
            return t.Rec(var, self.choice())
        if stream.current[0] == "ident":
            name = stream.ident()
            if self.test_mode and name == "s":
                return t.SUCCESS
            return t.Var(name)
        raise stream.error("expected a term")


def parse_term(source: str) -> t.ProcessTerm:
    """Parse a process term.  Recursion binders are renamed to canonical
    depth-indexed names so alpha-equivalent terms parse identically."""
    stream = _Stream(source)
    term = _TermParser(stream, test_mode=False).parse()
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
    return _TermParser(_Stream(source), test_mode=True).parse()


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
    if stream.current[0] != "end":
        raise stream.error("trailing input")
    return formula
