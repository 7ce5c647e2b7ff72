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

import dataclasses as d
import re
from fractions import Fraction

from . import terms as t
from .errors import ParseError, RateValueError, ReservedNameError

_TOKENS = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol>\|\[|\]\||->|\\/|[<>,.+/{}()\[\]:*])
    """,
    re.VERBOSE,
)


@d.dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "symbol" | "end"
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, column, index = 1, 1, 0
    while index < len(source):
        match = _TOKENS.match(source, index)
        if match is None:
            raise ParseError(f"unexpected character {source[index]!r}", line, column)
        kind = match.lastgroup or ""
        text = match.group()
        if kind != "ws":
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            column = len(text) - text.rindex("\n")
        else:
            column += len(text)
        index = match.end()
    tokens.append(Token("end", "", line, column))
    return tokens


class _Stream:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.position = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def error(self, message: str) -> ParseError:
        tok = self.current
        shown = tok.text or "end of input"
        return ParseError(f"{message} (found {shown!r})", tok.line, tok.column)

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind != "end"

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.position += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise self.error(f"expected {text!r}")
        tok = self.current
        self.position += 1
        return tok

    def ident(self, what: str = "name") -> str:
        if self.current.kind != "ident":
            raise self.error(f"expected {what}")
        tok = self.current
        self.position += 1
        return tok.text

    def number(self) -> Fraction:
        if self.current.kind != "number":
            raise self.error("expected number")
        tok = self.current
        self.position += 1
        return Fraction(tok.text)


def _parse_rate(stream: _Stream) -> t.Rate:
    tok = stream.current
    passive = stream.accept("*")
    value = stream.number()
    if stream.accept("/"):
        denominator = stream.number()
        if denominator == 0:
            raise RateValueError("zero denominator", tok.line, tok.column)
        value = value / denominator
    if value <= 0:
        raise RateValueError(f"rate must be positive, got {value}", tok.line, tok.column)
    return t.Rate(value, passive=passive)


def _parse_name_list(stream: _Stream, closing: str) -> frozenset[str]:
    names: set[str] = set()
    if not stream.check(closing):
        while True:
            name = stream.ident()
            if name == t.TAU:
                raise stream.error("tau may not appear in a name set")
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
        if self.stream.current.kind != "end":
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
                new = self.stream.ident()
                if t.TAU in (old, new):
                    raise self.stream.error("relabeling must keep tau fixed")
                if targets.setdefault(old, new) != new:
                    raise ParseError(f"{old} is relabeled to both {targets[old]} and {new}",
                                     start.line, start.column)
                if not self.stream.accept(","):
                    break
        self.stream.expect("]")
        return tuple(targets.items())

    def prefixed(self) -> t.ProcessTerm:
        if self.stream.accept("<"):
            name = self.stream.ident("action name")
            self.stream.expect(",")
            rate = _parse_rate(self.stream)
            self.stream.expect(">")
            self.stream.expect(".")
            return t.Prefix(name, rate, self.prefixed())
        return self.atom()

    def atom(self) -> t.ProcessTerm:
        stream = self.stream
        if stream.accept("0"):
            return t.NIL
        if stream.accept("("):
            term = self.choice()
            stream.expect(")")
            return term
        if stream.check("rec"):
            stream.expect("rec")
            var = stream.ident("recursion variable")
            stream.expect(":")
            return t.Rec(var, self.choice())
        if stream.current.kind == "ident":
            name = stream.ident()
            if self.test_mode and name == "s":
                return t.SUCCESS
            return t.Var(name)
        raise stream.error("expected a term")


def parse_term(source: str) -> t.ProcessTerm:
    """Parse a process term.  Recursion binders are renamed to canonical
    depth-indexed names so alpha-equivalent terms parse identically."""
    term = _TermParser(_Stream(source), test_mode=False).parse()
    if t.uses_failure_name(term):
        raise ReservedNameError(f"name {t.FAILURE_NAME!r} is reserved for tests")
    return t.alpha_normalize(term)


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
            name = stream.ident("action name")
            if name == t.TAU:
                raise stream.error("diamond names must be visible")
            stream.expect(">")
            return mlogic.Diamond(name, head())
        if stream.accept("("):
            inner = or_formula()
            stream.expect(")")
            return inner
        raise stream.error("expected a formula")

    formula = or_formula()
    if stream.current.kind != "end":
        raise stream.error("trailing input")
    return formula
