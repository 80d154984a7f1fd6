"""Tokeniser and token cursor for the Merlin surface syntax.

Merlin is one language: a tenant's refinement is verified against the
administrator's policy, so a predicate or a path expression must read the
same whether it stands alone (``parse_predicate``, ``parse_path_expression``)
or inside a policy (``parse_policy``).  This module is therefore the only
tokeniser, and :class:`TokenCursor` the only set of token utilities, behind
all three grammars: :mod:`repro.predicates.parser`, :mod:`repro.regex.parser`
and :mod:`repro.core.parser` are rule functions over a cursor.  It is a leaf —
it imports nothing but :mod:`repro.errors` — because ``predicates/`` and
``regex/`` sit below ``core/`` and must not import upward.

Rates (``50MB/s``, ``1Gbps``), MAC addresses, IPv4 addresses, and qualified
field names (``tcp.dst``) are recognised as single tokens so that the parser
never has to re-assemble them, and so that the lone ``.`` of path expressions
is never confused with the dots inside addresses and field names.

A policy is tens of kilobytes, so the tokeniser does one regular-expression
match per token.  Whitespace and ``#`` / ``//`` comments are not tokens: the
master pattern skips them in an atomic prefix in front of the token
alternatives (atomic so that a comment can never give back characters for a
token to match).  A token's line advances by the newlines between the
previous token's start and its own, which counts the one a rate's unit may
sit behind (``50\\nMB/s``) too.  A :class:`Token` is a named tuple.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Sequence

from .errors import LexerError, ParseError

#: Words with special meaning; they are lexed as ``KEYWORD`` tokens.  They are
#: reserved everywhere — a standalone path expression may not name a location
#: ``in`` or ``at`` either — because every path must be writable inside a
#: policy, where these words delimit statements.
KEYWORDS = frozenset(
    {
        "and",
        "or",
        "max",
        "min",
        "true",
        "false",
        "foreach",
        "in",
        "cross",
        "at",
    }
)

#: Token kinds that can stand as the value of a field test or a set element.
VALUE_KINDS = frozenset({"MAC", "IP", "HEX", "NUMBER", "IDENT"})

#: Whitespace and comments, skipped in front of every token.
_SEPARATORS = r"(?>(?:[ \t\r\n]+|(?:#|//)[^\n]*)*)"

_TOKEN_SPEC = [
    ("RATE", r"\d+(?:\.\d+)?\s*(?:[KMGT]?B/s|[kmgt]?bps|[KMGT]bps|[KMGT]Bps)"),
    ("MAC", r"[0-9a-fA-F]{1,2}(?::[0-9a-fA-F]{1,2}){5}"),
    ("IP", r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"),
    ("FIELD", r"[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*"),
    ("HEX", r"0x[0-9a-fA-F]+"),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("ARROW", r"->"),
    ("ASSIGN", r":="),
    ("NEQ", r"!="),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_\-]*"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("COLON", r":"),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
    ("DOT", r"\."),
    ("BANG", r"!"),
    ("PIPE", r"\|"),
    ("EQUALS", r"="),
]

#: Separators, then one token; ``lastgroup`` names its kind.
_MASTER_RE = re.compile(
    _SEPARATORS
    + "(?:"
    + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
    + ")"
)
_SEPARATORS_RE = re.compile(_SEPARATORS)


class Token(NamedTuple):
    """A single lexical token with source position for error reporting."""

    kind: str
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.text == word

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def error_at(token: Token, message: str) -> ParseError:
    """A :class:`ParseError` positioned at ``token``."""
    return ParseError(message, line=token.line, column=token.column)


def tokenize(source: str) -> List[Token]:
    """Tokenise Merlin source, skipping whitespace and comments."""
    tokens: List[Token] = []
    line = 1
    line_start = 0  # index of the first character of ``line``
    previous = 0  # start of the previous token
    position = 0
    match = _MASTER_RE.match(source)
    while match is not None:
        kind = match.lastgroup
        start = match.start(kind)
        newlines = source.count("\n", previous, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", previous, start) + 1
        text = match.group(kind)
        if kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        tokens.append(Token(kind, text, line, start - line_start + 1))
        previous = start
        position = match.end()
        match = _MASTER_RE.match(source, position)
    position = _SEPARATORS_RE.match(source, position).end()
    if position < len(source):
        raise LexerError(
            f"unexpected character {source[position]!r}",
            line=source.count("\n", 0, position) + 1,
            column=position - source.rfind("\n", 0, position),
        )
    return tokens


class TokenCursor:
    """A read position in a token list: the token utilities of every grammar.

    ``what`` names the thing being read (``"policy source"``,
    ``"predicate"``, ``"path expression"``) for the two errors that are about
    the input as a whole: running out of it and having some left over.
    """

    def __init__(self, tokens: Sequence[Token], what: str) -> None:
        self._tokens = tokens
        self._index = 0
        self._what = what

    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    def advance(self) -> Token:
        index = self._index
        try:
            token = self._tokens[index]
        except IndexError:
            raise ParseError(f"unexpected end of {self._what}", *self._end_position()) from None
        self._index = index + 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.advance()
        if token.kind != kind or (text is not None and token.text != text):
            expected = text if text is not None else kind
            raise error_at(token, f"expected {expected!r} but found {token.text!r}")
        return token

    def check(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        try:
            token = self._tokens[self._index + offset]
        except IndexError:
            return False
        return token.kind == kind and (text is None or token.text == text)

    def match(self, kind: str, text: Optional[str] = None) -> bool:
        index = self._index
        try:
            token = self._tokens[index]
        except IndexError:
            return False
        if token.kind == kind and (text is None or token.text == text):
            self._index = index + 1
            return True
        return False

    def expect_end(self) -> None:
        """Refuse input left over after a complete parse."""
        trailing = self.peek()
        if trailing is not None:
            raise error_at(
                trailing, f"unexpected trailing input {trailing.text!r} in {self._what}"
            )

    def _end_position(self) -> tuple:
        """The (line, column) just past the last token, where input ran out."""
        if not self._tokens:
            return (1, 1)
        last = self._tokens[-1]
        return (last.line, last.column + len(last.text))
