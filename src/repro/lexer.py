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

A policy is tens of kilobytes, so the tokeniser is one ``finditer`` walk of
one master pattern, one match per token.  A match is a group holding the
separators in front of the token (whitespace and ``#`` / ``//`` comments,
which are not tokens), then the :data:`_TOKEN_SPEC` alternatives in order,
each closed by an empty group of its own, then a catch-all ``.|\\Z``.  The
last group to close (``lastindex``) names the kind: a token's own empty
group, or the separator group when only the catch-all matched, which is
either a character no token starts with or the end of the input.  Closing
an alternative with its group, rather than opening it with one, keeps the
alternative's first test at the front of its branch: the regular-expression
engine skips a branch that starts with a literal or a character set the
next character fails without entering it, and a group in front would stop
that.

The catch-all is what keeps a comment from being lexed.  After the longest
run of separators the next character is either the end of the input or one
the catch-all's ``.`` matches, so the pattern matches wherever the previous
match ended, with every separator consumed: nothing backtracks into a
comment, and the walk never resynchronises further on, which would land
inside a trailing comment (without ``\\Z``, ``# a b`` would lex ``a``,
``b``).  The separators are possessive as well, the fastest form of the
same longest run.

A token's line advances only when it starts past the next newline not yet
counted, by the newlines in between, which counts the one a rate's unit
may sit behind (``50\\nMB/s``) too.  A :class:`Token` is a named tuple,
built with ``tuple.__new__`` to skip its Python-level constructor.
"""

from __future__ import annotations

import re
from typing import Callable, List, NamedTuple, Optional, Sequence, TypeVar

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

#: Whitespace and comments, skipped in front of every token (the longest
#: run; possessive, so it is never re-tried shorter).
_SEPARATORS = r"[ \t\r\n]*+(?:(?:#|//)[^\n]*+[ \t\r\n]*+)*+"

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

#: The separators (group 1), then each ``_TOKEN_SPEC`` alternative closed by
#: an empty group of its own, then the catch-all: an unexpected character,
#: or the end of the input.
_MASTER_RE = re.compile(
    f"({_SEPARATORS})(?:"
    + "|".join(f"{pattern}()" for _, pattern in _TOKEN_SPEC)
    + r"|.|\Z)"
)
#: A match's ``lastindex`` -> its token kind (``None`` for the catch-all).
_KINDS = (None, None, *(name for name, _ in _TOKEN_SPEC))


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
    append = tokens.append
    new = tuple.__new__
    kinds = _KINDS
    line = 1
    line_start = 0  # index of the first character of ``line``
    end = len(source)
    next_newline = source.find("\n") % (end + 1)  # ``end`` if there is none
    for match in _MASTER_RE.finditer(source):
        kind = kinds[match.lastindex]
        start = match.end(1)
        if start > next_newline:
            line += source.count("\n", next_newline, start)
            line_start = source.rfind("\n", next_newline, start) + 1
            next_newline = source.find("\n", start) % (end + 1)
        if kind is None:
            if start < end:
                raise LexerError(
                    f"unexpected character {source[start]!r}",
                    line=line,
                    column=start - line_start + 1,
                )
            break
        text = source[start : match.end()]
        if kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        append(new(Token, (kind, text, line, start - line_start + 1)))
    return tokens


T = TypeVar("T")


class TokenCursor:
    """A read position in a token list: the token utilities of every grammar.

    ``what`` names the thing being read (``"policy source"``,
    ``"predicate"``, ``"path expression"``) for the errors that are about
    the input as a whole: running out of it, having some left over and
    nesting it too deeply.
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

    def read_all(self, rule: Callable[["TokenCursor"], T]) -> T:
        """Read the whole input with ``rule``, the way every entry point does.

        Input left over is refused.  So is nesting deeper than the
        interpreter's stack: the rules recurse on a parenthesis (and on a
        path's or a formula's ``!``), and the ``RecursionError`` becomes a :class:`ParseError` at the last token
        read, so ``except ParseError`` still catches every malformed source.
        """
        try:
            result = rule(self)
        except RecursionError:
            deepest = self._tokens[max(self._index - 1, 0)]
            raise error_at(deepest, f"{self._what} nested too deeply") from None
        trailing = self.peek()
        if trailing is not None:
            raise error_at(
                trailing, f"unexpected trailing input {trailing.text!r} in {self._what}"
            )
        return result

    def _end_position(self) -> tuple:
        """The (line, column) just past the last token, where input ran out."""
        if not self._tokens:
            return (1, 1)
        last = self._tokens[-1]
        newlines = last.text.count("\n")  # a rate's unit may sit on the next line
        if newlines:
            return (last.line + newlines, len(last.text) - last.text.rfind("\n"))
        return (last.line, last.column + len(last.text))
