"""The tokeniser as it was before it skipped separators inside the match.

One regular-expression match per lexeme, separators included: whitespace
and comments are matched as ``WS`` / ``COMMENT`` lexemes and dropped, and
the line count advances by the newlines inside every lexeme, so a ``RATE``
whose ``\\s*`` holds a newline counts it too.  ``tests/core/test_language.py``
holds :func:`repro.lexer.tokenize` to this loop, token for token and error
for error.  The token alternatives are the lexer's own: what is compared is
the matching, not the patterns.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError
from repro.lexer import _TOKEN_SPEC, KEYWORDS, Token

_LEXEME_RE = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in [
            ("WS", r"[ \t\r\n]+"),
            ("COMMENT", r"(?:#|//)[^\n]*"),
            *_TOKEN_SPEC,
        ]
    )
)


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _LEXEME_RE.match(source, position)
        if match is None:
            raise LexerError(
                f"unexpected character {source[position]!r}",
                line=line,
                column=position - line_start + 1,
            )
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("WS", "COMMENT"):
            if kind == "IDENT" and text in KEYWORDS:
                kind = "KEYWORD"
            tokens.append(Token(kind, text, line, position - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = position + text.rfind("\n") + 1
        position = match.end()
    return tokens
