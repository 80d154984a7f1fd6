"""The path-expression rules of the Merlin grammar.

Surface syntax examples from the paper::

    .* dpi .*
    .* dpi .* nat .*
    h1 .* dpi .* nat .* h2
    .* (h1|h2|m1) .*
    .* log .*

Grammar (precedence low to high)::

    expr    ::= term ( '|' term )*
    term    ::= factor+                 (concatenation by juxtaposition)
    factor  ::= '!' factor | base ( '*' )*
    base    ::= '(' expr ')' | '.' | SYMBOL

Symbols are location or function identifiers (letters, digits, underscores
and dashes; dots inside names are not allowed — ``.`` is always the wildcard).
The language's keywords are not symbols: a path expression must be writable
inside a policy, where ``at``, ``and`` and ``in`` end it.

The rules are functions over a :class:`~repro.lexer.TokenCursor`:
:func:`path_expression` reads one expression wherever the cursor stands, which
is how the policy parser reads a statement's path, and
:func:`parse_path_expression` is the same rule applied to a whole source
string.
"""

from __future__ import annotations

from ..errors import ParseError
from ..lexer import TokenCursor, error_at, tokenize
from .ast import DOT, Regex, Symbol, concat, star, union, Negate


def path_expression(cursor: TokenCursor) -> Regex:
    """Read one path expression at the cursor, leaving it on the token after."""
    parts = [_term(cursor)]
    while cursor.match("PIPE"):
        parts.append(_term(cursor))
    return union(*parts) if len(parts) > 1 else parts[0]


def _term(cursor: TokenCursor) -> Regex:
    factors = [_factor(cursor)]
    while _starts_factor(cursor):
        factors.append(_factor(cursor))
    return concat(*factors) if len(factors) > 1 else factors[0]


def _starts_factor(cursor: TokenCursor) -> bool:
    token = cursor.peek()
    if token is None:
        return False
    if token.kind == "IDENT":
        # Inside a policy statements need no separator, so an identifier
        # followed by ':' is the next statement's name, not a location.
        return not cursor.check("COLON", offset=1)
    return token.kind in ("DOT", "LPAREN", "BANG")


def _factor(cursor: TokenCursor) -> Regex:
    if cursor.match("BANG"):
        return Negate(_factor(cursor))
    base = _base(cursor)
    while cursor.match("STAR"):
        base = star(base)
    return base


def _base(cursor: TokenCursor) -> Regex:
    token = cursor.advance()
    if token.kind == "IDENT":
        return Symbol(token.text)
    if token.kind == "DOT":
        return DOT
    if token.kind == "LPAREN":
        inner = path_expression(cursor)
        cursor.expect("RPAREN")
        return inner
    raise error_at(token, f"expected a path element but found {token.text!r}")


def parse_path_expression(source: str) -> Regex:
    """Parse path-expression concrete syntax into a :class:`Regex` AST.

    The paper's running example contains the typo ``dpi *. nat`` (a transposed
    ``.*``); the parser accepts the conventional ``.*`` form only, so the typo
    is normalised by the caller if needed.
    """
    cursor = TokenCursor(tokenize(source), "path expression")
    if cursor.at_end():
        raise ParseError("empty path expression")
    return cursor.read_all(path_expression)
