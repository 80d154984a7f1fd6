"""The predicate rules of the Merlin grammar.

Grammar (precedence low to high)::

    pred   ::= orExpr
    orExpr ::= andExpr ( 'or' andExpr )*
    andExpr::= unary ( 'and' unary )*
    unary  ::= '!' unary | atom
    atom   ::= '(' pred ')' | 'true' | 'false'
             | field '=' value | field '!=' value
    field  ::= QUALIFIED.NAME | 'payload'

``field '!=' value`` is syntactic sugar for ``!(field = value)`` — the paper
uses it in the delegation example of §4.1.  Values may be MAC addresses,
IPv4 addresses, decimal or hexadecimal numbers, or symbolic protocol names
(``tcp``, ``udp``, ``ip``); field-specific normalisation is applied by the
:class:`~repro.predicates.ast.FieldTest` constructor.

The rules are functions over a :class:`~repro.lexer.TokenCursor`:
:func:`predicate` reads one predicate wherever the cursor stands, which is how
the policy parser reads a statement's predicate, and :func:`parse_predicate`
is the same rule applied to a whole source string.  There is no other
definition of "a predicate", so the negotiator compares tenant and
administrator text under one reading.
"""

from __future__ import annotations

from ..lexer import VALUE_KINDS, Token, TokenCursor, error_at, tokenize
from .ast import FALSE, TRUE, FieldTest, Predicate, pred_and, pred_not, pred_or
from .fields import FIELD_CATALOG


def predicate(cursor: TokenCursor) -> Predicate:
    """Read one predicate at the cursor, leaving it on the token after."""
    operands = [_and_expr(cursor)]
    while cursor.match("KEYWORD", "or"):
        operands.append(_and_expr(cursor))
    return pred_or(*operands) if len(operands) > 1 else operands[0]


def _and_expr(cursor: TokenCursor) -> Predicate:
    operands = [_unary(cursor)]
    while cursor.match("KEYWORD", "and"):
        operands.append(_unary(cursor))
    return pred_and(*operands) if len(operands) > 1 else operands[0]


def _unary(cursor: TokenCursor) -> Predicate:
    if cursor.match("BANG"):
        return pred_not(_unary(cursor))
    return _atom(cursor)


def _atom(cursor: TokenCursor) -> Predicate:
    token = cursor.advance()
    if token.kind == "LPAREN":
        inner = predicate(cursor)
        cursor.expect("RPAREN")
        return inner
    if token.is_keyword("true"):
        return TRUE
    if token.is_keyword("false"):
        return FALSE
    # ``payload`` is the catalogue's one unqualified field name, so it lexes
    # as an identifier rather than as a dotted FIELD token.
    if token.kind == "FIELD" or (token.kind == "IDENT" and token.text in FIELD_CATALOG):
        return _field_test(cursor, token)
    raise error_at(token, f"expected a predicate but found {token.text!r}")


def _field_test(cursor: TokenCursor, field_token: Token) -> Predicate:
    operator = cursor.advance()
    if operator.kind not in ("EQUALS", "NEQ"):
        raise error_at(operator, f"expected '=' or '!=' after {field_token.text!r}")
    value = cursor.advance()
    if value.kind not in VALUE_KINDS:
        raise error_at(value, f"expected a value after {field_token.text!r}")
    test = FieldTest(field_token.text, value.text)
    return pred_not(test) if operator.kind == "NEQ" else test


def parse_predicate(source: str) -> Predicate:
    """Parse predicate concrete syntax into a :class:`Predicate` AST."""
    cursor = TokenCursor(tokenize(source), "predicate")
    result = predicate(cursor)
    cursor.expect_end()
    return result
