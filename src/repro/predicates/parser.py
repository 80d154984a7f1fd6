"""The predicate rules of the Merlin grammar.

Grammar (precedence low to high)::

    pred    ::= andExpr ( 'or' andExpr )*
    andExpr ::= operand ( 'and' operand )*
    operand ::= '!'* atom
    atom    ::= '(' pred ')' | 'true' | 'false'
              | field '=' value | field '!=' value
    field   ::= QUALIFIED.NAME | 'payload'

``field '!=' value`` is syntactic sugar for ``!(field = value)`` — the paper
uses it in the delegation example of §4.1.  Values may be MAC addresses,
IPv4 addresses, decimal or hexadecimal numbers, or symbolic protocol names
(``tcp``, ``udp``, ``ip``); field-specific normalisation is applied by the
:class:`~repro.predicates.ast.FieldTest` constructor.

:func:`predicate` reads both binary levels in one loop and
:func:`_operand` counts the ``!`` in front of an atom, so a parenthesis is
the only thing that recurses (twice per level); nesting deeper than the
interpreter's stack is a :class:`~repro.errors.ParseError`
(:meth:`~repro.lexer.TokenCursor.read_all`).

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
    """Read one predicate at the cursor, leaving it on the token after.

    One loop reads both binary operators: ``and`` extends the current
    conjunction, ``or`` closes it as one disjunct and opens the next.
    """
    disjuncts = []
    conjuncts = [_operand(cursor)]
    while True:
        token = cursor.peek()
        if token is None or token.kind != "KEYWORD":
            break
        if token.text == "and":
            cursor.advance()
            conjuncts.append(_operand(cursor))
        elif token.text == "or":
            cursor.advance()
            disjuncts.append(pred_and(*conjuncts) if len(conjuncts) > 1 else conjuncts[0])
            conjuncts = [_operand(cursor)]
        else:
            break
    last = pred_and(*conjuncts) if len(conjuncts) > 1 else conjuncts[0]
    if not disjuncts:
        return last
    return pred_or(*disjuncts, last)


def _operand(cursor: TokenCursor) -> Predicate:
    """An operand of ``and``: any number of ``!`` in front of an atom."""
    token = cursor.advance()
    negations = 0
    while token.kind == "BANG":
        negations += 1
        token = cursor.advance()
    # ``payload`` is the catalogue's one unqualified field name, so it lexes
    # as an identifier rather than as a dotted FIELD token.
    if token.kind == "FIELD" or (token.kind == "IDENT" and token.text in FIELD_CATALOG):
        result = _field_test(cursor, token)
    elif token.kind == "LPAREN":
        result = predicate(cursor)
        cursor.expect("RPAREN")
    elif token.is_keyword("true"):
        result = TRUE
    elif token.is_keyword("false"):
        result = FALSE
    else:
        raise error_at(token, f"expected a predicate but found {token.text!r}")
    for _ in range(negations):
        result = pred_not(result)
    return result


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
    return TokenCursor(tokenize(source), "predicate").read_all(predicate)
