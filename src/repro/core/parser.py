"""Recursive-descent parser for the Merlin policy language.

The parser accepts both the core form of Figure 1::

    [ x : (eth.src = 00:00:00:00:00:01 and tcp.dst = 20) -> .* dpi .* ;
      y : (...) -> .* ],
    max(x + y, 50MB/s) and min(z, 100MB/s)

and the syntactic-sugar form of §2.1::

    srcs := {00:00:00:00:00:01}
    dsts := {00:00:00:00:00:02}
    foreach (s,d) in cross(srcs,dsts):
      tcp.dst = 80 -> (.* nat .* dpi .*) at max(100MB/s)

Parsing yields a :class:`ParsedProgram`; :mod:`repro.core.sugar` expands the
sugar into the core :class:`~repro.core.ast.Policy` form.  Use
:func:`parse_policy` for the one-call path from source text to a policy.

Only the policy's own rules live here — program, set bindings, ``foreach``,
statements, rate annotations and bandwidth formulas.  Where a statement's
predicate and path stand, the parser calls
:func:`repro.predicates.parser.predicate` and
:func:`repro.regex.parser.path_expression` on the same
:class:`~repro.lexer.TokenCursor`, so a predicate or path means inside a
policy exactly what ``parse_predicate`` / ``parse_path_expression`` say it
means alone — the property delegation verification rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..lexer import VALUE_KINDS, TokenCursor, error_at, tokenize
from ..predicates.ast import Predicate
from ..predicates.parser import predicate
from ..regex.ast import Regex
from ..regex.parser import path_expression
from ..units import Bandwidth
from .ast import (
    BandwidthTerm,
    FAnd,
    FMax,
    FMin,
    FNot,
    FOr,
    Formula,
    FTrue,
    Policy,
)

# ---------------------------------------------------------------------------
# Intermediate ("parsed but not yet desugared") representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetLiteral:
    """A literal set of values, e.g. ``{00:00:00:00:00:01, 00:00:00:00:00:02}``."""

    values: Tuple[Tuple[str, str], ...]  # (token kind, text)


@dataclass(frozen=True)
class SetRef:
    """A reference to a previously bound set name."""

    name: str


@dataclass(frozen=True)
class CrossExpr:
    """The ``cross(A, B)`` Cartesian-product operator."""

    left: "SetExpression"
    right: "SetExpression"


SetExpression = Union[SetLiteral, SetRef, CrossExpr]


@dataclass(frozen=True)
class SetBinding:
    """A ``name := setexpr`` binding."""

    name: str
    expression: SetExpression


@dataclass(frozen=True)
class RawStatement:
    """A statement before desugaring.

    ``identifier`` is ``None`` for sugar statements (an identifier is
    generated during expansion); ``rate_specs`` holds any ``at max(...)`` /
    ``at min(...)`` annotations.
    """

    identifier: Optional[str]
    predicate: Predicate
    path: Regex
    rate_specs: Tuple[Tuple[str, Bandwidth], ...] = ()


@dataclass(frozen=True)
class ForeachBlock:
    """A ``foreach (s, d) in <set>: <statement>`` block."""

    source_var: str
    destination_var: str
    pairs: SetExpression
    template: RawStatement


ProgramItem = Union[RawStatement, ForeachBlock]


@dataclass(frozen=True)
class ParsedProgram:
    """The surface-level parse of a policy source file."""

    bindings: Tuple[SetBinding, ...]
    items: Tuple[ProgramItem, ...]
    formula: Formula


# ---------------------------------------------------------------------------
# The policy's own rules
# ---------------------------------------------------------------------------


def _program(cursor: TokenCursor) -> ParsedProgram:
    bindings: List[SetBinding] = []
    while cursor.check("IDENT") and cursor.check("ASSIGN", offset=1):
        bindings.append(_binding(cursor))

    items: List[ProgramItem] = []
    bracketed = cursor.match("LBRACKET")
    while not cursor.at_end():
        if bracketed and cursor.check("RBRACKET"):
            break
        if not bracketed and cursor.check("COMMA"):
            break
        items.append(_item(cursor))
        cursor.match("SEMI")
    if bracketed:
        cursor.expect("RBRACKET")

    formula: Formula = FTrue()
    if cursor.match("COMMA"):
        formula = _formula(cursor)
    return ParsedProgram(bindings=tuple(bindings), items=tuple(items), formula=formula)


# -- bindings and sets ---------------------------------------------------------


def _binding(cursor: TokenCursor) -> SetBinding:
    name = cursor.expect("IDENT").text
    cursor.expect("ASSIGN")
    return SetBinding(name=name, expression=_set_expression(cursor))


def _set_expression(cursor: TokenCursor) -> SetExpression:
    if cursor.match("LBRACE"):
        values: List[Tuple[str, str]] = []
        if not cursor.check("RBRACE"):
            values.append(_set_value(cursor))
            while cursor.match("COMMA"):
                values.append(_set_value(cursor))
        cursor.expect("RBRACE")
        return SetLiteral(values=tuple(values))
    if cursor.match("KEYWORD", "cross"):
        cursor.expect("LPAREN")
        left = _set_expression(cursor)
        cursor.expect("COMMA")
        right = _set_expression(cursor)
        cursor.expect("RPAREN")
        return CrossExpr(left=left, right=right)
    return SetRef(name=cursor.expect("IDENT").text)


def _set_value(cursor: TokenCursor) -> Tuple[str, str]:
    token = cursor.advance()
    if token.kind not in VALUE_KINDS:
        raise error_at(token, f"expected a set element but found {token.text!r}")
    return (token.kind, token.text)


# -- items ---------------------------------------------------------------------


def _item(cursor: TokenCursor) -> ProgramItem:
    if cursor.check("KEYWORD", "foreach"):
        return _foreach(cursor)
    return _statement(cursor)


def _foreach(cursor: TokenCursor) -> ForeachBlock:
    cursor.expect("KEYWORD", "foreach")
    cursor.expect("LPAREN")
    source_var = cursor.expect("IDENT").text
    cursor.expect("COMMA")
    destination_var = cursor.expect("IDENT").text
    cursor.expect("RPAREN")
    cursor.expect("KEYWORD", "in")
    pairs = _set_expression(cursor)
    cursor.expect("COLON")
    template = _statement(cursor, allow_identifier=False)
    return ForeachBlock(
        source_var=source_var,
        destination_var=destination_var,
        pairs=pairs,
        template=template,
    )


def _statement(cursor: TokenCursor, allow_identifier: bool = True) -> RawStatement:
    identifier: Optional[str] = None
    if allow_identifier and cursor.check("IDENT") and cursor.check("COLON", offset=1):
        identifier = cursor.advance().text
        cursor.advance()  # the colon
    statement_predicate = predicate(cursor)
    cursor.expect("ARROW")
    path = path_expression(cursor)
    rate_specs: List[Tuple[str, Bandwidth]] = []
    if cursor.match("KEYWORD", "at"):
        rate_specs.append(_rate_spec(cursor))
        while cursor.match("KEYWORD", "and"):
            rate_specs.append(_rate_spec(cursor))
    return RawStatement(
        identifier=identifier,
        predicate=statement_predicate,
        path=path,
        rate_specs=tuple(rate_specs),
    )


def _rate_spec(cursor: TokenCursor) -> Tuple[str, Bandwidth]:
    token = cursor.advance()
    if token.kind != "KEYWORD" or token.text not in ("max", "min"):
        raise error_at(token, f"expected 'max' or 'min' after 'at' but found {token.text!r}")
    cursor.expect("LPAREN")
    rate = _rate(cursor)
    cursor.expect("RPAREN")
    return (token.text, rate)


def _rate(cursor: TokenCursor) -> Bandwidth:
    token = cursor.advance()
    if token.kind in ("RATE", "NUMBER"):
        return Bandwidth.parse(token.text.replace(" ", ""))
    raise error_at(token, f"expected a rate literal but found {token.text!r}")


# -- formulas ------------------------------------------------------------------


def _formula(cursor: TokenCursor) -> Formula:
    result = _formula_and(cursor)
    while cursor.match("KEYWORD", "or"):
        result = FOr(result, _formula_and(cursor))
    return result


def _formula_and(cursor: TokenCursor) -> Formula:
    result = _formula_unary(cursor)
    while cursor.match("KEYWORD", "and"):
        result = FAnd(result, _formula_unary(cursor))
    return result


def _formula_unary(cursor: TokenCursor) -> Formula:
    if cursor.match("BANG"):
        return FNot(_formula_unary(cursor))
    return _formula_atom(cursor)


def _formula_atom(cursor: TokenCursor) -> Formula:
    token = cursor.advance()
    if token.kind == "LPAREN":
        inner = _formula(cursor)
        cursor.expect("RPAREN")
        return inner
    if token.is_keyword("true"):
        return FTrue()
    if token.kind == "KEYWORD" and token.text in ("max", "min"):
        cursor.expect("LPAREN")
        term = _bandwidth_term(cursor)
        cursor.expect("COMMA")
        rate = _rate(cursor)
        cursor.expect("RPAREN")
        return FMax(term, rate) if token.text == "max" else FMin(term, rate)
    raise error_at(token, f"expected a formula but found {token.text!r}")


def _bandwidth_term(cursor: TokenCursor) -> BandwidthTerm:
    identifiers: List[str] = []
    constant = Bandwidth(0.0)
    while True:
        token = cursor.advance()
        if token.kind == "IDENT":
            identifiers.append(token.text)
        elif token.kind in ("RATE", "NUMBER"):
            constant = constant + Bandwidth.parse(token.text.replace(" ", ""))
        else:
            raise error_at(
                token, f"expected an identifier or rate in bandwidth term, found {token.text!r}"
            )
        if not cursor.match("PLUS"):
            break
    return BandwidthTerm(identifiers=tuple(identifiers), constant=constant)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_program(source: str) -> ParsedProgram:
    """Parse policy source into the surface-level :class:`ParsedProgram`."""
    return TokenCursor(tokenize(source), "policy source").read_all(_program)


def parse_policy(source: str, topology=None) -> Policy:
    """Parse and desugar policy source into a core :class:`Policy`.

    A ``topology`` is only needed when the sugar references hosts by name
    (rather than by MAC or IP address), so that names can be resolved to
    addresses during expansion.
    """
    from .sugar import expand_program

    return expand_program(parse_program(source), topology=topology)
