"""Expansion of Merlin's syntactic sugar into the core policy form.

§2.1 introduces set literals, the ``cross`` product operator, ``foreach``
iteration, and per-statement ``at max(...)`` / ``at min(...)`` rate
annotations as sugar over the core grammar of Figure 1.  This module expands
a :class:`~repro.core.parser.ParsedProgram` into a plain
:class:`~repro.core.ast.Policy`:

* set bindings are evaluated to value lists,
* ``foreach (s, d) in cross(A, B): p -> a at max(n)`` expands into one
  statement per ``(s, d)`` pair, with ``eth.src = s and eth.dst = d`` (or the
  IP equivalents) conjoined to the template predicate,
* rate annotations become ``max``/``min`` conjuncts of the policy formula,
* statements without identifiers receive generated ones (``s1``, ``s2``, …,
  skipping every identifier the program writes explicitly).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import PolicyError
from ..predicates.ast import FieldTest, Predicate, pred_and
from .ast import BandwidthTerm, FMax, FMin, Formula, Policy, Statement, formula_and
from .parser import (
    CrossExpr,
    ForeachBlock,
    ParsedProgram,
    RawStatement,
    SetBinding,
    SetExpression,
    SetLiteral,
    SetRef,
)

#: A set element: the token kind it was written as, plus its text.
SetValue = Tuple[str, str]


def expand_program(program: ParsedProgram, topology=None) -> Policy:
    """Expand a parsed program into a core :class:`Policy`."""
    environment = _evaluate_bindings(program.bindings)
    statements: List[Statement] = []
    extra_clauses: List[Formula] = []
    explicit = {
        item.identifier
        for item in program.items
        if isinstance(item, RawStatement) and item.identifier
    }
    fresh = (
        identifier
        for identifier in (f"s{number}" for number in itertools.count(1))
        if identifier not in explicit
    )

    for item in program.items:
        if isinstance(item, RawStatement):
            statement, clauses = _expand_statement(item, fresh)
            statements.append(statement)
            extra_clauses.extend(clauses)
        elif isinstance(item, ForeachBlock):
            expanded = _expand_foreach(item, environment, fresh, topology)
            for statement, clauses in expanded:
                statements.append(statement)
                extra_clauses.extend(clauses)
        else:  # pragma: no cover - parser cannot produce other item types
            raise PolicyError(f"unknown program item: {item!r}")

    formula = formula_and(program.formula, *extra_clauses)
    return Policy(statements=tuple(statements), formula=formula)


# ---------------------------------------------------------------------------
# Set environment
# ---------------------------------------------------------------------------


def _evaluate_bindings(bindings: Sequence[SetBinding]) -> Dict[str, List[SetValue]]:
    environment: Dict[str, List[SetValue]] = {}
    for binding in bindings:
        environment[binding.name] = _evaluate_set(binding.expression, environment)
    return environment


def _evaluate_set(
    expression: SetExpression, environment: Dict[str, List[SetValue]]
) -> List[SetValue]:
    if isinstance(expression, SetLiteral):
        return list(expression.values)
    if isinstance(expression, SetRef):
        if expression.name not in environment:
            raise PolicyError(f"undefined set {expression.name!r}")
        return list(environment[expression.name])
    if isinstance(expression, CrossExpr):
        raise PolicyError("cross(...) may only appear in a foreach clause")
    raise PolicyError(f"unknown set expression: {expression!r}")


def _evaluate_pairs(
    expression: SetExpression, environment: Dict[str, List[SetValue]], topology
) -> List[Tuple[SetValue, SetValue]]:
    """Evaluate the set expression of a ``foreach`` to a list of (src, dst) pairs.

    A single set pairs each element with every other one.  Elements are
    compared by what they denote (the normalised address, or a host name's
    MAC), so two spellings of one endpoint are one element, kept where it
    first appears, and never paired with itself.
    """
    if isinstance(expression, CrossExpr):
        left = _evaluate_set(expression.left, environment)
        right = _evaluate_set(expression.right, environment)
        return [(source, destination) for source in left for destination in right]
    distinct: Dict[Predicate, SetValue] = {}
    for value in _evaluate_set(expression, environment):
        distinct.setdefault(_endpoint_test(value, is_source=True, topology=topology), value)
    values = list(distinct.values())
    return [
        (source, destination)
        for source in values
        for destination in values
        if source != destination
    ]


# ---------------------------------------------------------------------------
# Statement expansion
# ---------------------------------------------------------------------------


def _expand_statement(
    raw: RawStatement, fresh: Iterator[str]
) -> Tuple[Statement, List[Formula]]:
    identifier = raw.identifier or next(fresh)
    statement = Statement(identifier=identifier, predicate=raw.predicate, path=raw.path)
    clauses = _rate_clauses(identifier, raw.rate_specs)
    return statement, clauses


def _expand_foreach(
    block: ForeachBlock,
    environment: Dict[str, List[SetValue]],
    fresh: Iterator[str],
    topology,
) -> List[Tuple[Statement, List[Formula]]]:
    pairs = _evaluate_pairs(block.pairs, environment, topology)
    results: List[Tuple[Statement, List[Formula]]] = []
    for source, destination in pairs:
        identifier = next(fresh)
        endpoint_predicate = pred_and(
            _endpoint_test(source, is_source=True, topology=topology),
            _endpoint_test(destination, is_source=False, topology=topology),
        )
        predicate = pred_and(endpoint_predicate, block.template.predicate)
        statement = Statement(
            identifier=identifier, predicate=predicate, path=block.template.path
        )
        clauses = _rate_clauses(identifier, block.template.rate_specs)
        results.append((statement, clauses))
    return results


def _rate_clauses(identifier: str, rate_specs) -> List[Formula]:
    clauses: List[Formula] = []
    term = BandwidthTerm(identifiers=(identifier,))
    for kind, rate in rate_specs:
        if kind == "max":
            clauses.append(FMax(term, rate))
        else:
            clauses.append(FMin(term, rate))
    return clauses


def _endpoint_test(value: SetValue, is_source: bool, topology) -> Predicate:
    """Build the implicit source/destination test for a ``foreach`` pair element.

    MAC addresses become ``eth.src``/``eth.dst`` tests, IPv4 addresses become
    ``ip.src``/``ip.dst`` tests, and bare identifiers are treated as host
    names resolved through the topology's MAC assignment.
    """
    kind, text = value
    if kind == "MAC":
        field = "eth.src" if is_source else "eth.dst"
        return FieldTest(field, text)
    if kind == "IP":
        field = "ip.src" if is_source else "ip.dst"
        return FieldTest(field, text)
    if kind in ("IDENT", "NUMBER", "HEX"):
        if topology is None:
            raise PolicyError(
                f"cannot resolve host name {text!r} in foreach without a topology"
            )
        if not topology.has_node(text):
            raise PolicyError(f"unknown host {text!r} in foreach set")
        node = topology.node(text)
        if node.mac is None:
            raise PolicyError(f"host {text!r} has no MAC address to match on")
        field = "eth.src" if is_source else "eth.dst"
        return FieldTest(field, node.mac)
    raise PolicyError(f"unsupported set element {text!r}")
