"""Abstract syntax for Merlin packet-classification predicates.

The grammar (Figure 1 of the paper) is::

    p ::= h.f = n | true | false | p and p | p or p | ! p

Predicate values are immutable and hashable; structural equality is used
throughout the compiler (e.g. when the pre-processor deduplicates statements
or the negotiator matches statements between parent and child policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from .fields import normalize_value


class Predicate:
    """Base class for all predicate AST nodes."""

    def children(self) -> Tuple["Predicate", ...]:
        """Return immediate sub-predicates (empty for atoms)."""
        return ()

    # Operator sugar so that tests and examples can write ``p & q``.
    def __and__(self, other: "Predicate") -> "Predicate":
        return pred_and(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return pred_or(self, other)

    def __invert__(self) -> "Predicate":
        return pred_not(self)


@dataclass(frozen=True)
class PTrue(Predicate):
    """The predicate matching every packet."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class PFalse(Predicate):
    """The predicate matching no packet."""

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class FieldTest(Predicate):
    """An atomic test ``h.f = n`` on a single header field."""

    field: str
    value: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", normalize_value(self.field, self.value))

    def __str__(self) -> str:
        return f"{self.field} = {self.value}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def children(self) -> Tuple[Predicate, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def children(self) -> Tuple[Predicate, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def children(self) -> Tuple[Predicate, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


#: Singletons for the constant predicates.
TRUE = PTrue()
FALSE = PFalse()


def _balanced(operands, node_type: type) -> Predicate:
    """Build a balanced binary tree of ``node_type`` over ``operands``.

    Balancing keeps the AST depth logarithmic in the number of operands, so
    the recursive walks (evaluation, printing, the dataclass equality and
    hash) never hit Python's recursion limit even for the
    thousands-of-operand conjunctions and unions a policy may hold.
    """
    if len(operands) == 1:
        return operands[0]
    middle = len(operands) // 2
    return node_type(
        _balanced(operands[:middle], node_type), _balanced(operands[middle:], node_type)
    )


def pred_and(*predicates: Predicate) -> Predicate:
    """Conjoin predicates, folding away constants.

    ``pred_and()`` is ``true``; ``false`` absorbs; ``true`` is the identity.
    The result is a balanced tree of ``And`` nodes.
    """
    operands = []
    for predicate in predicates:
        if isinstance(predicate, PFalse):
            return FALSE
        if isinstance(predicate, PTrue):
            continue
        operands.append(predicate)
    if not operands:
        return TRUE
    return _balanced(operands, And)


def pred_or(*predicates: Predicate) -> Predicate:
    """Disjoin predicates, folding away constants (balanced tree of ``Or`` nodes)."""
    operands = []
    for predicate in predicates:
        if isinstance(predicate, PTrue):
            return TRUE
        if isinstance(predicate, PFalse):
            continue
        operands.append(predicate)
    if not operands:
        return FALSE
    return _balanced(operands, Or)


def pred_not(predicate: Predicate) -> Predicate:
    """Negate a predicate, collapsing double negation and constants."""
    if isinstance(predicate, PTrue):
        return FALSE
    if isinstance(predicate, PFalse):
        return TRUE
    if isinstance(predicate, Not):
        return predicate.operand
    return Not(predicate)
