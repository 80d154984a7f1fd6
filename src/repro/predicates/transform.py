"""Predicate normalisation and partitioning transforms.

These transforms back both the pre-processor (which must complete a policy
with a catch-all statement and check disjointness) and the negotiator
verification machinery (which compares tenant refinements against the parent
policy).  The central normal form is disjunctive normal form (DNF) over
*literals* — positive or negated field tests — because satisfiability of a
DNF conjunct reduces to simple per-field set reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..errors import PolicyError
from .ast import (
    FALSE,
    TRUE,
    And,
    FieldTest,
    Not,
    Or,
    PFalse,
    Predicate,
    PTrue,
    pred_and,
    pred_not,
    pred_or,
)
from .fields import domain_size

#: Safety valve against exponential DNF blow-up.  Real Merlin policies have
#: small predicates (a handful of conjuncts per statement), so this limit is
#: never hit in practice; it exists to fail loudly instead of hanging.
MAX_DNF_TERMS = 100_000


def to_nnf(predicate: Predicate) -> Predicate:
    """Push negations down to the atoms (negation normal form)."""
    if isinstance(predicate, (PTrue, PFalse, FieldTest)):
        return predicate
    if isinstance(predicate, And):
        return pred_and(to_nnf(predicate.left), to_nnf(predicate.right))
    if isinstance(predicate, Or):
        return pred_or(to_nnf(predicate.left), to_nnf(predicate.right))
    if isinstance(predicate, Not):
        inner = predicate.operand
        if isinstance(inner, PTrue):
            return FALSE
        if isinstance(inner, PFalse):
            return TRUE
        if isinstance(inner, FieldTest):
            return Not(inner)
        if isinstance(inner, Not):
            return to_nnf(inner.operand)
        if isinstance(inner, And):
            return pred_or(to_nnf(pred_not(inner.left)), to_nnf(pred_not(inner.right)))
        if isinstance(inner, Or):
            return pred_and(to_nnf(pred_not(inner.left)), to_nnf(pred_not(inner.right)))
    raise TypeError(f"unknown predicate node: {predicate!r}")


@dataclass(frozen=True)
class Literal:
    """A positive or negated atomic field test."""

    field: str
    value: Any
    positive: bool

    def negate(self) -> "Literal":
        return Literal(self.field, self.value, not self.positive)

    def to_predicate(self) -> Predicate:
        test = FieldTest(self.field, self.value)
        return test if self.positive else Not(test)


#: A DNF conjunct: a frozen set of literals, all of which must hold.
Conjunct = FrozenSet[Literal]


def to_dnf(predicate: Predicate) -> List[Conjunct]:
    """Convert a predicate to a list of DNF conjuncts.

    The empty list denotes ``false``; a list containing the empty conjunct
    denotes ``true``.  Obviously-contradictory conjuncts (the same field both
    required equal to and different from the same value, or required equal to
    two different values) are dropped eagerly.
    """
    normalized = to_nnf(predicate)
    terms = _dnf(normalized)
    return [term for term in terms if _conjunct_consistent(term)]


def _dnf(predicate: Predicate) -> List[Conjunct]:
    if isinstance(predicate, PTrue):
        return [frozenset()]
    if isinstance(predicate, PFalse):
        return []
    if isinstance(predicate, FieldTest):
        return [frozenset({Literal(predicate.field, predicate.value, True)})]
    if isinstance(predicate, Not):
        inner = predicate.operand
        if isinstance(inner, FieldTest):
            return [frozenset({Literal(inner.field, inner.value, False)})]
        raise PolicyError("predicate is not in negation normal form")
    if isinstance(predicate, Or):
        return _dnf(predicate.left) + _dnf(predicate.right)
    if isinstance(predicate, And):
        left_terms = _dnf(predicate.left)
        right_terms = _dnf(predicate.right)
        if len(left_terms) * len(right_terms) > MAX_DNF_TERMS:
            raise PolicyError(
                "predicate too large to convert to DNF "
                f"({len(left_terms)} x {len(right_terms)} terms)"
            )
        return [left | right for left in left_terms for right in right_terms]
    raise TypeError(f"unknown predicate node: {predicate!r}")


def _conjunct_consistent(conjunct: Conjunct) -> bool:
    """Quick per-field consistency check for a single conjunct."""
    required: Dict[str, Any] = {}
    excluded: Dict[str, Set[Any]] = {}
    for literal in conjunct:
        if literal.positive:
            if literal.field in required and required[literal.field] != literal.value:
                return False
            required[literal.field] = literal.value
        else:
            excluded.setdefault(literal.field, set()).add(literal.value)
    for name, value in required.items():
        if value in excluded.get(name, ()):
            return False
    for name, values in excluded.items():
        if name in required:
            continue
        size = domain_size(name)
        if size is not None and len(values) >= size:
            return False
    return True


def conjunct_to_predicate(conjunct: Conjunct) -> Predicate:
    """Rebuild a predicate AST from a DNF conjunct (``true`` if empty)."""
    literals = sorted(conjunct, key=lambda lit: (lit.field, str(lit.value), lit.positive))
    return pred_and(*[literal.to_predicate() for literal in literals])


def dnf_to_predicate(terms: List[Conjunct]) -> Predicate:
    """Rebuild a predicate AST from a DNF term list (``false`` if empty)."""
    return pred_or(*[conjunct_to_predicate(term) for term in terms])


def simplify(predicate: Predicate) -> Predicate:
    """Return an equivalent, syntactically smaller predicate.

    The simplification is DNF-based: contradictory conjuncts are removed and
    conjuncts subsumed by another conjunct (a superset of its literals) are
    dropped.  The result is not guaranteed to be minimal, only equivalent.
    """
    terms = to_dnf(predicate)
    kept: List[Conjunct] = []
    for term in terms:
        if any(other <= term for other in terms if other is not term and other < term):
            continue
        if term not in kept:
            kept.append(term)
    return dnf_to_predicate(kept)


def intersect(left: Predicate, right: Predicate) -> Predicate:
    """The conjunction of two predicates (the packet set intersection)."""
    return pred_and(left, right)


def subtract(left: Predicate, right: Predicate) -> Predicate:
    """The predicate matching packets in ``left`` but not in ``right``."""
    return pred_and(left, pred_not(right))


def positive_field_tests(predicate: Predicate) -> Iterator[FieldTest]:
    """The field tests reachable through ``And`` alone, left to right.

    These are the conjuncts every matching packet satisfies, which is what a
    single device match (an OpenFlow match, a ``tc`` filter, an ``iptables``
    rule) can express; ``Or`` / ``Not`` / ``PTrue`` subtrees contribute
    nothing.  Each code generator looks the yielded fields up in its own
    table.
    """
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, FieldTest):
            yield node


def atoms(predicate: Predicate) -> Set[Tuple[str, Any]]:
    """Return the set of (field, value) pairs appearing in the predicate."""
    found: Set[Tuple[str, Any]] = set()

    def walk(node: Predicate) -> None:
        if isinstance(node, FieldTest):
            found.add((node.field, node.value))
        for child in node.children():
            walk(child)

    walk(predicate)
    return found
