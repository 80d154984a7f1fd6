"""Predicate transforms.

Negation normal form (:func:`to_nnf`), which the satisfiability search of
:mod:`repro.predicates.sat` starts from; the packet-set intersection; and
the field tests every matching packet satisfies, which each code generator
turns into a device match.
"""

from __future__ import annotations

from typing import Iterator

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


def intersect(left: Predicate, right: Predicate) -> Predicate:
    """The conjunction of two predicates (the packet set intersection)."""
    return pred_and(left, right)


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
