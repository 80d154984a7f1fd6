"""Abstract syntax for Merlin policies.

A policy (Figure 1) is a list of statements plus a Presburger-arithmetic
formula over the statements' bandwidth identifiers::

    pol ::= [s1; ...; sn], phi
    s   ::= id : p -> a
    phi ::= max(e, n) | min(e, n) | phi and phi | phi or phi | ! phi
    e   ::= n | id | e + e

Statements pair a packet-classification predicate with a path regular
expression; the formula constrains the bandwidth used by the identified
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from ..errors import PolicyError
from ..predicates.ast import Predicate
from ..regex.ast import Regex
from ..units import Bandwidth


# ---------------------------------------------------------------------------
# Bandwidth terms and formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthTerm:
    """A bandwidth expression ``e``: a sum of statement identifiers and a constant.

    ``max(x + y, 50MB/s)`` has the term ``BandwidthTerm(("x", "y"))``; the
    optional constant supports the grammar's numeric leaves.
    """

    identifiers: Tuple[str, ...]
    constant: Bandwidth = Bandwidth(0.0)

    def __post_init__(self) -> None:
        if not self.identifiers and self.constant.bps_value == 0.0:
            raise PolicyError("a bandwidth term must mention at least one identifier")

    def __str__(self) -> str:
        parts = list(self.identifiers)
        if self.constant.bps_value:
            parts.append(self.constant.policy_literal())
        return " + ".join(parts)


class Formula:
    """Base class for bandwidth-constraint formulas."""

    def identifiers(self) -> FrozenSet[str]:
        """All statement identifiers mentioned in the formula.

        Leaves answer for themselves; a compound formula is walked with an
        explicit stack, so a chain of thousands of clauses costs no
        interpreter recursion.
        """
        names: Set[str] = set()
        stack: List[Formula] = [self]
        while stack:
            formula = stack.pop()
            children = formula.children()
            if children:
                stack.extend(children)
            else:
                names.update(formula.identifiers())
        return frozenset(names)

    def children(self) -> Tuple["Formula", ...]:
        return ()


@dataclass(frozen=True)
class FTrue(Formula):
    """The trivial formula (no bandwidth constraints)."""

    def identifiers(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FMax(Formula):
    """``max(e, n)`` — the traffic identified by ``e`` is capped at rate ``n``."""

    term: BandwidthTerm
    rate: Bandwidth

    def identifiers(self) -> FrozenSet[str]:
        return frozenset(self.term.identifiers)

    def __str__(self) -> str:
        return f"max({self.term}, {self.rate.policy_literal()})"


@dataclass(frozen=True)
class FMin(Formula):
    """``min(e, n)`` — the traffic identified by ``e`` is guaranteed rate ``n``."""

    term: BandwidthTerm
    rate: Bandwidth

    def identifiers(self) -> FrozenSet[str]:
        return frozenset(self.term.identifiers)

    def __str__(self) -> str:
        return f"min({self.term}, {self.rate.policy_literal()})"


class _Compound(Formula):
    """A formula with operands, compared and hashed by its pre-order node
    sequence (:func:`_preorder`) rather than field by field, so a chain of
    thousands of clauses costs no interpreter recursion.  The sequence
    determines the tree: each operator has a fixed number of operands."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))


def _preorder(formula: Formula) -> List[object]:
    """``formula``'s nodes in pre-order, each compound node as its class
    and each leaf as itself (an explicit stack)."""
    nodes: List[object] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, _Compound):
            nodes.append(node.__class__)
            stack.extend(reversed(node.children()))
        else:
            nodes.append(node)
    return nodes


@dataclass(frozen=True, eq=False)
class FAnd(_Compound):
    """Conjunction of two formulas."""

    left: Formula
    right: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        # ``and`` prints without parentheses, so every nested conjunction
        # reads as one flat chain.
        return " and ".join(str(operand) for operand in _conjuncts(self))


@dataclass(frozen=True, eq=False)
class FOr(_Compound):
    """Disjunction of two formulas."""

    left: Formula
    right: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        # A left-nested chain prints as one parenthesised ``a or b or c``,
        # which reads back as the same left-nested chain.
        operands = [self.right]
        left = self.left
        while isinstance(left, FOr):
            operands.append(left.right)
            left = left.left
        operands.append(left)
        return "(" + " or ".join(str(operand) for operand in reversed(operands)) + ")"


@dataclass(frozen=True, eq=False)
class FNot(_Compound):
    """Negation of a formula."""

    operand: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


def formula_and(*formulas: Formula) -> Formula:
    """Conjoin formulas, dropping trivial ``true`` conjuncts.

    The conjunction is built as a balanced tree so that policies with many
    thousands of clauses (all-pairs guarantee policies, the Figure 9 sweeps)
    never exceed the recursion depth of the formula traversals.
    """
    operands = [formula for formula in formulas if not isinstance(formula, FTrue)]
    if not operands:
        return FTrue()
    return _balanced_and(operands, 0, len(operands))


def _balanced_and(operands: List[Formula], low: int, high: int) -> Formula:
    """The balanced conjunction of ``operands[low:high]`` (at least one).

    Module-level, not nested in :func:`formula_and`: a recursive nested
    function is a reference cycle, made anew on every call.
    """
    if high - low == 1:
        return operands[low]
    middle = low + (high - low) // 2
    return FAnd(_balanced_and(operands, low, middle), _balanced_and(operands, middle, high))


def _conjuncts(formula: Formula) -> List[Formula]:
    """The non-``and`` operands of a conjunction, left to right (an explicit
    stack: a chain of thousands of clauses costs no recursion)."""
    operands: List[Formula] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, FAnd):
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def formula_clauses(formula: Formula) -> List[Formula]:
    """Flatten a conjunction into its list of non-``and`` clauses."""
    return [clause for clause in _conjuncts(formula) if not isinstance(clause, FTrue)]


# ---------------------------------------------------------------------------
# Statements and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """A policy statement ``id : predicate -> path-expression``."""

    identifier: str
    predicate: Predicate
    path: Regex

    def __str__(self) -> str:
        return f"{self.identifier} : ({self.predicate}) -> {self.path}"


@dataclass(frozen=True)
class Policy:
    """A complete Merlin policy: statements plus a bandwidth formula."""

    statements: Tuple[Statement, ...]
    formula: Formula = field(default_factory=FTrue)

    def __post_init__(self) -> None:
        from collections import Counter

        identifier_counts = Counter(
            statement.identifier for statement in self.statements
        )
        duplicates = [name for name, count in identifier_counts.items() if count > 1]
        if duplicates:
            raise PolicyError(f"duplicate statement identifiers: {sorted(duplicates)}")
        unknown = self.formula.identifiers() - set(identifier_counts)
        if unknown:
            raise PolicyError(
                f"formula references undefined statement identifiers: {sorted(unknown)}"
            )

    # -- queries -------------------------------------------------------------

    def statement_ids(self) -> List[str]:
        return [statement.identifier for statement in self.statements]

    def statement(self, identifier: str) -> Statement:
        for statement in self.statements:
            if statement.identifier == identifier:
                return statement
        raise PolicyError(f"no statement named {identifier!r}")

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    # -- construction helpers -------------------------------------------------

    def with_formula(self, formula: Formula) -> "Policy":
        """A copy of this policy with a different formula."""
        return Policy(statements=self.statements, formula=formula)

    def extended(self, statement: Statement, formula: Optional[Formula] = None) -> "Policy":
        """A copy with one more statement (and optionally an extra conjunct)."""
        new_formula = self.formula if formula is None else formula_and(self.formula, formula)
        return Policy(statements=self.statements + (statement,), formula=new_formula)

    # -- pretty printing -------------------------------------------------------

    def to_source(self) -> str:
        """Render the policy back to concrete Merlin syntax."""
        lines = ["["]
        for index, statement in enumerate(self.statements):
            separator = ";" if index < len(self.statements) - 1 else ""
            lines.append(f"  {statement}{separator}")
        lines.append("]," if not isinstance(self.formula, FTrue) else "]")
        if not isinstance(self.formula, FTrue):
            lines.append(str(self.formula))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_source()
