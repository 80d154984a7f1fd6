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
from typing import FrozenSet, List, Optional, Tuple

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
        """All statement identifiers mentioned in the formula."""
        raise NotImplementedError

    def children(self) -> Tuple["Formula", ...]:
        return ()

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children())


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


@dataclass(frozen=True)
class FAnd(Formula):
    """Conjunction of two formulas."""

    left: Formula
    right: Formula

    def identifiers(self) -> FrozenSet[str]:
        return self.left.identifiers() | self.right.identifiers()

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} and {self.right}"


@dataclass(frozen=True)
class FOr(Formula):
    """Disjunction of two formulas."""

    left: Formula
    right: Formula

    def identifiers(self) -> FrozenSet[str]:
        return self.left.identifiers() | self.right.identifiers()

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class FNot(Formula):
    """Negation of a formula."""

    operand: Formula

    def identifiers(self) -> FrozenSet[str]:
        return self.operand.identifiers()

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


def formula_clauses(formula: Formula) -> List[Formula]:
    """Flatten a conjunction into its list of non-``and`` clauses."""
    if isinstance(formula, FTrue):
        return []
    if isinstance(formula, FAnd):
        return formula_clauses(formula.left) + formula_clauses(formula.right)
    return [formula]


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
