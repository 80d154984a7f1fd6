"""Abstract syntax for Merlin path expressions.

The grammar (Figure 1)::

    a ::= . | c | a a | a|a | a* | !a

where ``c`` is a path element: a network location or the name of a packet
processing function.  The AST is shared by the compiler (which builds the
logical topology from it) and by the negotiator verification machinery (which
decides language inclusion between a tenant's refined expression and the
original).

Concatenation (``a a``) and alternation (``a|a``) are n-ary: ``.* f1 .* f2 .*``
is one :class:`Concat` of five parts, not a spine of nested pairs, so a walk
over an expression recurses only as deep as its parentheses, stars and ``!``
nest.  :func:`concat` and :func:`union` are the only builders.  They flatten
nested operands, so a ``Concat`` or ``Union`` has at least two parts and none
of them is of its own kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple


class Regex:
    """Base class for path-expression AST nodes."""

    def children(self) -> Tuple["Regex", ...]:
        """Immediate sub-expressions (empty for leaves)."""
        return ()

    def size(self) -> int:
        """Number of AST nodes; Figure 9 uses this as the complexity metric.

        An n-ary node counts as the n - 1 binary operators the grammar needs
        to join its parts.
        """
        children = self.children()
        return max(1, len(children) - 1) + sum(child.size() for child in children)

    def symbols(self) -> FrozenSet[str]:
        """All explicit symbols (locations or function names) mentioned."""
        result: set = set()
        for child in self.children():
            result |= child.symbols()
        return frozenset(result)

    # Operator sugar used by tests and examples.
    def __add__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def __or__(self, other: "Regex") -> "Regex":
        return union(self, other)


@dataclass(frozen=True)
class Empty(Regex):
    """The empty language (matches nothing)."""

    def __str__(self) -> str:
        return "∅"


@dataclass(frozen=True)
class Epsilon(Regex):
    """The language containing only the empty sequence."""

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class Dot(Regex):
    """Matches any single location (the ``.`` of the surface syntax)."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class Symbol(Regex):
    """Matches a single specific location or packet-processing function."""

    name: str

    def symbols(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Concat(Regex):
    """Sequential composition of two or more path expressions."""

    parts: Tuple[Regex, ...]

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def __str__(self) -> str:
        return " ".join(
            f"({part})" if isinstance(part, Union) else str(part) for part in self.parts
        )


@dataclass(frozen=True)
class Union(Regex):
    """Alternation between two or more path expressions."""

    parts: Tuple[Regex, ...]

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def __str__(self) -> str:
        return "|".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class Star(Regex):
    """Kleene star (zero or more repetitions)."""

    operand: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        if isinstance(self.operand, (Symbol, Dot, Epsilon, Empty)):
            return f"{self.operand}*"
        return f"({self.operand})*"


@dataclass(frozen=True)
class Negate(Regex):
    """Language complement with respect to all sequences of locations."""

    operand: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


#: Shared leaf singletons.
EMPTY = Empty()
EPSILON = Epsilon()
DOT = Dot()


def concat(*parts: Regex) -> Regex:
    """Concatenate path expressions, simplifying identities.

    ``Epsilon`` is the concatenation identity and ``Empty`` annihilates.
    ``concat()`` with no arguments is ``Epsilon``.
    """
    flat: List[Regex] = []
    for part in parts:
        if isinstance(part, Empty):
            return EMPTY
        if isinstance(part, Concat):
            flat.extend(part.parts)
        elif not isinstance(part, Epsilon):
            flat.append(part)
    if len(flat) > 1:
        return Concat(tuple(flat))
    return flat[0] if flat else EPSILON


def union(*parts: Regex) -> Regex:
    """Alternate path expressions, simplifying identities (``Empty`` is the unit)."""
    flat: List[Regex] = []
    for part in parts:
        if isinstance(part, Union):
            flat.extend(part.parts)
        elif not isinstance(part, Empty):
            flat.append(part)
    if len(flat) > 1:
        return Union(tuple(flat))
    return flat[0] if flat else EMPTY


def star(operand: Regex) -> Regex:
    """Kleene star with simplification of nested stars and trivial operands."""
    if isinstance(operand, (Star, Epsilon)):
        return operand if isinstance(operand, Star) else EPSILON
    if isinstance(operand, Empty):
        return EPSILON
    return Star(operand)


def any_path() -> Regex:
    """The expression ``.*`` matching any forwarding path."""
    return star(DOT)
