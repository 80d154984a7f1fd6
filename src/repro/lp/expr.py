"""Decision variables and linear expressions.

The modelling layer mimics the small core of APIs like Gurobi's or PuLP's:
variables support arithmetic that produces :class:`LinExpr` objects, and
comparisons against numbers or expressions produce constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    ``is_integer`` marks integrality; a binary variable is an integer
    variable with bounds ``[0, 1]`` (the MIP's edge-selection variables
    ``x_e`` are binary).  Variables are identified by name; the
    :class:`~repro.lp.model.Model` enforces uniqueness.
    """

    name: str
    lower: float = 0.0
    upper: float = math.inf
    is_integer: bool = False

    @property
    def is_binary(self) -> bool:
        return self.is_integer and self.lower == 0.0 and self.upper == 1.0

    # -- arithmetic producing linear expressions ----------------------------

    def to_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other) -> "LinExpr":
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self.to_expr()) + other

    def __mul__(self, factor: Number) -> "LinExpr":
        return self.to_expr() * factor

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    # -- comparisons producing constraints -----------------------------------

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __str__(self) -> str:
        return self.name


class LinExpr:
    """An affine expression: a weighted sum of variables plus a constant."""

    __slots__ = ("coefficients", "constant")

    def __init__(
        self,
        coefficients: Optional[Mapping[Variable, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.coefficients: Dict[Variable, float] = dict(coefficients or {})
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def sum_of(terms: Iterable[Union["LinExpr", Variable, Number]]) -> "LinExpr":
        """Sum an iterable of variables, expressions, and numbers."""
        total = LinExpr()
        for term in terms:
            total.add(term)
        return total

    @staticmethod
    def weighted_sum(
        pairs: Iterable[Tuple[Variable, Number]], constant: float = 0.0
    ) -> "LinExpr":
        """Build ``sum(coefficient * variable)`` in one pass.

        The loop-growing equivalent ``expr = expr + var * coeff`` copies the
        whole coefficient dict on every term (quadratic in the number of
        terms); this builds the dict once.
        """
        total = LinExpr(constant=constant)
        coefficients = total.coefficients
        for variable, coefficient in pairs:
            coefficients[variable] = coefficients.get(variable, 0.0) + coefficient
        return total

    def add_term(self, variable: Variable, coefficient: Number = 1.0) -> "LinExpr":
        """Add ``coefficient * variable`` in place and return ``self``.

        This is the accumulation primitive for expressions grown inside
        loops (flow-conservation sums, per-link reservation sums, objective
        assembly): unlike ``+`` it never copies the coefficient dict.
        """
        self.coefficients[variable] = (
            self.coefficients.get(variable, 0.0) + coefficient
        )
        return self

    def add_constant(self, value: Number) -> "LinExpr":
        """Add a constant in place and return ``self``."""
        self.constant += float(value)
        return self

    def add(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        """Add another expression/variable/number in place and return ``self``."""
        if isinstance(other, Variable):
            return self.add_term(other, 1.0)
        if isinstance(other, (int, float)):
            return self.add_constant(other)
        rhs = self._coerce(other)
        for variable, coefficient in rhs.coefficients.items():
            self.coefficients[variable] = (
                self.coefficients.get(variable, 0.0) + coefficient
            )
        self.constant += rhs.constant
        return self

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coefficients), self.constant)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        if isinstance(other, (int, float)):
            return LinExpr({}, float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other).__name__}")

    def __add__(self, other) -> "LinExpr":
        rhs = self._coerce(other)
        result = self.copy()
        for variable, coefficient in rhs.coefficients.items():
            result.coefficients[variable] = result.coefficients.get(variable, 0.0) + coefficient
        result.constant += rhs.constant
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        return LinExpr(
            {variable: coefficient * factor for variable, coefficient in self.coefficients.items()},
            self.constant * factor,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons producing constraints ------------------------------------

    def __le__(self, other):
        from .constraint import Constraint, Sense

        return Constraint(self - self._coerce(other), Sense.LESS_EQUAL)

    def __ge__(self, other):
        from .constraint import Constraint, Sense

        return Constraint(self - self._coerce(other), Sense.GREATER_EQUAL)

    def equals(self, other) -> "Constraint":
        """Build an equality constraint (``==`` is kept for object identity)."""
        from .constraint import Constraint, Sense

        return Constraint(self - self._coerce(other), Sense.EQUAL)

    # -- evaluation -----------------------------------------------------------

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.constant + sum(
            coefficient * assignment.get(variable, 0.0)
            for variable, coefficient in self.coefficients.items()
        )

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(self.coefficients)

    def __str__(self) -> str:
        parts = [
            f"{coefficient:+g}*{variable.name}"
            for variable, coefficient in sorted(
                self.coefficients.items(), key=lambda item: item[0].name
            )
            if coefficient != 0.0
        ]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)
