"""The modelling front end the reference provisioning builders are written in.

``tests/reference_provisioning.py`` builds the provisioning MIP one
``Variable`` per column and one ``LinExpr`` / ``Constraint`` per row, and
exports it with :meth:`Model.to_standard_form`; the array builder in
:mod:`repro.core.provisioning` must hand the solver exactly that export.
This module holds only what those builders call.  The export is the one
the library used while it built the MIP this way, so its bytes (signed
zeros included) are the ones the array builder is held to.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse as sp

from repro.lp.model import StandardForm

Number = Union[int, float]


@dataclass(frozen=True)
class Variable:
    """A decision variable, identified by its name within a model."""

    name: str
    lower: float = 0.0
    upper: float = math.inf
    is_integer: bool = False

    def to_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other) -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other) -> "LinExpr":
        return self.to_expr() - other

    def __mul__(self, factor: Number) -> "LinExpr":
        return self.to_expr() * factor


class LinExpr:
    """An affine expression: a weighted sum of variables plus a constant."""

    __slots__ = ("coefficients", "constant")

    def __init__(
        self,
        coefficients: Optional[Dict[Variable, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.coefficients: Dict[Variable, float] = dict(coefficients or {})
        self.constant = float(constant)

    @staticmethod
    def sum_of(variables: Iterable[Variable]) -> "LinExpr":
        """The sum of ``variables``, each with coefficient 1."""
        total = LinExpr()
        for variable in variables:
            total.add_term(variable)
        return total

    @staticmethod
    def weighted_sum(pairs: Iterable[Tuple[Variable, Number]]) -> "LinExpr":
        """``sum(coefficient * variable)`` over ``(variable, coefficient)`` pairs."""
        total = LinExpr()
        for variable, coefficient in pairs:
            total.add_term(variable, coefficient)
        return total

    def add_term(self, variable: Variable, coefficient: Number = 1.0) -> "LinExpr":
        """Add ``coefficient * variable`` in place and return ``self``."""
        self.coefficients[variable] = (
            self.coefficients.get(variable, 0.0) + coefficient
        )
        return self

    @staticmethod
    def _coerce(other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        return LinExpr({}, float(other))

    def __add__(self, other) -> "LinExpr":
        rhs = self._coerce(other)
        result = LinExpr(self.coefficients, self.constant)
        for variable, coefficient in rhs.coefficients.items():
            result.add_term(variable, coefficient)
        result.constant += rhs.constant
        return result

    def __sub__(self, other) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, factor: Number) -> "LinExpr":
        return LinExpr(
            {
                variable: coefficient * factor
                for variable, coefficient in self.coefficients.items()
            },
            self.constant * factor,
        )

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, Sense.GREATER_EQUAL)

    def equals(self, other) -> "Constraint":
        """An equality constraint (``==`` is kept for object identity)."""
        return Constraint(self - other, Sense.EQUAL)


class Sense(enum.Enum):
    """Direction of a constraint ``expression SENSE 0``."""

    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass
class Constraint:
    """A linear constraint ``expression SENSE 0``: the right-hand side is
    folded into the expression's constant."""

    expression: LinExpr
    sense: Sense
    name: Optional[str] = None


class Model:
    """Named variables, constraints and a minimised objective."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective = LinExpr()
        self.objective_resolution: Optional[float] = None

    def _add_variable(self, variable: Variable) -> Variable:
        assert variable.name not in self._variables, variable.name
        self._variables[variable.name] = variable
        return variable

    def add_binary(self, name: str) -> Variable:
        return self._add_variable(Variable(name, 0.0, 1.0, is_integer=True))

    def add_continuous(
        self, name: str, lower: float = 0.0, upper: float = math.inf
    ) -> Variable:
        return self._add_variable(Variable(name, lower, upper))

    def variables(self) -> List[Variable]:
        """All variables in column order."""
        return list(self._variables.values())

    def add_constraint(self, constraint: Constraint, name: str) -> Constraint:
        constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def minimize(self, expression: LinExpr) -> None:
        self._objective = expression

    def to_standard_form(self) -> StandardForm:
        """Export the model as a sparse :class:`StandardForm`.

        Constraints become ``(row, column, value)`` triplets in one pass,
        ``>=`` rows negated into ``A_ub``; the COO matrices sum duplicate
        coordinates and convert to CSR.  A term over a variable the model
        never registered raises ``KeyError``.
        """
        variables = self.variables()
        index = {variable: position for position, variable in enumerate(variables)}
        num_vars = len(variables)

        c = np.zeros(num_vars)
        for variable, coefficient in self._objective.coefficients.items():
            c[index[variable]] += coefficient

        ub_coords: Tuple[List[int], List[int], List[float]] = ([], [], [])
        ub_rhs: List[float] = []
        eq_coords: Tuple[List[int], List[int], List[float]] = ([], [], [])
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            if constraint.sense is Sense.EQUAL:
                rows, cols, vals = eq_coords
                row_number = len(eq_rhs)
                sign = 1.0
            else:
                rows, cols, vals = ub_coords
                row_number = len(ub_rhs)
                sign = -1.0
            for variable, coefficient in constraint.expression.coefficients.items():
                rows.append(row_number)
                cols.append(index[variable])
                vals.append(sign * coefficient)
            # A zero constant makes an equality's right-hand side -0.0.
            rhs = -constraint.expression.constant
            if constraint.sense is Sense.EQUAL:
                eq_rhs.append(rhs)
            else:
                ub_rhs.append(sign * rhs)

        return StandardForm(
            c=c,
            a_ub=sp.coo_matrix(
                (ub_coords[2], (ub_coords[0], ub_coords[1])),
                shape=(len(ub_rhs), num_vars),
            ).tocsr(),
            b_ub=np.array(ub_rhs, dtype=float),
            a_eq=sp.coo_matrix(
                (eq_coords[2], (eq_coords[0], eq_coords[1])),
                shape=(len(eq_rhs), num_vars),
            ).tocsr(),
            b_eq=np.array(eq_rhs, dtype=float),
            lower=np.array([variable.lower for variable in variables], dtype=float),
            upper=np.array([variable.upper for variable in variables], dtype=float),
            integrality=np.array(
                [1 if variable.is_integer else 0 for variable in variables], dtype=int
            ),
            objective_resolution=self.objective_resolution,
        )
