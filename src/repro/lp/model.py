"""The optimisation model: variables, constraints, and an objective.

:class:`StandardForm` is what every backend solves: the matrices, bounds
and integrality of a (mixed-integer) linear program, column by column.  The
provisioning MIP is built straight into one
(:func:`repro.core.provisioning.build_model_for_links`).  A :class:`Model`
is the general modelling front end over it: it collects named decision
variables and linear constraints, exports them with
:meth:`Model.to_standard_form`, and :meth:`Model.solve` hands that form to
a backend (:class:`~repro.lp.scipy_backend.ScipySolver` by default) and
keys the answer by the model's variables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SolverError
from .constraint import Constraint, Sense
from .expr import LinExpr, Variable


class Objective(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class PathLayout:
    """Where a provisioning form keeps its path structure.

    ``members`` holds the ``(start, stop)`` range of each member
    statement's binary edge columns, in member order; their Equation-1
    flow rows are the first rows of ``A_eq``.  Column ``r_max`` is the
    largest reserved fraction and ``r_max + 1`` the largest reserved
    amount; every later column is one link's reserved fraction, and that
    link's Equation-2 row is among the last rows of ``A_eq``, in the same
    order.  The primal heuristic reads a form through this layout.
    """

    members: Tuple[Tuple[int, int], ...]
    r_max: int


@dataclass
class StandardForm:
    """Standard-form data ready for SciPy.

    Minimise ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``,
    and ``lower <= x <= upper``; ``integrality`` is 1 for integer columns.
    The objective sign is already flipped for maximisation models.

    ``a_ub`` / ``a_eq`` are ``scipy.sparse.csr_matrix`` in every form a
    backend is handed: memory stays linear in the number of non-zeros,
    which is what lets large fat-tree provisioning models fit in RAM.
    ``Model.to_standard_form()`` without ``sparse=True`` exports dense
    ``np.ndarray`` matrices, the reference layout tests compare against.

    ``objective_resolution`` optionally declares the smallest objective
    difference that distinguishes two genuinely different solutions (for
    Merlin's min-max objectives, the per-edge tiebreaker epsilon).
    Gap-based solvers scale their pruning tolerance below it so an
    incumbent can never shadow a strictly better near-tie — see
    :class:`~repro.lp.branch_and_bound.BranchAndBoundSolver`.  ``layout``
    is set on provisioning forms only.
    """

    c: np.ndarray
    a_ub: "np.ndarray"
    b_ub: np.ndarray
    a_eq: "np.ndarray"
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximize: bool = False
    objective_resolution: Optional[float] = None
    layout: Optional[PathLayout] = None

    def num_variables(self) -> int:
        return int(self.c.size)

    def num_constraints(self) -> int:
        return int(self.b_ub.size + self.b_eq.size)


class Model:
    """A linear / mixed-integer optimisation model.

    ``objective_resolution`` is exported to the form's field of that name
    (see :class:`StandardForm`).
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._direction: Objective = Objective.MINIMIZE
        self.objective_resolution: Optional[float] = None

    # -- variables -----------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        is_integer: bool = False,
    ) -> Variable:
        """Create and register a decision variable with a unique name."""
        if name in self._variables:
            raise SolverError(f"duplicate variable name {name!r}")
        variable = Variable(name=name, lower=lower, upper=upper, is_integer=is_integer)
        self._variables[name] = variable
        return variable

    def add_binary(self, name: str) -> Variable:
        """Create a {0, 1} decision variable."""
        return self.add_variable(name, lower=0.0, upper=1.0, is_integer=True)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = math.inf) -> Variable:
        """Create a continuous, bounded decision variable."""
        return self.add_variable(name, lower=lower, upper=upper, is_integer=False)

    def variables(self) -> List[Variable]:
        """All registered variables in insertion order."""
        return list(self._variables.values())

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._variables[name]
        except KeyError:
            raise SolverError(f"unknown variable {name!r}") from None

    def num_variables(self) -> int:
        return len(self._variables)

    def num_integer_variables(self) -> int:
        return sum(1 for variable in self._variables.values() if variable.is_integer)

    # -- constraints ----------------------------------------------------------

    def add_constraint(self, constraint: Constraint, name: Optional[str] = None) -> Constraint:
        """Register a constraint built with the expression comparison operators."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects a Constraint; use <=, >= or .equals() on expressions"
            )
        if name is not None:
            constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def num_constraints(self) -> int:
        return len(self._constraints)

    # -- objective ------------------------------------------------------------

    def set_objective(self, expression: Union[LinExpr, Variable, float], direction: Objective) -> None:
        """Set the objective expression and optimisation direction."""
        if isinstance(expression, Variable):
            expression = expression.to_expr()
        elif isinstance(expression, (int, float)):
            expression = LinExpr({}, float(expression))
        self._objective = expression
        self._direction = direction

    def minimize(self, expression: Union[LinExpr, Variable, float]) -> None:
        self.set_objective(expression, Objective.MINIMIZE)

    def maximize(self, expression: Union[LinExpr, Variable, float]) -> None:
        self.set_objective(expression, Objective.MAXIMIZE)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def direction(self) -> Objective:
        return self._direction

    # -- standard form ----------------------------------------------------------

    def to_standard_form(self, sparse: bool = False) -> StandardForm:
        """Export the model as matrices for SciPy's solvers.

        Matrix assembly is vectorized: constraints are flattened into
        coordinate triplets ``(row, column, value)`` in one pass.  With
        ``sparse=False`` the triplets are scattered into dense matrices with
        ``np.add.at`` (which accumulates duplicate coordinates exactly like
        the per-row ``+=`` of a scalar build).  With ``sparse=True`` the same
        triplets become ``scipy.sparse`` COO matrices (which also sum
        duplicates) converted to CSR, so memory stays proportional to the
        number of non-zeros instead of rows x columns — the dense export of
        a fat-tree provisioning MIP grows quadratically and becomes the
        memory bound long before the solver does.
        """
        variables = self.variables()
        index = {variable: position for position, variable in enumerate(variables)}
        num_vars = len(variables)

        c = np.zeros(num_vars)
        for variable, coefficient in self._objective.coefficients.items():
            position = index.get(variable)
            if position is None:
                raise SolverError(
                    f"objective references variable {variable.name!r} not in model"
                )
            c[position] += coefficient
        maximize = self._direction is Objective.MAXIMIZE
        if maximize:
            c = -c

        ub_coords: Tuple[List[int], List[int], List[float]] = ([], [], [])
        ub_rhs: List[float] = []
        eq_coords: Tuple[List[int], List[int], List[float]] = ([], [], [])
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            sense = constraint.sense
            if sense is Sense.EQUAL:
                rows, cols, vals = eq_coords
                row_number = len(eq_rhs)
                sign = 1.0
            else:
                rows, cols, vals = ub_coords
                row_number = len(ub_rhs)
                # >= rows are negated into <= form.
                sign = 1.0 if sense is Sense.LESS_EQUAL else -1.0
            for variable, coefficient in constraint.expression.coefficients.items():
                position = index.get(variable)
                if position is None:
                    raise SolverError(
                        f"constraint references variable {variable.name!r} not in model"
                    )
                rows.append(row_number)
                cols.append(position)
                vals.append(sign * coefficient)
            rhs = -constraint.expression.constant
            if sense is Sense.EQUAL:
                eq_rhs.append(rhs)
            else:
                ub_rhs.append(sign * rhs)

        if sparse:
            from scipy import sparse as sp

            a_ub = sp.coo_matrix(
                (ub_coords[2], (ub_coords[0], ub_coords[1])),
                shape=(len(ub_rhs), num_vars),
            ).tocsr()
            a_eq = sp.coo_matrix(
                (eq_coords[2], (eq_coords[0], eq_coords[1])),
                shape=(len(eq_rhs), num_vars),
            ).tocsr()
        else:
            a_ub = np.zeros((len(ub_rhs), num_vars))
            if ub_coords[0]:
                np.add.at(a_ub, (ub_coords[0], ub_coords[1]), ub_coords[2])
            a_eq = np.zeros((len(eq_rhs), num_vars))
            if eq_coords[0]:
                np.add.at(a_eq, (eq_coords[0], eq_coords[1]), eq_coords[2])
        integrality = np.array(
            [1 if variable.is_integer else 0 for variable in variables], dtype=int
        )
        return StandardForm(
            c=c,
            a_ub=a_ub,
            b_ub=np.array(ub_rhs, dtype=float),
            a_eq=a_eq,
            b_eq=np.array(eq_rhs, dtype=float),
            lower=np.array([variable.lower for variable in variables], dtype=float),
            upper=np.array([variable.upper for variable in variables], dtype=float),
            integrality=integrality,
            maximize=maximize,
            objective_resolution=self.objective_resolution,
        )

    # -- solving -----------------------------------------------------------------

    def solve(self, solver=None):
        """Solve the model with the given backend (SciPy/HiGHS by default).

        The backend solves the sparse standard form; the result's
        ``values`` key its column vector by this model's variables.
        """
        if solver is None:
            from .scipy_backend import ScipySolver

            solver = ScipySolver()
        result = solver.solve(self.to_standard_form(sparse=True))
        if result.x is not None:
            result.values = dict(zip(self.variables(), result.x.tolist()))
        return result

    def objective_value(self, assignment) -> float:
        """Evaluate the objective under an assignment (model direction applied)."""
        return self._objective.value(assignment)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, variables={self.num_variables()}, "
            f"integer={self.num_integer_variables()}, constraints={self.num_constraints()})"
        )
