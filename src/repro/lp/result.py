"""Solve results and status codes for the LP/MIP substrate."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .expr import Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve attempt.

    ``FEASIBLE`` means the solver found an integer-feasible incumbent but
    stopped (time or node limit) before proving it optimal; the incumbent is
    returned in ``values`` and the remaining best bound, when known, is
    surfaced in ``statistics["best_bound"]``.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        return self is SolveStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        """Whether a usable variable assignment accompanies this status."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """The outcome of solving a model.

    ``x`` is the solution's column vector, in the standard form's column
    order (``None`` for infeasible/unbounded outcomes), with integer
    columns rounded.  ``objective`` is the objective value under that
    assignment.  ``statistics`` carries solver-specific metadata such as
    node counts or solve time, used by the scalability benchmarks.
    ``values`` maps every variable of a :class:`~repro.lp.model.Model` to
    its value; :meth:`Model.solve <repro.lp.model.Model.solve>` fills it
    from ``x``, and a backend handed a bare form leaves it empty.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    statistics: Dict[str, float] = field(default_factory=dict)
    values: Dict[Variable, float] = field(default_factory=dict)

    def value_of(self, variable: Variable, default: float = 0.0) -> float:
        """The solution value of a variable (``default`` when absent)."""
        return self.values.get(variable, default)

    def values_by_name(self) -> Dict[str, float]:
        """Solution values keyed by variable name (useful for reporting)."""
        return {variable.name: value for variable, value in self.values.items()}

    @property
    def is_optimal(self) -> bool:
        return self.status.is_optimal

    @property
    def has_solution(self) -> bool:
        """Whether the result carries a usable (possibly non-proven) solution."""
        return self.status.has_solution
