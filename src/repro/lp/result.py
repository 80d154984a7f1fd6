"""Solve results and status codes for the LP/MIP substrate."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


class SolveStatus(enum.Enum):
    """Outcome of a solve attempt.

    ``FEASIBLE`` means the solver found an integer-feasible incumbent but
    stopped (time or node limit) before proving it optimal; the incumbent is
    returned in ``x`` and the remaining best bound, when known, is surfaced
    in ``statistics["best_bound"]``.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a usable variable assignment accompanies this status."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """The outcome of solving a standard form.

    ``x`` is the solution's column vector, in the standard form's column
    order (``None`` for infeasible/unbounded outcomes), with integer
    columns rounded.  ``objective`` is the objective value under that
    assignment.  ``statistics`` carries solver-specific metadata such as
    node counts or solve time, used by the scalability benchmarks.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    statistics: Dict[str, float] = field(default_factory=dict)
