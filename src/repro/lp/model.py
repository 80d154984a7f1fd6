"""The standard form every backend solves.

:class:`StandardForm` holds a (mixed-integer) linear program as the arrays
HiGHS reads: the objective, one column-wise constraint matrix with its row
bounds, the column bounds and the integrality.  The provisioning MIP is
built straight into one (:func:`repro.core.provisioning.build_model_for_links`),
and its :class:`PathLayout` tells the primal heuristic where the path
structure is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PathLayout:
    """Where a provisioning form keeps its path structure.

    ``members`` holds the ``(start, stop)`` range of each member
    statement's binary edge columns, in member order.  Column ``r_max`` is
    the largest reserved fraction and ``r_max + 1`` the largest reserved
    amount; every later column is one link's reserved fraction.  The rows
    are each link's Equation-3 and Equation-4 ``<=`` rows in turn, then
    the members' Equation-1 flow rows, then one Equation-2 row per link,
    in the reservation columns' order.  The primal heuristic reads a form
    through this layout.
    """

    members: Tuple[Tuple[int, int], ...]
    r_max: int


@dataclass
class StandardForm:
    """A linear program as the arrays HiGHS reads.

    Minimise ``c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``lower <= x <= upper``; ``integrality`` is 1 for integer columns.  A
    form always minimises: a maximisation is written as the minimisation
    of the negated objective.

    ``A`` is stored column by column: the entries of column ``j`` are
    ``index[start[j]:start[j + 1]]`` (their rows, ascending) and
    ``value[start[j]:start[j + 1]]``, so memory stays linear in the number
    of non-zeros, which is what lets large fat-tree provisioning models
    fit in RAM.  The ``<=`` rows come first, each with ``row_lower``
    ``-inf``, then the ``=`` rows, each with equal bounds — the layout
    SciPy's ``milp`` hands HiGHS, so :func:`~repro.lp.scipy_backend.run_highs`
    passes the arrays on as they are.  ``value``, the row bounds and the
    column bounds are float64.

    ``objective_resolution`` optionally declares the smallest objective
    difference that distinguishes two genuinely different solutions (for
    Merlin's min-max objectives, the per-edge tiebreaker epsilon).
    Gap-based solvers scale their pruning tolerance below it so an
    incumbent can never shadow a strictly better near-tie — see
    :class:`~repro.lp.branch_and_bound.BranchAndBoundSolver`.  ``layout``
    is set on provisioning forms only.
    """

    c: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    objective_resolution: Optional[float] = None
    layout: Optional[PathLayout] = None

    def num_variables(self) -> int:
        return int(self.c.size)

    def num_constraints(self) -> int:
        return int(self.row_upper.size)


class Model:
    """No model object exists: a backend solves a :class:`StandardForm`.

    This name stays only while ``bench/trace.py`` names ``Model.solve`` as
    its ``lp`` target, whose harness test requires every target to resolve;
    nothing constructs it.
    """

    def solve(self, solver=None):
        raise NotImplementedError("hand a StandardForm to a backend's solve()")
