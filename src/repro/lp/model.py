"""The standard form every backend solves.

:class:`StandardForm` holds the matrices, bounds and integrality of a
(mixed-integer) linear program, column by column.  The provisioning MIP is
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
    A form always minimises: a maximisation is written as the minimisation
    of the negated objective.

    ``a_ub`` / ``a_eq`` are ``scipy.sparse.csr_matrix``: memory stays
    linear in the number of non-zeros, which is what lets large fat-tree
    provisioning models fit in RAM.

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
    objective_resolution: Optional[float] = None
    layout: Optional[PathLayout] = None

    def num_variables(self) -> int:
        return int(self.c.size)

    def num_constraints(self) -> int:
        return int(self.b_ub.size + self.b_eq.size)


class Model:
    """No model object exists: a backend solves a :class:`StandardForm`.

    This name stays only while ``bench/trace.py`` names ``Model.solve`` as
    its ``lp`` target, whose harness test requires every target to resolve;
    nothing constructs it.
    """

    def solve(self, solver=None):
        raise NotImplementedError("hand a StandardForm to a backend's solve()")
