"""A pure-Python branch-and-bound MIP solver.

This backend solves mixed-integer programs by branching on fractional integer
variables and bounding with LP relaxations, each solved by one fresh HiGHS
instance through :func:`~repro.lp.scipy_backend.run_highs` (the call the
SciPy backend makes, with the integrality dropped).  It exists for two
reasons:

* it is an *independent* implementation against which the SciPy/HiGHS MILP
  backend is cross-checked in the test suite, and
* it demonstrates that the Merlin formulation does not depend on a
  commercial solver — the ablation benchmark compares the two backends on
  the same provisioning problems.

The solver uses best-first search on the LP relaxation bound with
most-fractional branching, which is entirely adequate for the path-selection
MIPs Merlin generates (binary edge variables with network-flow structure).
Relaxations consume the standard form's column-wise arrays as they are
(HiGHS reads them directly), so the solver's memory stays proportional to
the constraint-matrix non-zeros rather than rows × columns.

Pruning respects the form's declared ``objective_resolution`` (the
tiebreaker epsilon of Merlin's min-max objectives): the effective absolute
gap is scaled below it, so the first incumbent found cannot prune the
equal-but-for-tiebreaker solution that is strictly better, regardless of
component size.

Incumbent bookkeeping follows standard branch-and-bound semantics: when the
search is interrupted by the time limit or the node limit while a feasible
incumbent exists, the incumbent is returned with
:attr:`~repro.lp.result.SolveStatus.FEASIBLE` (not ``OPTIMAL``), and the
smallest open relaxation bound is surfaced in ``statistics["best_bound"]``
(with ``statistics["gap"]`` the absolute incumbent/bound gap).  ``OPTIMAL``
is only reported once every open node is exhausted or dominated.  A
search interrupted before any incumbent was found proves nothing and
reports :attr:`~repro.lp.result.SolveStatus.ERROR`, whichever limit
stopped it.  An unbounded root relaxation is ``UNBOUNDED`` for a pure LP
and ``ERROR`` for a MIP, the statuses the SciPy backend reports for them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import SolverError
from .model import StandardForm
from .result import SolveResult, SolveStatus
from .scipy_backend import run_highs

_INTEGRALITY_TOLERANCE = 1e-6

#: A node is pruned once its relaxation bound is within this distance of the
#: incumbent (scaled down per model by :meth:`BranchAndBoundSolver._effective_gap`).
ABSOLUTE_GAP = 1e-6

#: What :meth:`BranchAndBoundSolver._solve_relaxation` returns for an
#: unbounded relaxation.
_UNBOUNDED = (None, -math.inf)


@dataclass(order=True)
class _Node:
    """A branch-and-bound node, ordered by its LP relaxation bound."""

    bound: float
    sequence: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


class BranchAndBoundSolver:
    """Best-first branch-and-bound over HiGHS LP relaxations."""

    name = "bnb"

    def __init__(
        self,
        time_limit_seconds: Optional[float] = None,
        max_nodes: int = 200_000,
    ) -> None:
        self.time_limit_seconds = time_limit_seconds
        self.max_nodes = max_nodes

    @staticmethod
    def _effective_gap(form: StandardForm) -> float:
        """The pruning gap, scaled below the form's objective resolution.

        With :data:`ABSOLUTE_GAP` (1e-6) alone, an incumbent prunes any
        node within 1e-6 of it — including the strictly better near-tie
        whenever the model's tiebreaker epsilon falls below the gap
        (components beyond ~1000 logical edges).  Halving the declared
        resolution keeps the gap strictly between numerical noise and the
        smallest genuine objective difference.
        """
        resolution = form.objective_resolution
        if resolution is not None and 0.0 < resolution < 2.0 * ABSOLUTE_GAP:
            return resolution / 2.0
        return ABSOLUTE_GAP

    def solve(self, form: StandardForm) -> SolveResult:
        """Solve the form; a pure LP is settled by its root relaxation."""
        absolute_gap = self._effective_gap(form)
        # Bound once: the node loop below reads the clock per node, and the
        # contextvar lookup inside telemetry.clock() would be per-iteration
        # overhead for no benefit.
        clock = telemetry.active().clock
        started = clock()
        integer_indices = [
            position for position, flag in enumerate(form.integrality) if flag
        ]
        lower = form.lower.copy()
        upper = form.upper.copy()

        incumbent: Optional[np.ndarray] = None
        incumbent_objective = math.inf
        explored = 0
        counter = itertools.count()

        root = self._solve_relaxation(form, lower, upper)
        if root is None or root is _UNBOUNDED:
            # An unbounded relaxation proves an LP unbounded, but a MIP's
            # integer points may all be infeasible: no proof either way, as
            # HiGHS's milp reports it.
            if root is None:
                status = SolveStatus.INFEASIBLE
            else:
                status = SolveStatus.ERROR if integer_indices else SolveStatus.UNBOUNDED
            return SolveResult(
                status=status,
                statistics={"nodes": 1, "solve_seconds": clock() - started},
            )
        heap: List[_Node] = [_Node(root[1], next(counter), lower, upper)]
        interrupted = False

        while heap:
            explored += 1
            if explored > self.max_nodes or (
                self.time_limit_seconds is not None
                and clock() - started > self.time_limit_seconds
            ):
                interrupted = True
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_objective - absolute_gap:
                continue
            relaxation = self._solve_relaxation(form, node.lower, node.upper)
            if relaxation is None:
                continue
            solution, objective = relaxation
            if objective >= incumbent_objective - absolute_gap:
                continue
            branch_index = self._most_fractional(solution, integer_indices)
            if branch_index is None:
                # Integer-feasible: new incumbent.
                incumbent = solution
                incumbent_objective = objective
                continue
            value = solution[branch_index]
            floor_value = math.floor(value)
            # Down branch: x <= floor(value).
            down_upper = node.upper.copy()
            down_upper[branch_index] = floor_value
            if down_upper[branch_index] >= node.lower[branch_index] - 1e-12:
                heapq.heappush(
                    heap, _Node(objective, next(counter), node.lower.copy(), down_upper)
                )
            # Up branch: x >= ceil(value).
            up_lower = node.lower.copy()
            up_lower[branch_index] = floor_value + 1
            if up_lower[branch_index] <= node.upper[branch_index] + 1e-12:
                heapq.heappush(
                    heap, _Node(objective, next(counter), up_lower, node.upper.copy())
                )

        elapsed = clock() - started
        if incumbent is None:
            # Exhausted without an integer-feasible point: infeasible.  A
            # search a limit interrupted first proves nothing either way.
            return SolveResult(
                status=SolveStatus.ERROR if interrupted else SolveStatus.INFEASIBLE,
                statistics={"nodes": explored, "solve_seconds": elapsed},
            )
        x = np.array(incumbent, dtype=float)
        x[integer_indices] = np.round(x[integer_indices])
        # The best bound is the smallest relaxation bound still open; when the
        # heap is empty (or every open node is dominated by the incumbent) the
        # incumbent is proven optimal.
        best_bound = min((node.bound for node in heap), default=incumbent_objective)
        best_bound = min(best_bound, incumbent_objective)
        proven = (
            not interrupted
            or not heap
            or best_bound >= incumbent_objective - absolute_gap
        )
        return SolveResult(
            status=SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE,
            x=x,
            objective=incumbent_objective,
            statistics={
                "nodes": explored,
                "solve_seconds": elapsed,
                "best_bound": best_bound,
                "gap": abs(incumbent_objective - best_bound),
            },
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _solve_relaxation(
        form: StandardForm, lower: np.ndarray, upper: np.ndarray
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Solve the LP relaxation with the given bounds: its solution and
        objective, ``None`` if infeasible, :data:`_UNBOUNDED` if unbounded.

        Only the root can be unbounded: every other node's relaxation is a
        restriction of a bounded one.
        """
        outcome = run_highs(form, lower, upper, relax=True)
        if outcome.status is SolveStatus.OPTIMAL:
            return outcome.x, outcome.objective
        if outcome.status is SolveStatus.INFEASIBLE:
            return None
        if outcome.status is SolveStatus.UNBOUNDED:
            return _UNBOUNDED
        raise SolverError(f"LP relaxation failed with status {outcome.status.value}")

    @staticmethod
    def _most_fractional(
        solution: np.ndarray, integer_indices: List[int]
    ) -> Optional[int]:
        """The integer variable farthest from integrality (``None`` if all integral)."""
        best_index: Optional[int] = None
        best_distance = _INTEGRALITY_TOLERANCE
        for position in integer_indices:
            value = solution[position]
            distance = abs(value - round(value))
            if distance > best_distance:
                best_distance = distance
                best_index = position
        return best_index
