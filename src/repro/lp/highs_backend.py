"""A HiGHS MIP backend with real warm-start (MIP start) plumbing.

``scipy.optimize.milp`` drives the same HiGHS engine but exposes no start
API, so warm starts only ever helped the pure-Python branch-and-bound.
This backend talks to HiGHS directly through ``highspy`` and seeds validated
incumbents via ``Highs.setSolution`` — the `consumes_warm_starts` gate and
the scipy backend's drop-warning were pre-staged for exactly this.

``highspy`` is an *optional* dependency: when it is not importable,
:func:`highs_available` reports ``False``, constructing :class:`HighsSolver`
raises :class:`~repro.errors.SolverError` with a pointer at the ``"scipy"``
backend (same engine, no start plumbing), the registry still lists
``"highs"`` (so the error is discoverable, not a KeyError), and the ``auto``
portfolio simply skips it.  Tests for this module skip rather than fail
when the import is absent.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..errors import SolverError
from .branch_and_bound import BranchAndBoundSolver
from .model import Model, StandardForm
from .result import SolveResult, SolveStatus
from .scipy_backend import MIP_GAP

try:  # pragma: no cover - exercised only where highspy is installed
    import highspy as _highspy
except ImportError:  # pragma: no cover - the container path
    _highspy = None


def highs_available() -> bool:
    """Whether the ``highspy`` bindings are importable in this environment."""
    return _highspy is not None


class HighsSolver:
    """Solve MIPs with the HiGHS C++ solver via ``highspy``.

    Unlike the scipy backend this one consumes warm starts: a candidate
    assignment validated by the shared
    :meth:`BranchAndBoundSolver._validate_start` check is handed to HiGHS
    as a MIP start, recorded in ``statistics["warm_start_used"]`` (or
    ``warm_start_rejected`` when the candidate fails validation).
    """

    name = "highs"
    consumes_warm_starts = True
    supports_time_limit = True
    supports_node_limit = True

    def __init__(
        self,
        time_limit_seconds: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        if _highspy is None:
            raise SolverError(
                "the 'highs' backend needs the highspy package, which is not "
                "installed; use the 'scipy' backend for the same HiGHS engine "
                "without warm-start plumbing"
            )
        self.time_limit_seconds = time_limit_seconds
        self.node_limit = node_limit

    def solve(
        self, model: Model, warm_start: Optional[Mapping[str, float]] = None
    ) -> SolveResult:
        form = model.to_standard_form(sparse=True)
        started = telemetry.clock()
        highs = _highspy.Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("mip_rel_gap", MIP_GAP)
        if self.time_limit_seconds is not None:
            highs.setOptionValue("time_limit", float(self.time_limit_seconds))
        if self.node_limit is not None:
            highs.setOptionValue("mip_max_nodes", int(self.node_limit))

        highs.passModel(self._build_lp(form))

        statistics: Dict[str, float] = {
            "num_variables": float(len(form.variables)),
            "num_integer_variables": float(int(form.integrality.sum())),
        }
        if warm_start is not None:
            lower = np.array([bound[0] for bound in form.bounds], dtype=float)
            upper = np.array([bound[1] for bound in form.bounds], dtype=float)
            point = BranchAndBoundSolver._validate_start(
                form, warm_start, lower, upper
            )
            if point is not None:
                solution = _highspy.HighsSolution()
                solution.col_value = [float(value) for value in point]
                highs.setSolution(solution)
                statistics["warm_start_used"] = 1.0
            else:
                statistics["warm_start_rejected"] = 1.0

        highs.run()
        statistics["solve_seconds"] = telemetry.clock() - started
        return self._wrap(highs, form, statistics)

    # -- internals ---------------------------------------------------------------

    def _build_lp(self, form: StandardForm):
        """Translate the standard form into a column-wise ``HighsLp``."""
        num_columns = len(form.variables)
        lp = _highspy.HighsLp()
        lp.num_col_ = num_columns
        lp.col_cost_ = list(map(float, form.c))
        lp.col_lower_ = [float(bound[0]) for bound in form.bounds]
        lp.col_upper_ = [float(bound[1]) for bound in form.bounds]
        lp.integrality_ = [
            _highspy.HighsVarType.kInteger if flag else _highspy.HighsVarType.kContinuous
            for flag in form.integrality
        ]

        blocks = []
        row_lower: list = []
        row_upper: list = []
        if form.b_ub.size:
            blocks.append(sp.csr_matrix(form.a_ub))
            row_lower.extend([-_highspy.kHighsInf] * form.b_ub.size)
            row_upper.extend(map(float, form.b_ub))
        if form.b_eq.size:
            blocks.append(sp.csr_matrix(form.a_eq))
            row_lower.extend(map(float, form.b_eq))
            row_upper.extend(map(float, form.b_eq))
        lp.num_row_ = len(row_lower)
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        if blocks:
            matrix = sp.vstack(blocks).tocsc()
            lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
            lp.a_matrix_.start_ = list(map(int, matrix.indptr))
            lp.a_matrix_.index_ = list(map(int, matrix.indices))
            lp.a_matrix_.value_ = list(map(float, matrix.data))
        else:
            lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
            lp.a_matrix_.start_ = [0] * (num_columns + 1)
            lp.a_matrix_.index_ = []
            lp.a_matrix_.value_ = []
        return lp

    def _wrap(
        self, highs, form: StandardForm, statistics: Dict[str, float]
    ) -> SolveResult:
        status = highs.getModelStatus()
        kind = _highspy.HighsModelStatus
        solution = highs.getSolution()
        has_point = bool(getattr(solution, "value_valid", True)) and len(
            getattr(solution, "col_value", ())
        ) == len(form.variables)

        self._record_mip_diagnostics(highs, form, statistics)

        if status == kind.kOptimal and has_point:
            solve_status = SolveStatus.OPTIMAL
        elif status == kind.kInfeasible:
            return SolveResult(status=SolveStatus.INFEASIBLE, statistics=statistics)
        elif status in (kind.kUnbounded, kind.kUnboundedOrInfeasible):
            return SolveResult(status=SolveStatus.UNBOUNDED, statistics=statistics)
        elif has_point:
            # A limit (time/node) interrupted the search with an incumbent.
            solve_status = SolveStatus.FEASIBLE
        else:
            return SolveResult(status=SolveStatus.ERROR, statistics=statistics)

        point = np.asarray(solution.col_value, dtype=float)
        values = {
            variable: float(value) for variable, value in zip(form.variables, point)
        }
        for position, flag in enumerate(form.integrality):
            if flag:
                variable = form.variables[position]
                values[variable] = float(round(values[variable]))
        objective = float(form.c @ point)
        if form.maximize:
            objective = -objective
        return SolveResult(
            status=solve_status,
            values=values,
            objective=objective,
            statistics=statistics,
        )

    @staticmethod
    def _record_mip_diagnostics(
        highs, form: StandardForm, statistics: Dict[str, float]
    ) -> None:
        """Copy node/bound/gap diagnostics off the solver, defensively."""
        info = highs.getInfo()
        nodes = getattr(info, "mip_node_count", None)
        if nodes is not None and nodes >= 0:
            statistics["nodes"] = float(nodes)
        bound = getattr(info, "mip_dual_bound", None)
        if bound is not None and np.isfinite(bound):
            statistics["best_bound"] = float(-bound if form.maximize else bound)
        gap = getattr(info, "mip_gap", None)
        if gap is not None and np.isfinite(gap):
            statistics["gap"] = float(gap)
