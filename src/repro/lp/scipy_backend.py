"""SciPy/HiGHS solver backend.

Pure LPs are dispatched to ``scipy.optimize.linprog`` and models with integer
variables to ``scipy.optimize.milp`` — both are thin wrappers over the HiGHS
solver, which (like the Gurobi solver used in the paper) is an exact
branch-and-cut MIP solver, so the path assignments it produces satisfy the
same constraint system the paper describes.

The backend solves a sparse standard form
(:class:`~repro.lp.model.StandardForm`): HiGHS consumes CSR directly, and
the dense export of a large fat-tree provisioning MIP is memory-bound long
before the solver is CPU-bound.  A time limit reaches HiGHS on both paths.
MIP diagnostics reported by HiGHS (dual
bound, node count, relative gap) are surfaced in ``SolveResult.statistics``
under the same keys the branch-and-bound backend uses, so callers can report
the MIP gap of ``FEASIBLE`` (time-limited) solves uniformly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize

from .. import telemetry
from .model import Model, StandardForm
from .result import SolveResult, SolveStatus

#: Relative incumbent/bound gap at which HiGHS declares a MIP optimal.
MIP_GAP = 1e-6


class ScipySolver:
    """Solve standard forms with SciPy/HiGHS."""

    name = "scipy"

    def __init__(self, time_limit_seconds: Optional[float] = None) -> None:
        self.time_limit_seconds = time_limit_seconds

    def solve(self, form: StandardForm) -> SolveResult:
        """Solve the form, returning a :class:`SolveResult`."""
        started = telemetry.clock()
        if form.integrality.any():
            result = self._solve_milp(form)
        else:
            result = self._solve_lp(form)
        result.statistics["solve_seconds"] = telemetry.clock() - started
        result.statistics["num_variables"] = form.num_variables()
        result.statistics["num_integer_variables"] = int(form.integrality.sum())
        return result

    # -- internals -------------------------------------------------------------

    def _solve_lp(self, form: StandardForm) -> SolveResult:
        options = {}
        if self.time_limit_seconds is not None:
            options["time_limit"] = self.time_limit_seconds
        outcome = optimize.linprog(
            c=form.c,
            A_ub=form.a_ub if form.b_ub.size else None,
            b_ub=form.b_ub if form.b_ub.size else None,
            A_eq=form.a_eq if form.b_eq.size else None,
            b_eq=form.b_eq if form.b_eq.size else None,
            bounds=np.column_stack((form.lower, form.upper)),
            method="highs",
            options=options,
        )
        return self._wrap(form, outcome.status, outcome.x, outcome.fun)

    def _solve_milp(self, form: StandardForm) -> SolveResult:
        constraints = []
        if form.b_ub.size:
            constraints.append(
                optimize.LinearConstraint(
                    form.a_ub, -np.inf * np.ones(len(form.b_ub)), form.b_ub
                )
            )
        if form.b_eq.size:
            constraints.append(
                optimize.LinearConstraint(form.a_eq, form.b_eq, form.b_eq)
            )
        options = {"mip_rel_gap": MIP_GAP}
        if self.time_limit_seconds is not None:
            options["time_limit"] = self.time_limit_seconds
        outcome = optimize.milp(
            c=form.c,
            constraints=constraints,
            bounds=optimize.Bounds(form.lower, form.upper),
            integrality=form.integrality,
            options=options,
        )
        result = self._wrap(form, outcome.status, outcome.x, outcome.fun)
        self._record_mip_diagnostics(form, outcome, result)
        return result

    @staticmethod
    def _record_mip_diagnostics(
        form: StandardForm, outcome, result: SolveResult
    ) -> None:
        """Copy HiGHS branch-and-cut diagnostics into the result statistics.

        Keys mirror the pure-Python branch-and-bound backend: ``nodes``,
        ``best_bound`` (sign-adjusted for maximisation models), and ``gap``
        (absolute incumbent/bound distance).
        """
        nodes = getattr(outcome, "mip_node_count", None)
        if nodes is not None:
            result.statistics["nodes"] = float(nodes)
        bound = getattr(outcome, "mip_dual_bound", None)
        if bound is not None and result.objective is not None:
            best_bound = float(bound)
            if form.maximize:
                best_bound = -best_bound
            result.statistics["best_bound"] = best_bound
            result.statistics["gap"] = abs(result.objective - best_bound)

    @staticmethod
    def _wrap(form: StandardForm, status_code: int, solution, objective) -> SolveResult:
        # linprog and milp share status codes: 0 optimal, 1 iteration/time
        # limit, 2 infeasible, 3 unbounded.  A limit hit with an incumbent in
        # hand is a usable-but-unproven solution: FEASIBLE, not OPTIMAL; one
        # hit without (``x`` is None) proves nothing: ERROR.
        if status_code in (0, 1) and solution is not None:
            x = np.array(solution, dtype=float)
            # Snap integer columns that HiGHS returns with tiny numerical noise.
            integer = form.integrality.astype(bool)
            x[integer] = np.round(x[integer])
            objective_value = float(objective)
            if form.maximize:
                objective_value = -objective_value
            return SolveResult(
                status=SolveStatus.OPTIMAL if status_code == 0 else SolveStatus.FEASIBLE,
                x=x,
                objective=objective_value,
            )
        if status_code == 2:
            return SolveResult(status=SolveStatus.INFEASIBLE)
        if status_code == 3:
            return SolveResult(status=SolveStatus.UNBOUNDED)
        return SolveResult(status=SolveStatus.ERROR)


def solve(model: Model, **solver_options) -> SolveResult:
    """Convenience wrapper: solve ``model`` with a fresh :class:`ScipySolver`."""
    return model.solve(ScipySolver(**solver_options))
