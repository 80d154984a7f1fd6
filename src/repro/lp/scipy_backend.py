"""SciPy/HiGHS solver backend.

Forms are handed to HiGHS through the binding SciPy bundles
(``scipy.optimize._highspy._core``, the library SciPy's ``milp`` and
``linprog`` wrap).  HiGHS, like the Gurobi solver used in the paper, is an
exact branch-and-cut MIP solver, so the path assignments it produces satisfy
the same constraint system the paper describes.

:func:`run_highs` is the one call into HiGHS, for this backend's MIPs and
pure LPs and for the branch-and-bound backend's relaxations.  It hands the
arrays of a :class:`~repro.lp.model.StandardForm` to one ``HighsLp``
without stacking or converting a matrix: the form already holds what
``milp`` would build (the ``<=`` rows first, each with lower bound
``-inf``, then the ``=`` rows, one column-wise float64 matrix).  It runs
one fresh ``_Highs`` on it and reads the solution, the status and the MIP
diagnostics.  It skips the wrappers' per-column loops (the integrality
conversion, the bound marginals nobody here reads) and sets one option
they cannot set without a warning on every call: HiGHS's feasibility-jump
primal heuristic is off (:data:`MIP_FEASIBILITY_JUMP`).  On the small
component models the engine solves that heuristic was most of the solve;
turning it off changes which of several *exactly tied* optima HiGHS
returns, never the optimal objective.

:class:`ScipySolver` solves a MIP's LP relaxation first
(:func:`_relaxation_first`).  A relaxation vertex whose integer columns
are all integral to HiGHS's own tolerance is a feasible point of the MIP
that attains a lower bound on it, so it is an optimum: the backend keeps
it and skips branch-and-cut.  An infeasible relaxation proves the MIP
infeasible.  Anything else goes to :func:`run_highs` as a MIP, on a fresh
instance.

A ``_Highs`` is never reused: it keeps basis state between runs, and a
solve takes a model and nothing else.  A time limit reaches HiGHS on both
of this backend's paths, MIP and pure LP, and on both runs of a MIP: the
fallback gets what the relaxation left.  MIP diagnostics reported by
HiGHS (dual bound, node count) are surfaced in ``SolveResult.statistics``
under the keys the branch-and-bound backend uses (``nodes``,
``best_bound``, ``gap``), so callers can report the MIP gap of
``FEASIBLE`` (time-limited) solves uniformly; ``relaxation_settled`` says
whether the relaxation (1) or branch-and-cut (0) settled a MIP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core

from .. import telemetry
from .model import StandardForm
from .result import SolveResult, SolveStatus

#: Relative incumbent/bound gap at which HiGHS declares a MIP optimal.
MIP_GAP = 1e-6

#: Whether HiGHS runs its feasibility-jump primal heuristic before branching.
#: Off: on a component model that presolve cuts to a few rows it took
#: ~5 ms of a ~7 ms solve, and the models it serves here are solved to
#: proven optimality anyway.
MIP_FEASIBILITY_JUMP = False

#: How far an integer column of the relaxation may lie from an integer and
#: still count as integral: HiGHS's default ``mip_feasibility_tolerance``,
#: the tolerance its own branch-and-cut accepts an incumbent at.
INTEGRALITY_TOLERANCE = 1e-6

_COLUMN_KINDS = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)
_STATUSES = {
    _core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _core.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}
_LIMITS = (_core.HighsModelStatus.kTimeLimit, _core.HighsModelStatus.kIterationLimit)


def run_highs(
    form: StandardForm,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    relax: bool = False,
    time_limit_seconds: Optional[float] = None,
) -> SolveResult:
    """Solve ``form`` with one fresh HiGHS instance.

    ``lower`` / ``upper`` replace the form's column bounds (a
    branch-and-bound node's), and ``relax`` drops its integrality.  The
    status follows ``milp`` / ``linprog``: optimal is ``OPTIMAL``; a time
    or iteration limit hit with a MIP incumbent in hand is ``FEASIBLE``;
    infeasible (or a model HiGHS refuses) is ``INFEASIBLE``; unbounded is
    ``UNBOUNDED``; anything else — a limit hit without an incumbent,
    "unbounded or infeasible" — is ``ERROR``.  A MIP's integer columns are
    rounded, and its ``statistics`` carry ``nodes``, ``best_bound`` and
    ``gap``.
    """
    flags = form.integrality.astype(bool)
    integer = not relax and bool(flags.any())
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = form.c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = form.row_upper.size
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    # As lists: the binding converts Python numbers about twice as fast as
    # an array's elements (~30 us a call on a churn component).
    lp.col_cost_ = form.c.tolist()
    lp.col_lower_ = (form.lower if lower is None else lower).tolist()
    lp.col_upper_ = (form.upper if upper is None else upper).tolist()
    lp.row_lower_ = form.row_lower.tolist()
    lp.row_upper_ = form.row_upper.tolist()
    lp.a_matrix_.start_ = form.start.tolist()
    lp.a_matrix_.index_ = form.index.tolist()
    lp.a_matrix_.value_ = form.value.tolist()
    if integer:
        lp.integrality_ = [_COLUMN_KINDS[flag] for flag in flags.tolist()]

    highs = _core._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("mip_rel_gap", MIP_GAP)
    highs.setOptionValue("mip_heuristic_run_feasibility_jump", MIP_FEASIBILITY_JUMP)
    if time_limit_seconds is not None:
        highs.setOptionValue("time_limit", float(time_limit_seconds))
    if highs.passModel(lp) == _core.HighsStatus.kError:
        return SolveResult(status=SolveStatus.INFEASIBLE)
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUSES.get(model_status, SolveStatus.ERROR)
    if (
        integer
        and model_status in _LIMITS
        and info.objective_function_value != _core.kHighsInf
    ):
        status = SolveStatus.FEASIBLE
    if not status.has_solution:
        return SolveResult(status=status)
    x = np.array(highs.getSolution().col_value)
    objective = float(info.objective_function_value)
    result = SolveResult(status=status, x=x, objective=objective)
    if integer:
        # Snap integer columns that HiGHS returns with tiny numerical noise.
        x[flags] = np.round(x[flags])
        best_bound = float(info.mip_dual_bound)
        result.statistics.update(
            nodes=float(info.mip_node_count),
            best_bound=best_bound,
            gap=abs(objective - best_bound),
        )
    return result


class ScipySolver:
    """Solve standard forms with HiGHS, through SciPy's binding."""

    name = "scipy"

    def __init__(self, time_limit_seconds: Optional[float] = None) -> None:
        self.time_limit_seconds = time_limit_seconds

    def solve(self, form: StandardForm) -> SolveResult:
        """Solve the form, returning a :class:`SolveResult`."""
        started = telemetry.clock()
        if form.integrality.any():
            result = _relaxation_first(form, self.time_limit_seconds, started)
        else:
            result = run_highs(form, time_limit_seconds=self.time_limit_seconds)
        result.statistics["solve_seconds"] = telemetry.clock() - started
        result.statistics["num_variables"] = form.num_variables()
        result.statistics["num_integer_variables"] = int(form.integrality.sum())
        return result


def _relaxation_first(
    form: StandardForm, time_limit_seconds: Optional[float], started: float
) -> SolveResult:
    """Solve a MIP's relaxation, and branch only if the relaxation must.

    An optimal relaxation whose integer columns all lie within
    :data:`INTEGRALITY_TOLERANCE` of an integer is returned as the MIP's
    optimum, those columns snapped, with no nodes and no gap; an
    infeasible one is returned as it is.  Anything else is solved as a MIP
    by :func:`run_highs` — a fresh instance, nothing of the relaxation
    carried over — within what is left of ``time_limit_seconds`` (counted
    from ``started``); a limit the relaxation used up ends ``ERROR``.
    """
    relaxed = run_highs(form, relax=True, time_limit_seconds=time_limit_seconds)
    if relaxed.status is SolveStatus.INFEASIBLE:
        relaxed.statistics["relaxation_settled"] = 1.0
        return relaxed
    if relaxed.status is SolveStatus.OPTIMAL:
        flags = form.integrality.astype(bool)
        values = relaxed.x[flags]
        snapped = np.round(values)
        if np.all(np.abs(values - snapped) <= INTEGRALITY_TOLERANCE):
            relaxed.x[flags] = snapped
            relaxed.statistics.update(
                nodes=0.0,
                best_bound=relaxed.objective,
                gap=0.0,
                relaxation_settled=1.0,
            )
            return relaxed
    remaining = None
    if time_limit_seconds is not None:
        remaining = time_limit_seconds - (telemetry.clock() - started)
        if remaining <= 0.0:
            return SolveResult(
                status=SolveStatus.ERROR, statistics={"relaxation_settled": 0.0}
            )
    result = run_highs(form, time_limit_seconds=remaining)
    result.statistics["relaxation_settled"] = 0.0
    return result
