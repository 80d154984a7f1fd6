"""Turning HiGHS's feasibility-jump heuristic off moves ties, never the optimum.

``scipy_backend.MIP_FEASIBILITY_JUMP`` is off.  With it on (SciPy's ``milp``
at its default options) HiGHS may return another of several exactly tied
optima; this test holds the direct MIP call, ``run_highs``, to it: the
same status, the same objective within half the form's objective
resolution, and the same ``r_max`` on every component model of a seeded
churn replay and of the first ``compile-guaranteed`` and
``compile-campus-default`` policies at seed 1 (the ``component_solves``
fixture of ``tests/lp/conftest.py``).
"""

import numpy as np
from scipy import optimize

from repro.lp import SolveStatus
from repro.lp.scipy_backend import run_highs
from tests.lp.forms import split_rows

_SCIPY_STATUSES = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def test_the_heuristic_switch_moves_ties_never_the_optimum(component_solves):
    solves = component_solves["churn"] + component_solves["compile"]
    assert len(solves) >= 80
    for form, _answer in solves:
        ours = run_highs(form)
        a_ub, b_ub, a_eq, b_eq = split_rows(form)
        constraints = [optimize.LinearConstraint(a_ub, -np.inf, b_ub)]
        if b_eq.size:
            constraints.append(optimize.LinearConstraint(a_eq, b_eq, b_eq))
        default = optimize.milp(
            c=form.c,
            constraints=constraints,
            bounds=optimize.Bounds(form.lower, form.upper),
            integrality=form.integrality,
        )
        status = _SCIPY_STATUSES.get(default.status, SolveStatus.ERROR)
        assert ours.status is status
        if not status.has_solution:
            continue
        assert abs(ours.objective - default.fun) <= form.objective_resolution / 2
        r_max = form.layout.r_max
        assert ours.x[r_max] == default.x[r_max]
