"""The direct HiGHS call is the call SciPy's wrappers make.

``run_highs`` hands a form to HiGHS directly, not through
``scipy.optimize.milp`` / ``linprog``.  These properties hold it to the
wrappers on random small forms: a MIP to ``milp`` given the same two
options (``mip_rel_gap`` and the feasibility-jump switch, which ``milp``
forwards with a warning), a pure LP to ``linprog(method="highs")``, with
equal status, bit-equal ``x`` and objective, and the same node count and
dual bound — and on the component models of a seeded churn replay, where
HiGHS's answer does depend on how the model is laid out (row order moves
ties there, not on the small forms).  ``ScipySolver`` solves a MIP's
relaxation first and calls ``run_highs`` as a MIP only when that
relaxation is fractional; ``tests/lp/test_lp_first.py`` holds it to
``run_highs``.
"""

import itertools
import warnings

import numpy as np
from hypothesis import given, settings
from scipy import optimize

from repro.lp import SolveStatus
from repro.lp.scipy_backend import MIP_FEASIBILITY_JUMP, MIP_GAP, run_highs
from tests.lp.forms import (
    _diamond,
    _form,
    _knapsack,
    diamonds,
    flow_forms,
    knapsacks,
    pure_lps,
    split_rows,
)

_SCIPY_STATUSES = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def _through_the_wrapper(form):
    """``(status, x, objective, nodes, best_bound)`` as SciPy's wrapper
    reports them, integer columns rounded as the backend rounds them.  The
    wrapper is handed SciPy matrices rebuilt from the form's arrays."""
    a_ub, b_ub, a_eq, b_eq = split_rows(form)
    has_ub, has_eq = b_ub.size > 0, b_eq.size > 0
    if not form.integrality.any():
        outcome = optimize.linprog(
            c=form.c,
            A_ub=a_ub if has_ub else None,
            b_ub=b_ub if has_ub else None,
            A_eq=a_eq if has_eq else None,
            b_eq=b_eq if has_eq else None,
            bounds=np.column_stack((form.lower, form.upper)),
            method="highs",
        )
        nodes = bound = None
    else:
        constraints = []
        if has_ub:
            constraints.append(optimize.LinearConstraint(a_ub, -np.inf, b_ub))
        if has_eq:
            constraints.append(optimize.LinearConstraint(a_eq, b_eq, b_eq))
        with warnings.catch_warnings():
            # milp forwards an option it does not list, with a warning.
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome = optimize.milp(
                c=form.c,
                constraints=constraints,
                bounds=optimize.Bounds(form.lower, form.upper),
                integrality=form.integrality,
                options={
                    "mip_rel_gap": MIP_GAP,
                    "mip_heuristic_run_feasibility_jump": MIP_FEASIBILITY_JUMP,
                },
            )
        nodes, bound = outcome.mip_node_count, outcome.mip_dual_bound
    x = outcome.x
    if x is not None:
        integer = form.integrality.astype(bool)
        x[integer] = np.round(x[integer])
        status = SolveStatus.OPTIMAL if outcome.status == 0 else SolveStatus.FEASIBLE
    else:
        status = _SCIPY_STATUSES.get(outcome.status, SolveStatus.ERROR)
    return status, x, outcome.fun, nodes, bound


def _assert_same_call(form):
    status, x, objective, nodes, bound = _through_the_wrapper(form)
    result = run_highs(form)
    assert result.status is status
    if x is None:
        assert result.x is None
        return
    assert result.x.tobytes() == x.tobytes()
    assert result.objective == objective
    if nodes is not None:
        assert result.statistics["nodes"] == nodes
        assert result.statistics["best_bound"] == bound


class TestTheDirectCallIsTheWrappersCall:
    @settings(max_examples=25, deadline=None)
    @given(form=knapsacks())
    def test_knapsacks(self, form):
        _assert_same_call(form)

    @settings(max_examples=20, deadline=None)
    @given(form=diamonds())
    def test_diamond_shortest_paths(self, form):
        _assert_same_call(form)

    def test_every_tied_diamond(self):
        for costs in itertools.product((1, 2), repeat=4):
            _assert_same_call(_diamond(costs))

    @settings(max_examples=25, deadline=None)
    @given(form=flow_forms())
    def test_flow_forms_with_equality_rows(self, form):
        """Flow conservation is the equality rows."""
        _assert_same_call(form)

    @settings(max_examples=25, deadline=None)
    @given(form=pure_lps())
    def test_pure_lps(self, form):
        """Against ``linprog``: bounded, infeasible and unbounded LPs."""
        _assert_same_call(form)

    def test_every_status_is_reached(self):
        """The strategies above can reach each mapped status: pinned here."""
        forms = {
            SolveStatus.OPTIMAL: _knapsack([3, 4], [2, 2], 2),
            SolveStatus.INFEASIBLE: _form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=1.0),
            SolveStatus.UNBOUNDED: _form([-1.0]),
            SolveStatus.ERROR: _form([-1.0, -1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0], integer=[0]),
        }
        for status, form in forms.items():
            _assert_same_call(form)
            assert run_highs(form).status is status


def test_churn_component_models(component_solves):
    for form, _answer in component_solves["churn"]:
        _assert_same_call(form)
