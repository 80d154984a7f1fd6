"""``ScipySolver`` solves a MIP's relaxation first and keeps it when integral.

An optimal relaxation vertex whose integer columns are integral is a MIP
optimum, and an infeasible relaxation proves the MIP infeasible; any other
relaxation falls back to the MIP call, ``run_highs(form)``.  These tests
hold the backend to that call on the random forms of ``tests/lp/forms.py``
and on every component model of the ``component_solves`` fixture: the same
status, the same objective (within half the form's objective resolution,
or 1e-9 relative where it declares none), integer columns exactly 0/1, no
nodes and no gap where the relaxation settled the form, the MIP call's
answer bit for bit where it did not, and no MIP call after an infeasible
relaxation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import ScipySolver, SolveStatus, scipy_backend
from repro.lp.scipy_backend import run_highs
from tests.lp.forms import _form, _knapsack, diamonds, flow_forms, knapsacks


def _solve_counting(form):
    """``ScipySolver().solve(form)`` and, per HiGHS run, whether it was the
    relaxation."""
    relaxed = []

    def counting(form, relax=False, **limits):
        relaxed.append(relax)
        return run_highs(form, relax=relax, **limits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "run_highs", counting)
        return ScipySolver().solve(form), relaxed


def _assert_contract(form, ours=None):
    """Hold the backend's answer (``ours``, or a fresh solve) to the MIP
    call's; return whether the relaxation settled the form."""
    relaxed = None
    if ours is None:
        ours, relaxed = _solve_counting(form)
    mip = run_highs(form)
    assert ours.status is mip.status
    settled = ours.statistics["relaxation_settled"] == 1.0
    if relaxed is not None:
        assert relaxed == ([True] if settled else [True, False])
    if run_highs(form, relax=True).status is SolveStatus.INFEASIBLE:
        # An infeasible relaxation is kept: the MIP is never called.
        assert settled
    if not mip.status.has_solution:
        assert ours.x is None
        return settled
    resolution = form.objective_resolution
    tolerance = (
        resolution / 2 if resolution else 1e-9 * max(1.0, abs(mip.objective))
    )
    assert abs(ours.objective - mip.objective) <= tolerance
    integer = ours.x[form.integrality.astype(bool)]
    assert np.isin(integer, (0.0, 1.0)).all()
    if settled:
        assert ours.status is SolveStatus.OPTIMAL
        assert ours.statistics["nodes"] == 0
        assert ours.statistics["gap"] == 0
        assert ours.statistics["best_bound"] == ours.objective
    else:
        assert ours.x.tobytes() == mip.x.tobytes()
        assert ours.objective == mip.objective
        assert ours.statistics["nodes"] == mip.statistics["nodes"]
        assert ours.statistics["best_bound"] == mip.statistics["best_bound"]
    return settled


@settings(max_examples=60, deadline=None)
@given(form=st.one_of(knapsacks(), diamonds(), flow_forms()))
def test_random_forms(form):
    _assert_contract(form)


def test_each_outcome_is_reached():
    """An integral, a fractional and an infeasible relaxation, pinned."""
    integral = _knapsack([3, 4], [2, 2], 4)
    fractional = _knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6)
    infeasible = _form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=1.0, integer=[0])
    assert _assert_contract(integral)
    assert not _assert_contract(fractional)
    assert _assert_contract(infeasible)
    assert _solve_counting(infeasible)[0].status is SolveStatus.INFEASIBLE


def test_component_models(component_solves):
    """Every component model of the churn replay and the two compiles."""
    settled = [
        _assert_contract(form, ours)
        for solves in component_solves.values()
        for form, ours in solves
    ]
    # Both outcomes occur on the models the workloads produce.
    assert any(settled) and not all(settled)
