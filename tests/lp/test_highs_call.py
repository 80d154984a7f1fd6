"""The direct HiGHS call is the call SciPy's wrappers make.

``ScipySolver`` hands a form to HiGHS through ``run_highs``, not through
``scipy.optimize.milp`` / ``linprog``.  These properties hold it to the
wrappers on random small forms: a MIP to ``milp`` given the same two
options (``mip_rel_gap`` and the feasibility-jump switch, which ``milp``
forwards with a warning), a pure LP to ``linprog(method="highs")``, with
equal status, bit-equal ``x`` and objective, and the same node count and
dual bound — and on the component models of a seeded churn replay, where
HiGHS's answer does depend on how the model is laid out (row order moves
ties there, not on the small forms).
"""

import itertools
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro.lp import ScipySolver, SolveStatus
from repro.lp.scipy_backend import MIP_FEASIBILITY_JUMP, MIP_GAP
from tests.lp.forms import _form, _knapsack

_SCIPY_STATUSES = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def _through_the_wrapper(form):
    """``(status, x, objective, nodes, best_bound)`` as SciPy's wrapper
    reports them, integer columns rounded as the backend rounds them."""
    has_ub, has_eq = form.b_ub.size > 0, form.b_eq.size > 0
    if not form.integrality.any():
        outcome = optimize.linprog(
            c=form.c,
            A_ub=form.a_ub if has_ub else None,
            b_ub=form.b_ub if has_ub else None,
            A_eq=form.a_eq if has_eq else None,
            b_eq=form.b_eq if has_eq else None,
            bounds=np.column_stack((form.lower, form.upper)),
            method="highs",
        )
        nodes = bound = None
    else:
        constraints = []
        if has_ub:
            constraints.append(
                optimize.LinearConstraint(form.a_ub, -np.inf, form.b_ub)
            )
        if has_eq:
            constraints.append(optimize.LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
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
    result = ScipySolver().solve(form)
    assert result.status is status
    if x is None:
        assert result.x is None
        return
    assert result.x.tobytes() == x.tobytes()
    assert result.objective == objective
    if nodes is not None:
        assert result.statistics["nodes"] == nodes
        assert result.statistics["best_bound"] == bound


def _diamond(costs):
    """Columns s-a, a-t, s-b, b-t; equal branch costs are exact ties."""
    return _form(
        costs,
        a_eq=[
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ],
        b_eq=[0.0, 0.0, 1.0, 1.0],
        upper=1.0,
        integer=range(4),
    )


_small = st.integers(min_value=1, max_value=6)


class TestTheDirectCallIsTheWrappersCall:
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6),
        weights=st.lists(st.integers(min_value=1, max_value=8), min_size=6, max_size=6),
        budget=st.integers(min_value=0, max_value=20),
    )
    def test_knapsacks(self, values, weights, budget):
        _assert_same_call(_knapsack(values, weights[: len(values)], budget))

    @settings(max_examples=20, deadline=None)
    @given(costs=st.lists(_small, min_size=4, max_size=4))
    def test_diamond_shortest_paths(self, costs):
        _assert_same_call(_diamond(costs))

    def test_every_tied_diamond(self):
        for costs in itertools.product((1, 2), repeat=4):
            _assert_same_call(_diamond(costs))

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=3, max_value=5),
        data=st.data(),
    )
    def test_flow_forms_with_equality_rows(self, nodes, data):
        """One unit from node 0 to the last node over a random arc set, with
        a shared capacity row: flow conservation is the equality rows."""
        arcs = data.draw(
            st.lists(
                st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)).filter(
                    lambda arc: arc[0] != arc[1]
                ),
                min_size=2,
                max_size=8,
                unique=True,
            )
        )
        costs = data.draw(st.lists(_small, min_size=len(arcs), max_size=len(arcs)))
        loads = data.draw(st.lists(_small, min_size=len(arcs), max_size=len(arcs)))
        capacity = data.draw(st.integers(min_value=1, max_value=12))
        balance = [[0.0] * len(arcs) for _ in range(nodes)]
        for column, (tail, head) in enumerate(arcs):
            balance[tail][column] += 1.0
            balance[head][column] -= 1.0
        supply = [1.0] + [0.0] * (nodes - 2) + [-1.0]
        form = _form(
            costs,
            a_ub=[loads],
            b_ub=[capacity],
            a_eq=balance,
            b_eq=supply,
            upper=1.0,
            integer=range(len(arcs)),
        )
        _assert_same_call(form)

    @settings(max_examples=25, deadline=None)
    @given(
        columns=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_pure_lps(self, columns, data):
        """Against ``linprog``: bounded, infeasible and unbounded LPs."""
        entries = st.integers(min_value=-4, max_value=4).map(float)
        rows = data.draw(st.integers(min_value=0, max_value=3))
        form = _form(
            data.draw(st.lists(entries, min_size=columns, max_size=columns)),
            a_ub=[
                data.draw(st.lists(entries, min_size=columns, max_size=columns))
                for _ in range(rows)
            ],
            b_ub=data.draw(st.lists(entries, min_size=rows, max_size=rows)),
            upper=data.draw(st.sampled_from([2.0, 10.0, np.inf])),
        )
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
            assert ScipySolver().solve(form).status is status


def test_churn_component_models(component_solves):
    for form, _answer in component_solves["churn"]:
        _assert_same_call(form)
