"""The solver-backend layer: protocol, the three names, primal heuristic."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.lp import (
    BACKENDS,
    BranchAndBoundSolver,
    PrimalHeuristicSolver,
    ScipySolver,
    SolverBackend,
    backend_name,
    create_backend,
    resolve_backend,
)
from repro.lp.model import PathLayout
from repro.lp.result import SolveStatus
from repro.topology.generators import fat_tree, figure2_example
from repro.units import Bandwidth
from tests.lp.forms import _form


def _knapsack():
    """max 10a+13b+7c+8d st 3a+4b+2c+3d<=6, a+b+c+d<=3 (optimum 20), as
    the minimisation of the negated value."""
    return _form(
        [-10.0, -13.0, -7.0, -8.0],
        a_ub=[[3.0, 4.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]],
        b_ub=[6.0, 3.0],
        upper=1.0,
        integer=range(4),
    )


def _provisioning_model(topology=None, demands=(("h1", "h2", 400),)):
    """A real provisioning MIP: one guaranteed ``.*`` statement per
    ``(source host, destination host, Mbps)`` demand, tightened at the
    default slack as the solve loop would (figure-2 topology and one
    50 MB/s statement by default)."""
    from repro.core.localization import localize
    from repro.core.logical import (
        build_logical_topology,
        infer_endpoints,
        prune_to_cost_bound,
    )
    from repro.core.options import DEFAULT_FOOTPRINT_SLACK
    from repro.core.parser import parse_policy
    from tests.reference_provisioning import array_model_over_topology

    if topology is None:
        topology = figure2_example(capacity=Bandwidth.gbps(2))
    statements = " ; ".join(
        f"g{index} : (eth.src = {topology.node(source).mac} and "
        f"eth.dst = {topology.node(destination).mac} and "
        f"tcp.dst = {8000 + index}) -> .*"
        for index, (source, destination, _mbps) in enumerate(demands)
    )
    clauses = " and ".join(
        f"min(g{index}, {Bandwidth.mbps(mbps).policy_literal()})"
        for index, (_source, _destination, mbps) in enumerate(demands)
    )
    policy = parse_policy(f"[ {statements} ], {clauses}", topology=topology)
    logical = {}
    for statement in policy.statements:
        source, destination = infer_endpoints(statement, topology)
        logical[statement.identifier] = prune_to_cost_bound(
            build_logical_topology(
                statement, topology, {}, source=source, destination=destination
            ),
            DEFAULT_FOOTPRINT_SLACK,
        )
    return array_model_over_topology(
        list(policy.statements), logical, localize(policy), topology
    )


class TestCapabilities:
    def test_registered_backends_declare_the_protocol(self):
        for name in BACKENDS:
            backend = create_backend(name)
            assert isinstance(backend, SolverBackend)
            assert backend.name == name
            assert backend_name(backend) == name

    def test_an_undeclared_name_is_the_class_name(self):
        """A third-party backend needs ``solve(form)`` and nothing else."""

        class Mystery:
            def solve(self, form):
                raise NotImplementedError

        assert backend_name(Mystery()) == "Mystery"

    def test_none_reports_the_default_backend(self):
        assert backend_name(None) == "scipy"

    def test_a_solve_takes_a_model_and_nothing_else(self):
        """No backend has a second parameter to be handed a start through."""
        for name in BACKENDS:
            with pytest.raises(TypeError):
                create_backend(name).solve(_knapsack(), {"x0": 1.0})


class TestRegistry:
    def test_known_names(self):
        assert BACKENDS == ("scipy", "bnb", "heuristic")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(SolverError, match="backends: scipy, bnb, heuristic"):
            create_backend("simplex2000")

    def test_limits_reach_the_factory(self):
        backend = create_backend("bnb", time_limit_seconds=2.5, node_limit=99)
        assert backend.time_limit_seconds == 2.5
        assert backend.max_nodes == 99
        for name in BACKENDS:
            assert create_backend(name, time_limit_seconds=2.5).time_limit_seconds == 2.5

    @pytest.mark.parametrize("name", ["scipy", "heuristic"])
    def test_a_node_limit_is_refused_by_a_backend_that_cannot_bound_its_search(
        self, name
    ):
        with pytest.raises(SolverError, match='solver="bnb"'):
            create_backend(name, node_limit=1)

    def test_resolve_defaults_follow_the_limits(self):
        assert isinstance(resolve_backend(None), ScipySolver)
        assert isinstance(resolve_backend(None, node_limit=5), BranchAndBoundSolver)

    def test_resolve_returns_instances_by_identity(self):
        backend = BranchAndBoundSolver(max_nodes=7)
        assert resolve_backend(backend, node_limit=1000) is backend


@st.composite
def _demand_sets(draw):
    """A topology and 1-4 guaranteed host-to-host demands on it."""
    topology = draw(
        st.sampled_from([figure2_example(capacity=Bandwidth.gbps(1)), fat_tree(4)])
    )
    hosts = topology.host_names()
    demands = draw(
        st.lists(
            st.tuples(
                st.sampled_from(hosts),
                st.sampled_from(hosts),
                # Just past the 1 Gbps line rate: one demand can be
                # infeasible alone, several sharing a link often are.
                st.integers(min_value=1, max_value=41).map(lambda n: 25 * n),
            ).filter(lambda demand: demand[0] != demand[1]),
            min_size=1,
            max_size=4,
        )
    )
    return topology, demands


class TestBackendsAgree:
    """The three names against each other on generated provisioning models."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=_demand_sets())
    def test_exact_backends_agree_and_the_heuristic_is_no_better(self, drawn):
        topology, demands = drawn
        model = _provisioning_model(topology, demands).model
        resolution = model.objective_resolution
        scipy, bnb, heuristic = (
            create_backend(name).solve(model) for name in BACKENDS
        )

        assert scipy.status is bnb.status
        assert scipy.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        if scipy.status is SolveStatus.INFEASIBLE:
            # A heuristic cannot prove infeasibility, only fail to find.
            assert heuristic.status is SolveStatus.ERROR
            return
        assert abs(scipy.objective - bnb.objective) <= resolution

        assert heuristic.status in (SolveStatus.FEASIBLE, SolveStatus.ERROR)
        if heuristic.status is SolveStatus.FEASIBLE:
            x = heuristic.x
            assert np.allclose(model.a_eq @ x, model.b_eq, atol=1e-6)
            assert (model.a_ub @ x <= model.b_ub + 1e-6).all()
            assert (model.lower - 1e-9 <= x).all() and (x <= model.upper + 1e-9).all()
            assert heuristic.objective == pytest.approx(model.c @ x)
            best = min(scipy.objective, bnb.objective)
            assert heuristic.objective >= best - resolution


class TestPrimalHeuristic:
    def test_rejects_non_provisioning_models(self):
        with pytest.raises(SolverError, match="provisioning path model"):
            PrimalHeuristicSolver().solve(_knapsack())

    def test_rejects_a_layout_the_arrays_do_not_have(self):
        """The layout is cross-checked, not trusted: a knapsack claiming
        to be one statement's edges has no flow rows to decode."""
        form = _knapsack()
        for layout in (
            PathLayout(members=((0, 4),), r_max=4),
            PathLayout(members=((0, 2),), r_max=2),
        ):
            with pytest.raises(SolverError, match="provisioning path model"):
                PrimalHeuristicSolver().solve(dataclasses.replace(form, layout=layout))

    def test_feasible_on_provisioning_model(self):
        form = _provisioning_model().model
        result = PrimalHeuristicSolver().solve(form)
        assert result.status is SolveStatus.FEASIBLE
        # A full assignment: every column valued, one path selected.
        assert result.x.shape == (form.num_variables(),)
        assert result.x[form.layout.r_max] <= 1.0 + 1e-9
        ((start, stop),) = form.layout.members
        assert result.x[start:stop].any()

    def test_repeated_solves_are_identical(self):
        form = _provisioning_model().model
        first = PrimalHeuristicSolver().solve(form)
        second = PrimalHeuristicSolver().solve(form)
        assert first.x.tobytes() == second.x.tobytes()
        assert first.objective == second.objective
