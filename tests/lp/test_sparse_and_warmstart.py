"""Tests for the sparse standard form, the objective resolution the
branch-and-bound prunes by, and dangling variable references.

(The file and ``TestWarmStart`` keep their names for the test ids under
them; warm starts themselves are gone — a solve takes a model and nothing
else.)"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import (
    BranchAndBoundSolver,
    LinExpr,
    Model,
    ScipySolver,
    SolveStatus,
    Variable,
)


def _knapsack():
    model = Model()
    values = [10, 13, 7, 8]
    weights = [3, 4, 2, 3]
    xs = [model.add_binary(f"x{i}") for i in range(4)]
    model.add_constraint(LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= 6)
    model.add_constraint((xs[0] + xs[1] + xs[2] + xs[3]) <= 3)
    model.maximize(LinExpr.sum_of(v * x for v, x in zip(values, xs)))
    return model, xs


class TestSparseStandardForm:
    def test_sparse_matches_dense(self):
        model, _ = _knapsack()
        dense = model.to_standard_form()
        sparse = model.to_standard_form(sparse=True)
        assert isinstance(dense.a_ub, np.ndarray) and not isinstance(sparse.a_ub, np.ndarray)
        assert np.array_equal(sparse.a_ub.toarray(), dense.a_ub)
        assert np.array_equal(sparse.b_ub, dense.b_ub)
        assert np.array_equal(sparse.c, dense.c)
        assert np.array_equal(sparse.lower, dense.lower)
        assert np.array_equal(sparse.upper, dense.upper)

    def test_sparse_accumulates_duplicate_terms(self):
        # A variable appearing twice in one row must sum, exactly like the
        # dense np.add.at scatter.
        model = Model()
        x = model.add_continuous("x", 0, 10)
        expression = LinExpr().add_term(x, 1.0).add_term(x, 2.5)
        model.add_constraint(expression <= 7)
        model.minimize(x)
        dense = model.to_standard_form()
        sparse = model.to_standard_form(sparse=True)
        assert np.array_equal(sparse.a_ub.toarray(), dense.a_ub)
        assert dense.a_ub[0, 0] == 3.5

    def test_equality_rows_sparse(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint((x + y).equals(4))
        model.minimize(x - y)
        sparse = model.to_standard_form(sparse=True)
        assert sparse.a_eq.shape == (1, 2)
        assert np.array_equal(sparse.a_eq.toarray(), [[1.0, 1.0]])

    def test_branch_and_bound_consumes_sparse_form_end_to_end(self):
        """The B&B backend uses the sparse export for its relaxations."""
        model, _ = _knapsack()
        sparse_result = model.solve(BranchAndBoundSolver())
        assert sparse_result.status is SolveStatus.OPTIMAL
        assert sparse_result.objective == 20.0

    def test_milp_diagnostics_surfaced(self):
        model, _ = _knapsack()
        result = model.solve(ScipySolver())
        assert result.status is SolveStatus.OPTIMAL
        assert "nodes" in result.statistics
        assert result.statistics.get("best_bound") == pytest.approx(20.0)
        assert result.statistics.get("gap") == pytest.approx(0.0, abs=1e-6)


class TestWarmStart:
    """What is left under this name: the objective resolution."""

    def test_declared_resolution_keeps_an_incumbent_from_pruning_a_better_near_tie(self):
        """The search meets x=0 (objective 0.5 + 1e-9) before x=1 (0.5).
        Inside the default 1e-6 gap the first incumbent prunes the better
        one; with the resolution declared (as the provisioning builder
        does for min-max models) the gap scales below it."""
        def near_tie():
            model = Model()
            x = model.add_binary("x")
            t = model.add_continuous("t", lower=0.0)
            model.add_constraint(t + x >= 0.5)
            model.add_constraint(t - x >= -0.5)
            model.minimize(LinExpr.weighted_sum([(t, 1.0), (x, -1e-9)], constant=1e-9))
            return model

        model = near_tie()
        assert model.solve(BranchAndBoundSolver()).values_by_name()["x"] == 0.0
        model = near_tie()
        model.objective_resolution = 1e-9
        result = model.solve(BranchAndBoundSolver())
        assert result.status is SolveStatus.OPTIMAL
        assert result.values_by_name()["x"] == 1.0

    def test_provisioning_models_declare_objective_resolution(self):
        """The min-max provisioning objectives publish their tiebreaker
        epsilon so gap-based solvers can scale below it."""
        from repro.core.localization import localize
        from repro.core.logical import build_logical_topology, infer_endpoints
        from repro.core.parser import parse_policy
        from repro.core.provisioning import build_provisioning_model
        from repro.topology.generators import figure2_example
        from repro.units import Bandwidth

        topology = figure2_example(capacity=Bandwidth.gbps(2))
        policy = parse_policy(
            """
            [ z : (eth.src = 00:00:00:00:00:01 and
                   eth.dst = 00:00:00:00:00:02) -> .* ],
            min(z, 50MB/s)
            """,
            topology=topology,
        )
        rates = localize(policy)
        statement = policy.statements[0]
        source, destination = infer_endpoints(statement, topology)
        logical = {
            "z": build_logical_topology(
                statement, topology, {}, source=source, destination=destination
            )
        }
        form = build_provisioning_model([statement], logical, rates, topology).model
        resolution = form.objective_resolution
        assert resolution is not None and resolution > 0.0
        # The declared resolution IS the per-edge tiebreaker coefficient.
        tiebreaker_coefficients = set(form.c[: form.layout.r_max].tolist())
        assert tiebreaker_coefficients == {resolution}


class TestDangling:
    """A row or objective over a variable the model never registered (built
    from another model's variable, say) is refused at export, not solved
    with the term silently dropped."""

    def test_dangling_reference_caught_at_export(self):
        model = Model()
        x = model.add_binary("x")
        model.add_constraint(x + Variable("y") <= 1)
        with pytest.raises(SolverError, match="constraint references"):
            model.to_standard_form()

    def test_dangling_objective_reference_caught_at_export(self):
        model = Model()
        x = model.add_binary("x")
        model.minimize(x + Variable("y"))
        with pytest.raises(SolverError, match="objective references"):
            model.to_standard_form()
