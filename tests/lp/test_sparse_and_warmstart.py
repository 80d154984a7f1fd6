"""Tests for the sparse standard form, warm starts, and model row removal."""

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
        assert sparse.bounds == dense.bounds

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
        """The B&B backend uses the sparse export for its relaxations (and
        warm-start validation)."""
        model, _ = _knapsack()
        sparse_result = BranchAndBoundSolver().solve(model)
        assert sparse_result.objective == 20.0
        # Warm-start validation multiplies the (sparse) matrices too.
        start = {name: value for name, value in sparse_result.values_by_name().items()}
        warm = BranchAndBoundSolver().solve(model, warm_start=start)
        assert warm.statistics["warm_start_used"] == 1.0

    def test_milp_diagnostics_surfaced(self):
        model, _ = _knapsack()
        result = ScipySolver().solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert "nodes" in result.statistics
        assert result.statistics.get("best_bound") == pytest.approx(20.0)
        assert result.statistics.get("gap") == pytest.approx(0.0, abs=1e-6)


class TestWarmStart:
    def test_valid_start_seeds_incumbent(self):
        model, _ = _knapsack()
        optimal = ScipySolver().solve(model)
        start = optimal.values_by_name()
        result = BranchAndBoundSolver().solve(model, warm_start=start)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(optimal.objective)
        assert result.statistics["warm_start_used"] == 1.0

    def test_infeasible_start_rejected_not_trusted(self):
        model, _ = _knapsack()
        # Selecting every item violates the weight budget.
        bad = {f"x{i}": 1.0 for i in range(4)}
        result = BranchAndBoundSolver().solve(model, warm_start=bad)
        assert result.statistics["warm_start_rejected"] == 1.0
        assert result.objective == pytest.approx(20.0)

    def test_fractional_start_rejected_for_integers(self):
        model, _ = _knapsack()
        result = BranchAndBoundSolver().solve(
            model, warm_start={"x0": 0.5, "x1": 0.0, "x2": 0.0, "x3": 0.0}
        )
        assert result.statistics["warm_start_rejected"] == 1.0

    def test_warm_and_cold_solves_pick_identical_tiebreaker_optima(self):
        """The warm-start determinism fix: when the model declares its
        objective resolution (the tiebreaker epsilon) below the solver's
        default absolute gap, a seeded incumbent that is optimal-but-for-
        the-tiebreaker must not shadow the strictly better tie."""
        def tie_model():
            model = Model()
            x = model.add_binary("x")
            model.minimize(LinExpr.sum_of([1e-9 * x]))
            return model, x

        # Without a declared resolution, the 1e-9-worse incumbent survives
        # inside the default 1e-6 gap: warm diverges from cold.
        model, x = tie_model()
        stale = BranchAndBoundSolver().solve(model, warm_start={"x": 1.0})
        assert stale.values_by_name()["x"] == 1.0

        # With the resolution declared (as set_provisioning_objective does
        # for min-max models), the gap scales below the epsilon and the
        # warm solve finds the same optimum as a cold one.
        model, x = tie_model()
        model.objective_resolution = 1e-9
        cold = BranchAndBoundSolver().solve(model)
        warm = BranchAndBoundSolver().solve(model, warm_start={"x": 1.0})
        assert warm.statistics["warm_start_used"] == 1.0
        assert cold.values_by_name()["x"] == 0.0
        assert warm.values_by_name() == cold.values_by_name()

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
        built = build_provisioning_model([statement], logical, rates, topology)
        resolution = built.model.objective_resolution
        assert resolution is not None and resolution > 0.0
        # The declared resolution IS the per-edge tiebreaker coefficient.
        tiebreaker_coefficients = {
            coefficient
            for variable, coefficient in built.model.objective.coefficients.items()
            if variable is not built.r_max
        }
        assert len(tiebreaker_coefficients) == 1
        assert next(iter(tiebreaker_coefficients)) == pytest.approx(resolution)

    def test_model_solve_passes_warm_start_through(self):
        model, _ = _knapsack()
        start = ScipySolver().solve(model).values_by_name()
        result = model.solve(BranchAndBoundSolver(), warm_start=start)
        assert result.statistics["warm_start_used"] == 1.0

    def test_start_with_unbounded_variable_rejected(self):
        """A warm start omitting a variable whose lower bound is -inf must
        be rejected, not seeded as a -inf/NaN incumbent that disables
        pruning."""
        import math

        model = Model()
        x = model.add_binary("x")
        y = model.add_continuous("y", lower=-math.inf)
        model.add_constraint(y.to_expr() >= -5.0)
        model.add_constraint(x + y <= 10.0)
        model.minimize(y + x)
        result = model.solve(BranchAndBoundSolver(), warm_start={"x": 1.0})
        assert result.statistics["warm_start_rejected"] == 1.0
        assert result.objective == pytest.approx(-5.0)

    def test_warm_start_capability_flags(self):
        """The incremental engine skips incumbent projection for backends
        that cannot consume MIP starts (the default scipy backend).  The
        one documented default for third-party backends: an undeclared
        capability is absent — declare ``consumes_warm_starts = True`` to
        receive starts."""
        from repro.lp import PrimalHeuristicSolver, consumes_warm_starts

        assert not consumes_warm_starts(None)
        assert not consumes_warm_starts(ScipySolver())
        assert consumes_warm_starts(BranchAndBoundSolver())
        assert consumes_warm_starts(PrimalHeuristicSolver())

        class UnknownBackend:  # third-party, declares nothing: no starts
            def solve(self, model):
                raise NotImplementedError

        class DeclaringBackend(UnknownBackend):
            consumes_warm_starts = True

        assert not consumes_warm_starts(UnknownBackend())
        assert consumes_warm_starts(DeclaringBackend())

    def test_model_solve_gates_start_on_declared_capability(self):
        """``Model.solve`` consults the same capability flag (no more
        ``inspect.signature`` probing): an undeclared backend is called
        without the keyword even when a start is supplied."""
        model, _ = _knapsack()
        calls = {}

        class ProbeBackend:  # would crash if handed warm_start
            def solve(self, solved_model):
                calls["warm_start"] = False
                return ScipySolver().solve(solved_model)

        result = model.solve(ProbeBackend(), warm_start={"x0": 1.0})
        assert calls == {"warm_start": False}
        assert result.objective == pytest.approx(20.0)
        # The scipy backend takes no start at all; the same gate covers it.
        for solver in (None, ScipySolver()):
            gated = model.solve(solver, warm_start={"x0": 1.0})
            assert gated.objective == pytest.approx(20.0)


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
