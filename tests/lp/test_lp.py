"""Tests for the LP/MIP modelling layer and both solver backends."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.lp import (
    BranchAndBoundSolver,
    Constraint,
    LinExpr,
    Model,
    Objective,
    ScipySolver,
    Sense,
    SolveStatus,
    Variable,
    solve,
)


class TestExpressions:
    def test_variable_arithmetic(self):
        x = Variable("x")
        y = Variable("y")
        expression = 2 * x + 3 * y + 1 - x
        assert expression.coefficients[x] == 1.0
        assert expression.coefficients[y] == 3.0
        assert expression.constant == 1.0

    def test_negation_and_subtraction(self):
        x = Variable("x")
        expression = 5 - x
        assert expression.constant == 5.0
        assert expression.coefficients[x] == -1.0

    def test_sum_of(self):
        xs = [Variable(f"x{i}") for i in range(4)]
        expression = LinExpr.sum_of(xs)
        assert all(expression.coefficients[x] == 1.0 for x in xs)

    def test_value_evaluation(self):
        x, y = Variable("x"), Variable("y")
        expression = 2 * x + y + 3
        assert expression.value({x: 1.0, y: 2.0}) == 7.0

    def test_scaling_by_non_number_rejected(self):
        with pytest.raises(TypeError):
            Variable("x").to_expr() * Variable("y")

    def test_constraint_construction(self):
        x = Variable("x")
        constraint = x + 2 <= 5
        assert isinstance(constraint, Constraint)
        assert constraint.sense is Sense.LESS_EQUAL
        assert constraint.satisfied({x: 3.0})
        assert not constraint.satisfied({x: 4.0})

    def test_constraint_violation_measure(self):
        x = Variable("x")
        constraint = x >= 4
        assert constraint.violation({x: 1.0}) == pytest.approx(3.0)
        assert constraint.violation({x: 5.0}) == 0.0

    def test_equality_constraint(self):
        x = Variable("x")
        constraint = (x + 1).equals(3)
        assert constraint.sense is Sense.EQUAL
        assert constraint.satisfied({x: 2.0})


class TestModel:
    def test_duplicate_variable_rejected(self):
        model = Model()
        model.add_variable("x")
        with pytest.raises(SolverError):
            model.add_variable("x")

    def test_unknown_variable_lookup_rejected(self):
        with pytest.raises(SolverError):
            Model().variable("missing")

    def test_standard_form_shapes(self):
        model = Model()
        x = model.add_binary("x")
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y <= 5)
        model.add_constraint((x + y).equals(2))
        model.maximize(x + 2 * y)
        form = model.to_standard_form()
        assert form.a_ub.shape == (1, 2)
        assert form.a_eq.shape == (1, 2)
        assert list(form.integrality) == [1, 0]
        assert form.maximize

    def test_constraint_with_foreign_variable_rejected(self):
        model = Model()
        model.add_variable("x")
        stranger = Variable("y")
        model.add_constraint(stranger <= 1)
        with pytest.raises(SolverError):
            model.to_standard_form()

    def test_counts(self):
        model = Model()
        model.add_binary("x")
        model.add_continuous("y")
        model.add_constraint(model.variable("x") <= 1)
        assert model.num_variables() == 2
        assert model.num_integer_variables() == 1
        assert model.num_constraints() == 1


class TestScipySolver:
    def test_pure_lp(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y <= 8)
        model.maximize(3 * x + y)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(24.0)
        assert result.value_of(x) == pytest.approx(8.0)
        assert result.value_of(y) == pytest.approx(0.0)

    def test_knapsack_mip(self):
        values = [10, 13, 7, 8]
        weights = [3, 4, 2, 3]
        model = Model()
        xs = [model.add_binary(f"x{i}") for i in range(4)]
        model.add_constraint(LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= 6)
        model.maximize(LinExpr.sum_of(v * x for v, x in zip(values, xs)))
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(20.0)  # items 1 and 2 (13 + 7)

    def test_infeasible(self):
        model = Model()
        x = model.add_continuous("x", 0, 1)
        model.add_constraint(x >= 2)
        model.minimize(x)
        assert model.solve().status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        model = Model()
        x = model.add_continuous("x", 0, math.inf)
        model.maximize(x)
        assert model.solve().status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_minimization(self):
        model = Model()
        x = model.add_continuous("x", 2, 10)
        model.minimize(x)
        assert model.solve().objective == pytest.approx(2.0)

    def test_statistics_recorded(self):
        model = Model()
        x = model.add_binary("x")
        model.maximize(x)
        result = solve(model)
        assert "solve_seconds" in result.statistics
        assert result.statistics["num_variables"] == 1

    def test_shortest_path_as_mip(self):
        # A 4-node diamond: the MIP should pick the cheaper branch.
        edges = {("s", "a"): 1, ("a", "t"): 1, ("s", "b"): 2, ("b", "t"): 2}
        model = Model()
        xs = {edge: model.add_binary(f"x_{edge[0]}{edge[1]}") for edge in edges}
        for node in ("a", "b"):
            inflow = LinExpr.sum_of(xs[e] for e in edges if e[1] == node)
            outflow = LinExpr.sum_of(xs[e] for e in edges if e[0] == node)
            model.add_constraint((outflow - inflow).equals(0))
        model.add_constraint(
            LinExpr.sum_of(xs[e] for e in edges if e[0] == "s").equals(1)
        )
        model.add_constraint(
            LinExpr.sum_of(xs[e] for e in edges if e[1] == "t").equals(1)
        )
        model.minimize(LinExpr.sum_of(cost * xs[e] for e, cost in edges.items()))
        result = model.solve()
        assert result.objective == pytest.approx(2.0)
        assert result.value_of(xs[("s", "a")]) == 1.0


class TestScipyTimeLimit:
    """A time limit is honoured or refused, never dropped — on the pure-LP
    path too, which used to call ``linprog`` without any options."""

    @staticmethod
    def _lp():
        model = Model()
        x = model.add_continuous("x", 0, 10)
        model.maximize(x)
        return model

    def _captured_linprog(self, monkeypatch, status=0, x=(10.0,)):
        from repro.lp import scipy_backend

        captured = []

        def linprog(**kwargs):
            captured.append(kwargs)
            return SimpleNamespace(
                status=status, x=None if x is None else np.array(x), fun=-10.0
            )

        monkeypatch.setattr(scipy_backend.optimize, "linprog", linprog)
        return captured

    def test_the_limit_reaches_linprog(self, monkeypatch):
        captured = self._captured_linprog(monkeypatch)
        assert self._lp().solve(ScipySolver(time_limit_seconds=2.5)).status is (
            SolveStatus.OPTIMAL
        )
        assert captured[0]["options"] == {"time_limit": 2.5}

    def test_no_limit_passes_no_option(self, monkeypatch):
        captured = self._captured_linprog(monkeypatch)
        self._lp().solve(ScipySolver())
        assert captured[0]["options"] == {}

    def test_a_limit_hit_without_a_solution_is_an_error(self, monkeypatch):
        """At the limit linprog reports status 1 with ``x`` None: no
        solution and no proof."""
        self._captured_linprog(monkeypatch, status=1, x=None)
        result = self._lp().solve(ScipySolver(time_limit_seconds=0.001))
        assert result.status is SolveStatus.ERROR
        assert result.x is None and not result.values

    def test_a_limit_hit_with_a_solution_is_feasible(self, monkeypatch):
        self._captured_linprog(monkeypatch, status=1)
        result = self._lp().solve(ScipySolver(time_limit_seconds=0.001))
        assert result.status is SolveStatus.FEASIBLE
        assert result.objective == 10.0


class TestBranchAndBound:
    def test_agrees_with_scipy_on_knapsack(self):
        model = Model()
        values = [6, 5, 4, 3, 2]
        weights = [4, 3, 2, 2, 1]
        xs = [model.add_binary(f"x{i}") for i in range(5)]
        model.add_constraint(LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= 7)
        model.maximize(LinExpr.sum_of(v * x for v, x in zip(values, xs)))
        scipy_result = model.solve(ScipySolver())
        bb_result = model.solve(BranchAndBoundSolver())
        assert bb_result.status is SolveStatus.OPTIMAL
        assert bb_result.objective == pytest.approx(scipy_result.objective)

    def test_integer_infeasible_detected(self):
        model = Model()
        x = model.add_variable("x", lower=0, upper=10, is_integer=True)
        model.add_constraint(2 * x >= 3)
        model.add_constraint(2 * x <= 3)
        model.minimize(x)
        assert model.solve(BranchAndBoundSolver()).status is SolveStatus.INFEASIBLE

    def test_pure_lp_falls_through(self):
        model = Model()
        x = model.add_continuous("x", 0, 4)
        model.maximize(x)
        result = model.solve(BranchAndBoundSolver())
        assert result.objective == pytest.approx(4.0)

    def test_node_statistics(self):
        model = Model()
        xs = [model.add_binary(f"x{i}") for i in range(3)]
        model.add_constraint(LinExpr.sum_of(xs) <= 2)
        model.maximize(LinExpr.sum_of((i + 1) * x for i, x in enumerate(xs)))
        result = model.solve(BranchAndBoundSolver())
        assert result.statistics["nodes"] >= 1
        assert result.objective == pytest.approx(5.0)


class TestSolverCrossCheckProperties:
    """The two backends (and brute force) agree on random small knapsacks."""

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=5),
        weights=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=5),
        budget=st.integers(min_value=1, max_value=16),
    )
    def test_backends_match_brute_force(self, values, weights, budget):
        size = min(len(values), len(weights))
        values, weights = values[:size], weights[:size]

        model = Model()
        xs = [model.add_binary(f"x{i}") for i in range(size)]
        model.add_constraint(
            LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= budget
        )
        model.maximize(LinExpr.sum_of(v * x for v, x in zip(values, xs)))

        brute = max(
            (
                sum(v for v, chosen in zip(values, combo) if chosen)
                for combo in itertools.product([0, 1], repeat=size)
                if sum(w for w, chosen in zip(weights, combo) if chosen) <= budget
            ),
            default=0,
        )
        scipy_result = model.solve(ScipySolver())
        bb_result = model.solve(BranchAndBoundSolver())
        assert scipy_result.objective == pytest.approx(brute)
        assert bb_result.objective == pytest.approx(brute)


class TestInPlaceAccumulation:
    """The in-place LinExpr growth API used on the MIP construction hot path."""

    def test_add_term_matches_operator_add(self):
        xs = [Variable(f"x{i}") for i in range(6)]
        grown = LinExpr()
        for i, x in enumerate(xs):
            grown.add_term(x, float(i + 1))
        operator_built = LinExpr.sum_of((i + 1) * x for i, x in enumerate(xs))
        assert grown.coefficients == operator_built.coefficients
        assert grown.constant == operator_built.constant

    def test_add_term_accumulates_duplicates(self):
        x = Variable("x")
        expression = LinExpr().add_term(x, 1.5).add_term(x, 2.5)
        assert expression.coefficients[x] == 4.0

    def test_add_term_returns_self(self):
        x = Variable("x")
        expression = LinExpr()
        assert expression.add_term(x) is expression

    def test_weighted_sum(self):
        xs = [Variable(f"x{i}") for i in range(4)]
        pairs = [(x, float(i)) for i, x in enumerate(xs)]
        expression = LinExpr.weighted_sum(pairs, constant=7.0)
        assert expression.constant == 7.0
        assert all(expression.coefficients[x] == float(i) for i, x in enumerate(xs))

    def test_add_handles_expressions_variables_and_numbers(self):
        x, y = Variable("x"), Variable("y")
        expression = LinExpr()
        expression.add(x).add(2.0).add(3 * y + 1)
        assert expression.coefficients == {x: 1.0, y: 3.0}
        assert expression.constant == 3.0

    def test_add_constant(self):
        expression = LinExpr().add_constant(2).add_constant(0.5)
        assert expression.constant == 2.5


class TestSolverInterruption:
    """Regression tests: interrupted searches must not mislabel their result."""

    @staticmethod
    def _knapsack(n=12):
        model = Model()
        weights = [3 + (i * 7) % 11 for i in range(n)]
        values = [5 + (i * 5) % 13 for i in range(n)]
        xs = [model.add_binary(f"x{i}") for i in range(n)]
        model.add_constraint(
            LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= sum(weights) // 3
        )
        model.maximize(LinExpr.sum_of(v * x for v, x in zip(values, xs)))
        return model

    def test_node_limit_with_incumbent_returns_feasible(self):
        model = self._knapsack()
        optimal = model.solve(BranchAndBoundSolver())
        assert optimal.status is SolveStatus.OPTIMAL

        limited = model.solve(BranchAndBoundSolver(max_nodes=10))
        assert limited.status is SolveStatus.FEASIBLE
        assert limited.status.has_solution
        assert limited.values, "the incumbent assignment must be returned"
        # The incumbent is genuinely feasible...
        for constraint in model.constraints():
            assert constraint.satisfied(limited.values)
        # ...and no better than the true optimum.
        assert limited.objective <= optimal.objective + 1e-6
        # The remaining best bound is surfaced and brackets the optimum
        # (an upper bound, since this model maximizes).
        assert "best_bound" in limited.statistics
        assert limited.statistics["best_bound"] >= optimal.objective - 1e-6
        assert limited.statistics["gap"] >= 0.0

    def test_node_limit_without_incumbent_is_an_error_status(self):
        # Interrupted before any incumbent: no solution and no proof, the
        # same outcome as the time limit below — a status, not a raise
        # (which would cross a fabric worker as a foreign exception).
        result = self._knapsack().solve(BranchAndBoundSolver(max_nodes=1))
        assert result.status is SolveStatus.ERROR
        assert not result.status.has_solution
        assert result.statistics["nodes"] == 2

    def test_generous_node_limit_still_proves_optimality(self):
        result = self._knapsack().solve(BranchAndBoundSolver(max_nodes=200_000))
        assert result.status is SolveStatus.OPTIMAL
        assert result.statistics["best_bound"] == pytest.approx(result.objective)

    def test_time_limit_before_any_exploration_is_not_optimal(self):
        # A zero time limit interrupts before the first node: the solver
        # must not claim OPTIMAL (the old bug) nor INFEASIBLE.
        result = self._knapsack().solve(BranchAndBoundSolver(time_limit_seconds=0.0))
        assert result.status is SolveStatus.ERROR
        assert not result.status.has_solution
        assert result.statistics["nodes"] == 1

    def test_feasible_status_properties(self):
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.FEASIBLE.is_optimal
        assert SolveStatus.OPTIMAL.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
