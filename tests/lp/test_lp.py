"""Tests for both exact solver backends on small standard forms.

A form always minimises, so every maximisation below is written as the
minimisation of its negated objective.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import (
    BACKENDS,
    BranchAndBoundSolver,
    ScipySolver,
    SolveStatus,
    create_backend,
)
from tests.lp.forms import _form


def _knapsack(values, weights, budget):
    """Pack the most value within ``budget``: the negated values minimised."""
    return _form(
        [-value for value in values],
        a_ub=[weights],
        b_ub=[budget],
        upper=1.0,
        integer=range(len(values)),
    )


class TestScipySolver:
    def test_pure_lp(self):
        # max 3x + y subject to x + y <= 8, 0 <= x, y <= 10.
        form = _form([-3.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[8.0], upper=10.0)
        result = ScipySolver().solve(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-24.0)
        assert result.x == pytest.approx([8.0, 0.0])

    def test_knapsack_mip(self):
        result = ScipySolver().solve(_knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-20.0)  # items 1 and 2 (13 + 7)

    def test_infeasible(self):
        # x >= 2 with 0 <= x <= 1.
        form = _form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=1.0)
        assert ScipySolver().solve(form).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        result = ScipySolver().solve(_form([-1.0]))
        assert result.status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_minimization(self):
        form = _form([1.0], lower=2.0, upper=10.0)
        assert ScipySolver().solve(form).objective == pytest.approx(2.0)

    def test_statistics_recorded(self):
        result = ScipySolver().solve(_form([-1.0], upper=1.0, integer=[0]))
        assert "solve_seconds" in result.statistics
        assert result.statistics["num_variables"] == 1

    def test_shortest_path_as_mip(self):
        # A 4-node diamond, columns s-a, a-t, s-b, b-t: the MIP should pick
        # the cheaper branch.
        form = _form(
            [1.0, 1.0, 2.0, 2.0],
            a_eq=[
                [-1.0, 1.0, 0.0, 0.0],  # a: out - in = 0
                [0.0, 0.0, -1.0, 1.0],  # b: out - in = 0
                [1.0, 0.0, 1.0, 0.0],  # s: out = 1
                [0.0, 1.0, 0.0, 1.0],  # t: in = 1
            ],
            b_eq=[0.0, 0.0, 1.0, 1.0],
            upper=1.0,
            integer=range(4),
        )
        result = ScipySolver().solve(form)
        assert result.objective == pytest.approx(2.0)
        assert result.x[0] == 1.0

    def test_milp_diagnostics_surfaced(self):
        result = ScipySolver().solve(_knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6))
        assert result.status is SolveStatus.OPTIMAL
        assert "nodes" in result.statistics
        assert result.statistics.get("best_bound") == pytest.approx(-20.0)
        assert result.statistics.get("gap") == pytest.approx(0.0, abs=1e-6)


class TestScipyTimeLimit:
    """A time limit is honoured or refused, never dropped — on the pure-LP
    path too, which used to call ``linprog`` without any options."""

    @staticmethod
    def _lp():
        return _form([-1.0], upper=10.0)

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
        assert ScipySolver(time_limit_seconds=2.5).solve(self._lp()).status is (
            SolveStatus.OPTIMAL
        )
        assert captured[0]["options"] == {"time_limit": 2.5}

    def test_no_limit_passes_no_option(self, monkeypatch):
        captured = self._captured_linprog(monkeypatch)
        ScipySolver().solve(self._lp())
        assert captured[0]["options"] == {}

    def test_a_limit_hit_without_a_solution_is_an_error(self, monkeypatch):
        """At the limit linprog reports status 1 with ``x`` None: no
        solution and no proof."""
        self._captured_linprog(monkeypatch, status=1, x=None)
        result = ScipySolver(time_limit_seconds=0.001).solve(self._lp())
        assert result.status is SolveStatus.ERROR
        assert result.x is None

    def test_a_limit_hit_with_a_solution_is_feasible(self, monkeypatch):
        self._captured_linprog(monkeypatch, status=1)
        result = ScipySolver(time_limit_seconds=0.001).solve(self._lp())
        assert result.status is SolveStatus.FEASIBLE
        assert result.objective == -10.0


class TestBranchAndBound:
    def test_agrees_with_scipy_on_knapsack(self):
        form = _knapsack([6, 5, 4, 3, 2], [4, 3, 2, 2, 1], 7)
        scipy_result = ScipySolver().solve(form)
        bb_result = BranchAndBoundSolver().solve(form)
        assert bb_result.status is SolveStatus.OPTIMAL
        assert bb_result.objective == pytest.approx(scipy_result.objective)

    def test_integer_infeasible_detected(self):
        # 2x >= 3 and 2x <= 3 with x integer in [0, 10].
        form = _form(
            [1.0], a_ub=[[-2.0], [2.0]], b_ub=[-3.0, 3.0], upper=10.0, integer=[0]
        )
        assert BranchAndBoundSolver().solve(form).status is SolveStatus.INFEASIBLE

    def test_pure_lp_falls_through(self):
        result = BranchAndBoundSolver().solve(_form([-1.0], upper=4.0))
        assert result.objective == pytest.approx(-4.0)

    def test_node_statistics(self):
        result = BranchAndBoundSolver().solve(_knapsack([1, 2, 3], [1, 1, 1], 2))
        assert result.statistics["nodes"] >= 1
        assert result.objective == pytest.approx(-5.0)

    def test_consumes_the_sparse_form(self):
        """The relaxations are handed the CSR matrices as they are."""
        form = _knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6)
        result = BranchAndBoundSolver().solve(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == -20.0


class TestUnboundedForms:
    def test_the_exact_backends_agree_on_an_unbounded_relaxation(self):
        """An unbounded relaxation proves a pure LP unbounded and a MIP
        nothing: branch-and-bound used to call both infeasible."""
        exact = [name for name in BACKENDS if name != "heuristic"]
        # min -x with x >= 0.
        lp = _form([-1.0])
        # min -x - y subject to x - y <= 1, x integer.
        mip = _form([-1.0, -1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0], integer=[0])
        for form, status in ((lp, SolveStatus.UNBOUNDED), (mip, SolveStatus.ERROR)):
            statuses = [create_backend(name).solve(form).status for name in exact]
            assert statuses == [status] * len(exact)


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
        form = _knapsack(values, weights, budget)

        brute = max(
            (
                sum(v for v, chosen in zip(values, combo) if chosen)
                for combo in itertools.product([0, 1], repeat=size)
                if sum(w for w, chosen in zip(weights, combo) if chosen) <= budget
            ),
            default=0,
        )
        scipy_result = ScipySolver().solve(form)
        bb_result = BranchAndBoundSolver().solve(form)
        assert scipy_result.objective == pytest.approx(-brute)
        assert bb_result.objective == pytest.approx(-brute)


class TestSolverInterruption:
    """Regression tests: interrupted searches must not mislabel their result."""

    @staticmethod
    def _large_knapsack(n=12):
        weights = [3 + (i * 7) % 11 for i in range(n)]
        values = [5 + (i * 5) % 13 for i in range(n)]
        return _knapsack(values, weights, sum(weights) // 3)

    def test_node_limit_with_incumbent_returns_feasible(self):
        form = self._large_knapsack()
        optimal = BranchAndBoundSolver().solve(form)
        assert optimal.status is SolveStatus.OPTIMAL

        limited = BranchAndBoundSolver(max_nodes=10).solve(form)
        assert limited.status is SolveStatus.FEASIBLE
        assert limited.status.has_solution
        assert limited.x is not None, "the incumbent assignment must be returned"
        # The incumbent is genuinely feasible...
        assert (form.a_ub @ limited.x <= form.b_ub + 1e-6).all()
        assert np.array_equal(limited.x, np.round(limited.x))
        # ...and no better than the true optimum.
        assert limited.objective >= optimal.objective - 1e-6
        # The remaining best bound is surfaced and brackets the optimum
        # from below.
        assert "best_bound" in limited.statistics
        assert limited.statistics["best_bound"] <= optimal.objective + 1e-6
        assert limited.statistics["gap"] >= 0.0

    def test_node_limit_without_incumbent_is_an_error_status(self):
        # Interrupted before any incumbent: no solution and no proof, the
        # same outcome as the time limit below — a status, not a raise
        # (which would cross a fabric worker as a foreign exception).
        result = BranchAndBoundSolver(max_nodes=1).solve(self._large_knapsack())
        assert result.status is SolveStatus.ERROR
        assert not result.status.has_solution
        assert result.statistics["nodes"] == 2

    def test_generous_node_limit_still_proves_optimality(self):
        result = BranchAndBoundSolver(max_nodes=200_000).solve(self._large_knapsack())
        assert result.status is SolveStatus.OPTIMAL
        assert result.statistics["best_bound"] == pytest.approx(result.objective)

    def test_time_limit_before_any_exploration_is_not_optimal(self):
        # A zero time limit interrupts before the first node: the solver
        # must not claim OPTIMAL (the old bug) nor INFEASIBLE.
        result = BranchAndBoundSolver(time_limit_seconds=0.0).solve(
            self._large_knapsack()
        )
        assert result.status is SolveStatus.ERROR
        assert not result.status.has_solution
        assert result.statistics["nodes"] == 1

    def test_feasible_status_properties(self):
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.FEASIBLE.is_optimal
        assert SolveStatus.OPTIMAL.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
