"""Tests for both exact solver backends on small standard forms.

A form always minimises, so every maximisation below is written as the
minimisation of its negated objective.
"""

import itertools

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
from tests.lp.forms import _form, _knapsack


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
    """A time limit is honoured or refused, never dropped: what reaches
    HiGHS, and what a limit hit means, on the pure-LP and the MIP path and
    on both runs of a MIP (its relaxation, then branch-and-cut)."""

    FORMS = {
        "lp": lambda: _form([-1.0], upper=10.0),
        # Its relaxation is fractional, so a solve runs HiGHS twice.
        "mip": lambda: _knapsack([10, 13, 7, 8], [3, 4, 2, 3], 6),
    }

    @staticmethod
    def _recording_highs(monkeypatch, status=None, objective=None):
        """Route ``run_highs`` through a HiGHS that records the options each
        instance is set, in a list with one dict per instance (``integer``
        says whether its model kept integer columns); ``status`` /
        ``objective`` replace what its run reports."""
        from repro.lp import scipy_backend

        binding = scipy_backend._core
        runs = []

        class Highs(binding._Highs):
            def __init__(self):
                super().__init__()
                self.options = {}
                runs.append(self.options)

            def setOptionValue(self, name, value):
                self.options[name] = value
                return super().setOptionValue(name, value)

            def passModel(self, lp):
                self.options["integer"] = bool(len(lp.integrality_))
                return super().passModel(lp)

            def getModelStatus(self):
                return super().getModelStatus() if status is None else status

            def getInfo(self):
                info = super().getInfo()
                if objective is not None:
                    info.objective_function_value = objective
                return info

        class Binding:
            _Highs = Highs

            def __getattr__(self, name):
                return getattr(binding, name)

        monkeypatch.setattr(scipy_backend, "_core", Binding())
        return runs

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_no_limit_sets_none(self, monkeypatch, kind):
        runs = self._recording_highs(monkeypatch)
        assert ScipySolver().solve(self.FORMS[kind]()).status is SolveStatus.OPTIMAL
        assert [options["integer"] for options in runs] == {
            "lp": [False],
            "mip": [False, True],
        }[kind]
        for options in runs:
            assert "time_limit" not in options
            assert options["mip_heuristic_run_feasibility_jump"] is False
            assert options["log_to_console"] is False

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_the_limit_reaches_highs_as_a_float(self, monkeypatch, kind):
        """A pure LP runs once with the limit.  A MIP's relaxation receives
        the whole limit and branch-and-cut what the relaxation left."""
        from repro import telemetry

        runs = self._recording_highs(monkeypatch)
        for limit in (2.5, 3):
            del runs[:]
            # Every clock reading is half a second after the last.
            ticks = itertools.count(0.0, 0.5)
            with telemetry.use(telemetry.Telemetry(clock=lambda: next(ticks))):
                result = ScipySolver(time_limit_seconds=limit).solve(
                    self.FORMS[kind]()
                )
            assert result.status is SolveStatus.OPTIMAL
            limits = [options["time_limit"] for options in runs]
            assert all(type(value) is float for value in limits)
            assert limits[0] == limit
            if kind == "lp":
                assert len(limits) == 1
            else:
                assert [options["integer"] for options in runs] == [False, True]
                assert limits[1] == limit - 0.5

    def test_a_limit_spent_in_the_relaxation_is_an_error(self, monkeypatch):
        """The relaxation hits the limit and leaves nothing: the solve ends
        ``ERROR`` without starting branch-and-cut, and raises nothing."""
        from repro import telemetry
        from repro.lp.scipy_backend import _core

        runs = self._recording_highs(
            monkeypatch, status=_core.HighsModelStatus.kTimeLimit
        )
        # Every reading is ten seconds after the last.
        ticks = itertools.count(0.0, 10.0)
        with telemetry.use(telemetry.Telemetry(clock=lambda: next(ticks))):
            result = ScipySolver(time_limit_seconds=1.0).solve(self.FORMS["mip"]())
        assert result.status is SolveStatus.ERROR
        assert result.x is None
        assert [options["integer"] for options in runs] == [False]

    def test_a_mip_limit_hit_with_an_incumbent_is_feasible(self, monkeypatch):
        from repro.lp.scipy_backend import _core

        self._recording_highs(monkeypatch, status=_core.HighsModelStatus.kTimeLimit)
        # The limit hit is faked; a real one HiGHS never reaches keeps the
        # incumbent it reports the optimum (at 1 ms a loaded host stopped
        # HiGHS at -18).
        result = ScipySolver(time_limit_seconds=60.0).solve(self.FORMS["mip"]())
        assert result.status is SolveStatus.FEASIBLE
        assert result.objective == -20.0
        assert result.statistics["best_bound"] == -20.0

    def test_an_lp_limit_hit_is_an_error(self, monkeypatch):
        """An LP has no incumbent: the iterate HiGHS stops at is no
        solution (``linprog`` returned none either)."""
        from repro.lp.scipy_backend import _core

        self._recording_highs(monkeypatch, status=_core.HighsModelStatus.kTimeLimit)
        result = ScipySolver(time_limit_seconds=0.001).solve(self.FORMS["lp"]())
        assert result.status is SolveStatus.ERROR
        assert result.x is None

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_a_limit_hit_without_an_incumbent_is_an_error(self, monkeypatch, kind):
        """At the limit without an incumbent HiGHS's objective is infinite:
        no solution and no proof."""
        from repro.lp.scipy_backend import _core

        self._recording_highs(
            monkeypatch,
            status=_core.HighsModelStatus.kTimeLimit,
            objective=_core.kHighsInf,
        )
        result = ScipySolver(time_limit_seconds=0.001).solve(self.FORMS[kind]())
        assert result.status is SolveStatus.ERROR
        assert result.x is None

    def test_a_zero_limit_stops_a_mip_before_any_incumbent(self):
        """Unpatched: HiGHS itself stops at once and reports the limit."""
        result = ScipySolver(time_limit_seconds=0.0).solve(self.FORMS["mip"]())
        assert result.status is SolveStatus.ERROR
        assert result.x is None


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
        assert SolveStatus.OPTIMAL.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
