"""The reference front end in ``tests/reference_lp.py``.

The provisioning equivalence tests hold the array builder to this front
end's export byte for byte, so its arithmetic and its export are pinned
here: what an expression holds after each operator, where a right-hand
side goes, the signed zeros, and the refusal of a term over a variable
the model never registered.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.lp import BranchAndBoundSolver, ScipySolver, SolveStatus
from tests.lp.forms import _form
from tests.reference_lp import Constraint, LinExpr, Model, Sense, Variable
from tests.reference_provisioning import assert_forms_identical


def _knapsack():
    """max 10a+13b+7c+8d st 3a+4b+2c+3d<=6, as the negated minimisation."""
    model = Model("knapsack")
    items = [model.add_binary(f"x{i}") for i in range(4)]
    weights = LinExpr.weighted_sum(zip(items, [3.0, 4.0, 2.0, 3.0]))
    model.add_constraint(LinExpr() - weights >= -6.0, "weight")
    model.minimize(LinExpr.weighted_sum(zip(items, [-10.0, -13.0, -7.0, -8.0])))
    return model


class TestExpressions:
    def test_variable_arithmetic(self):
        x, y = Variable("x"), Variable("y")
        expression = x * 2 + y * 3 + 1 - x
        assert expression.coefficients == {x: 1.0, y: 3.0}
        assert expression.constant == 1.0

    def test_subtraction(self):
        x = Variable("x")
        shifted = x - 5
        assert shifted.coefficients == {x: 1.0}
        assert shifted.constant == -5.0
        assert (LinExpr() - x).coefficients == {x: -1.0}

    def test_sum_of(self):
        xs = [Variable(f"x{i}") for i in range(4)]
        expression = LinExpr.sum_of(xs)
        assert expression.coefficients == {x: 1.0 for x in xs}
        assert expression.constant == 0.0

    def test_scaling_by_non_number_rejected(self):
        with pytest.raises(TypeError):
            Variable("x").to_expr() * Variable("y")

    def test_operators_leave_their_operands_unchanged(self):
        x, y = Variable("x"), Variable("y")
        base = x.to_expr()
        for result in (base + y, base - y, base * 3.0, base + 2.0):
            assert result is not base
        assert base.coefficients == {x: 1.0}
        assert base.constant == 0.0

    def test_greater_equal_folds_the_right_hand_side(self):
        x = Variable("x")
        constraint = x + 2 >= 5
        assert isinstance(constraint, Constraint)
        assert constraint.sense is Sense.GREATER_EQUAL
        assert constraint.expression.coefficients == {x: 1.0}
        assert constraint.expression.constant == -3.0
        assert constraint.name is None

    def test_equality_constraint(self):
        x = Variable("x")
        constraint = (x + 1).equals(3)
        assert constraint.sense is Sense.EQUAL
        assert constraint.expression.constant == -2.0

    def test_variables_are_keyed_by_value(self):
        expression = LinExpr().add_term(Variable("x")).add_term(Variable("x"), 2.0)
        assert expression.coefficients == {Variable("x"): 3.0}


class TestInPlaceAccumulation:
    """The in-place growth the reference builders use for their rows."""

    def test_add_term_matches_operator_add(self):
        xs = [Variable(f"x{i}") for i in range(6)]
        grown = LinExpr()
        operator_built = LinExpr()
        for i, x in enumerate(xs):
            grown.add_term(x, float(i + 1))
            operator_built = operator_built + x * float(i + 1)
        assert grown.coefficients == operator_built.coefficients
        assert grown.constant == operator_built.constant

    def test_add_term_accumulates_duplicates(self):
        x = Variable("x")
        expression = LinExpr().add_term(x, 1.5).add_term(x, 2.5)
        assert expression.coefficients[x] == 4.0

    def test_add_term_returns_self(self):
        expression = LinExpr()
        assert expression.add_term(Variable("x")) is expression

    def test_weighted_sum(self):
        xs = [Variable(f"x{i}") for i in range(4)]
        expression = LinExpr.weighted_sum((x, float(i)) for i, x in enumerate(xs))
        assert expression.coefficients == {x: float(i) for i, x in enumerate(xs)}
        assert expression.constant == 0.0

    def test_a_repeated_variable_sums(self):
        x = Variable("x")
        assert LinExpr.sum_of([x, x]).coefficients == {x: 2.0}
        assert LinExpr.weighted_sum([(x, 1.0), (x, -3.0)]).coefficients == {x: -2.0}


class TestModel:
    def test_duplicate_variable_rejected(self):
        model = Model()
        model.add_binary("x")
        with pytest.raises(AssertionError):
            model.add_continuous("x")

    def test_variable_kinds_and_bounds(self):
        model = Model()
        assert model.add_binary("b") == Variable("b", 0.0, 1.0, is_integer=True)
        assert model.add_continuous("c") == Variable("c")
        assert model.add_continuous("d", -1.0, 4.0) == Variable("d", -1.0, 4.0)

    def test_variables_are_in_column_order(self):
        model = Model()
        names = ["r", "a", "q", "b"]
        for name in names:
            model.add_continuous(name)
        assert [variable.name for variable in model.variables()] == names

    def test_add_constraint_names_the_row(self):
        model = Model()
        x = model.add_binary("x")
        constraint = x + 0 >= 1
        assert model.add_constraint(constraint, "cover") is constraint
        assert constraint.name == "cover"


class TestExport:
    def test_standard_form_shapes(self):
        model = Model()
        x = model.add_binary("x")
        y = model.add_continuous("y", 0.0, 10.0)
        model.add_constraint(x + y >= 1, "ub")
        model.add_constraint((x + y).equals(2), "eq")
        model.minimize(x + y * 2)
        form = model.to_standard_form()
        assert isinstance(form.a_ub, sp.csr_matrix)
        assert isinstance(form.a_eq, sp.csr_matrix)
        assert form.a_ub.shape == (1, 2)
        assert form.a_eq.shape == (1, 2)
        assert list(form.c) == [1.0, 2.0]
        assert list(form.lower) == [0.0, 0.0]
        assert list(form.upper) == [1.0, 10.0]
        assert list(form.integrality) == [1, 0]

    def test_greater_equal_rows_are_negated_into_a_ub(self):
        model = Model()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        model.add_constraint(x + y * 2 >= 4, "cover")
        form = model.to_standard_form()
        assert form.a_ub.toarray().tolist() == [[-1.0, -2.0]]
        assert form.b_ub.tolist() == [-4.0]
        assert form.a_eq.shape == (0, 2)

    def test_equality_rows_keep_their_sign(self):
        model = Model()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        model.add_constraint((x + y).equals(4), "sum")
        form = model.to_standard_form()
        assert form.a_eq.toarray().tolist() == [[1.0, 1.0]]
        assert form.b_eq.tolist() == [4.0]
        assert form.a_ub.shape == (0, 2)

    def test_zero_right_hand_sides_carry_their_sign(self):
        """A zero equality right-hand side exports as -0.0 and a zero
        ``>=`` one as 0.0: the bytes the array builder is held to."""
        model = Model()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        model.add_constraint((x - y).equals(0), "balance")
        model.add_constraint(x - y >= 0, "order")
        form = model.to_standard_form()
        assert form.b_eq[0] == 0.0 and np.signbit(form.b_eq[0])
        assert form.b_ub[0] == 0.0 and not np.signbit(form.b_ub[0])

    def test_a_cancelled_term_stays_an_explicit_entry(self):
        model = Model()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        model.add_constraint(x - x + y >= 1, "cover")
        form = model.to_standard_form()
        assert form.a_ub.nnz == 2
        assert form.a_ub.toarray().tolist() == [[0.0, -1.0]]

    def test_dangling_constraint_reference_refused(self):
        model = Model()
        x = model.add_binary("x")
        model.add_constraint(x + Variable("y") >= 1, "stray")
        with pytest.raises(KeyError):
            model.to_standard_form()

    def test_dangling_objective_reference_refused(self):
        model = Model()
        x = model.add_binary("x")
        model.minimize(x + Variable("y"))
        with pytest.raises(KeyError):
            model.to_standard_form()

    def test_objective_resolution_is_carried(self):
        model = _knapsack()
        assert model.to_standard_form().objective_resolution is None
        model.objective_resolution = 1e-9
        assert model.to_standard_form().objective_resolution == 1e-9

    def test_the_export_equals_the_hand_built_form(self):
        assert_forms_identical(
            _form(
                [-10.0, -13.0, -7.0, -8.0],
                a_ub=[[3.0, 4.0, 2.0, 3.0]],
                b_ub=[6.0],
                upper=1.0,
                integer=range(4),
            ),
            _knapsack().to_standard_form(),
        )

    def test_the_export_solves(self):
        form = _knapsack().to_standard_form().standard_form()
        for backend in (ScipySolver(), BranchAndBoundSolver()):
            result = backend.solve(form)
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == pytest.approx(-20.0)  # items 1 and 2
            assert result.x == pytest.approx([0.0, 1.0, 1.0, 0.0])
