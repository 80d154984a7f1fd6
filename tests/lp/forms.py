"""The helpers the backend tests build their standard forms with, and the
Hypothesis strategies of small random forms the HiGHS tests share."""

import math

import numpy as np
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.lp.model import StandardForm


def _form(
    c,
    a_ub=(),
    b_ub=(),
    a_eq=(),
    b_eq=(),
    lower=0.0,
    upper=math.inf,
    integer=(),
    resolution=None,
):
    """Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x ==
    b_eq`` and ``lower <= x <= upper`` (scalars apply to every column),
    the columns listed in ``integer`` integral.  The dense rows are packed
    column by column, their zeros dropped, the ``<=`` rows first."""
    columns = len(c)
    integrality = np.zeros(columns, dtype=int)
    integrality[list(integer)] = 1
    b_ub = np.array(b_ub, dtype=float)
    b_eq = np.array(b_eq, dtype=float)
    dense = np.vstack(
        (
            np.array(a_ub, dtype=float).reshape(-1, columns),
            np.array(a_eq, dtype=float).reshape(-1, columns),
        )
    )
    column, row = np.nonzero(dense.T)
    return StandardForm(
        c=np.array(c, dtype=float),
        start=np.concatenate(([0], np.cumsum(np.bincount(column, minlength=columns)))),
        index=row,
        value=dense[row, column],
        row_lower=np.concatenate((np.full(b_ub.size, -np.inf), b_eq)),
        row_upper=np.concatenate((b_ub, b_eq)),
        lower=np.full(columns, lower, dtype=float),
        upper=np.full(columns, upper, dtype=float),
        integrality=integrality,
        objective_resolution=resolution,
    )


def matrix(form):
    """The form's constraint matrix as a SciPy CSR matrix."""
    return sp.csc_matrix(
        (form.value, form.index, form.start),
        shape=(form.num_constraints(), form.num_variables()),
    ).tocsr()


def split_rows(form):
    """``(a_ub, b_ub, a_eq, b_eq)``: the form's leading ``<=`` rows and its
    ``=`` rows, as SciPy's ``linprog`` / ``milp`` take them."""
    inequality = np.isneginf(form.row_lower)
    count = int(inequality.sum())
    assert inequality[:count].all()
    assert (form.row_lower[count:] == form.row_upper[count:]).all()
    rows = matrix(form)
    return rows[:count], form.row_upper[:count], rows[count:], form.row_upper[count:]


def satisfies_rows(form, x, tolerance=1e-6):
    """Whether ``x`` meets every row's bounds to within ``tolerance``."""
    activity = matrix(form) @ x
    return bool(
        (form.row_lower - tolerance <= activity).all()
        and (activity <= form.row_upper + tolerance).all()
    )


def _knapsack(values, weights, budget):
    """Pack the most value within ``budget``: the negated values minimised."""
    return _form(
        [-value for value in values],
        a_ub=[weights],
        b_ub=[budget],
        upper=1.0,
        integer=range(len(values)),
    )


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


@st.composite
def knapsacks(draw):
    values = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6))
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=6, max_size=6)
    )
    budget = draw(st.integers(min_value=0, max_value=20))
    return _knapsack(values, weights[: len(values)], budget)


def diamonds():
    return st.lists(_small, min_size=4, max_size=4).map(_diamond)


@st.composite
def flow_forms(draw):
    """One unit from node 0 to the last node over a random arc set, with a
    shared capacity row: flow conservation is the equality rows."""
    nodes = draw(st.integers(min_value=3, max_value=5))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)).filter(
                lambda arc: arc[0] != arc[1]
            ),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    costs = draw(st.lists(_small, min_size=len(arcs), max_size=len(arcs)))
    loads = draw(st.lists(_small, min_size=len(arcs), max_size=len(arcs)))
    capacity = draw(st.integers(min_value=1, max_value=12))
    balance = [[0.0] * len(arcs) for _ in range(nodes)]
    for column, (tail, head) in enumerate(arcs):
        balance[tail][column] += 1.0
        balance[head][column] -= 1.0
    supply = [1.0] + [0.0] * (nodes - 2) + [-1.0]
    return _form(
        costs,
        a_ub=[loads],
        b_ub=[capacity],
        a_eq=balance,
        b_eq=supply,
        upper=1.0,
        integer=range(len(arcs)),
    )


@st.composite
def pure_lps(draw):
    """Bounded, infeasible and unbounded LPs over a few columns."""
    columns = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-4, max_value=4).map(float)
    rows = draw(st.integers(min_value=0, max_value=3))
    return _form(
        draw(st.lists(entries, min_size=columns, max_size=columns)),
        a_ub=[
            draw(st.lists(entries, min_size=columns, max_size=columns))
            for _ in range(rows)
        ],
        b_ub=draw(st.lists(entries, min_size=rows, max_size=rows)),
        upper=draw(st.sampled_from([2.0, 10.0, np.inf])),
    )
