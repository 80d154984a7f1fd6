"""The helpers the backend tests build their standard forms with."""

import math

import numpy as np
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
    the columns listed in ``integer`` integral."""
    columns = len(c)
    integrality = np.zeros(columns, dtype=int)
    integrality[list(integer)] = 1
    return StandardForm(
        c=np.array(c, dtype=float),
        a_ub=sp.csr_matrix(np.array(a_ub, dtype=float).reshape(-1, columns)),
        b_ub=np.array(b_ub, dtype=float),
        a_eq=sp.csr_matrix(np.array(a_eq, dtype=float).reshape(-1, columns)),
        b_eq=np.array(b_eq, dtype=float),
        lower=np.full(columns, lower, dtype=float),
        upper=np.full(columns, upper, dtype=float),
        integrality=integrality,
        objective_resolution=resolution,
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
