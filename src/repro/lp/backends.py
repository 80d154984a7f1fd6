"""The solver backends by name, and the protocol they share.

Every layer above the LP package (the solve loop, the incremental engine,
the compiler, the control-plane daemon) hands its models to "some object
with a ``solve(form)`` method", the form being a sparse
:class:`~repro.lp.model.StandardForm`.  This module is that contract and
the one place a backend is chosen:

* :class:`SolverBackend` — the protocol: ``name`` and ``solve``;
* :data:`BACKENDS` and :func:`create_backend` — the three in-tree backends,
  addressable by string wherever an instance is accepted;
* :func:`resolve_backend` — the one resolution path (names, instances, and
  the default rule behind ``ProvisionOptions.solver=None``);
* :func:`backend_name` — what callers may ask of a backend, third-party
  instances included.

A limit is honoured or refused, never dropped: only ``"bnb"`` can bound its
search by node count, so a node limit with any other name is an error at
the point the backend is made.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, Union, runtime_checkable

from ..errors import SolverError
from .branch_and_bound import BranchAndBoundSolver
from .model import StandardForm
from .primal import PrimalHeuristicSolver
from .result import SolveResult
from .scipy_backend import ScipySolver

#: The backend names ``ProvisionOptions.solver`` accepts.
BACKENDS: Tuple[str, ...] = ("scipy", "bnb", "heuristic")


@runtime_checkable
class SolverBackend(Protocol):
    """What every solver backend provides."""

    #: Display name; statistics and the content cache's signature record it.
    name: str

    def solve(self, form: StandardForm) -> SolveResult:
        ...


def backend_name(solver: Optional[object]) -> str:
    """The backend's declared name (its class name when it declares none).

    ``None`` is the default backend, as in :func:`resolve_backend`.
    """
    if solver is None:
        return ScipySolver.name
    return str(getattr(solver, "name", "") or type(solver).__name__)


def create_backend(
    name: str,
    *,
    time_limit_seconds: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolverBackend:
    """Instantiate the backend called ``name`` with the given limits."""
    if name not in BACKENDS:
        raise SolverError(
            f"unknown solver backend {name!r}; backends: {', '.join(BACKENDS)}"
        )
    if name == "bnb":
        if node_limit is None:
            return BranchAndBoundSolver(time_limit_seconds=time_limit_seconds)
        return BranchAndBoundSolver(
            time_limit_seconds=time_limit_seconds, max_nodes=node_limit
        )
    if node_limit is not None:
        raise SolverError(
            f"the {name!r} backend cannot bound its search by node count; "
            'use solver="bnb" (or leave solver unset) with a node_limit'
        )
    if name == "scipy":
        return ScipySolver(time_limit_seconds=time_limit_seconds)
    return PrimalHeuristicSolver(time_limit_seconds=time_limit_seconds)


def resolve_backend(
    spec: Union[None, str, SolverBackend] = None,
    *,
    time_limit_seconds: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolverBackend:
    """Resolve a solver spec (``None`` / name / instance) to a backend.

    ``None`` selects the default for the limits: ``"bnb"`` under a node
    limit (scipy cannot bound its search), otherwise ``"scipy"`` with any
    time limit applied.  Instances are returned by identity — their own
    configured limits win.
    """
    if spec is None:
        spec = "bnb" if node_limit is not None else "scipy"
    if isinstance(spec, str):
        return create_backend(
            spec, time_limit_seconds=time_limit_seconds, node_limit=node_limit
        )
    return spec
