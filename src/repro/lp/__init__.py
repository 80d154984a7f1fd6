"""Linear and mixed-integer programming substrate.

The Merlin compiler encodes bandwidth provisioning as a mixed-integer program
(Equations 1–5 in §3.2).  The paper solves it with the Gurobi Optimizer; this
package provides an equivalent, self-contained substitute:

* :class:`StandardForm`, the sparse matrices every backend solves, which
  the provisioning MIP is built straight into,
* a small modelling front end over it (:class:`Variable`, :class:`LinExpr`,
  :class:`Constraint`, :class:`Model`) in the style of common MIP APIs,
* the backend layer (:mod:`repro.lp.backends`): the :class:`SolverBackend`
  protocol and the three backends addressable by string — ``"scipy"``,
  ``"bnb"`` and ``"heuristic"``,
* a SciPy/HiGHS backend (:mod:`repro.lp.scipy_backend`) that solves models
  exactly through ``scipy.optimize.milp`` / ``linprog``,
* a pure-Python branch-and-bound solver (:mod:`repro.lp.branch_and_bound`)
  over LP relaxations, usable as an independent cross-check and as a fallback
  when SciPy's MILP interface is unavailable,
* an anytime primal heuristic (:mod:`repro.lp.primal`) that finds feasible
  provisioning allocations in milliseconds.

See ``src/repro/lp/README.md`` for how to choose a backend.
"""

from .constraint import Constraint, Sense
from .expr import LinExpr, Variable
from .model import Model, Objective, StandardForm
from .result import SolveResult, SolveStatus
from .scipy_backend import ScipySolver, solve
from .branch_and_bound import BranchAndBoundSolver
from .primal import PrimalHeuristicSolver
from .backends import (
    BACKENDS,
    SolverBackend,
    backend_name,
    create_backend,
    resolve_backend,
)

__all__ = [
    "Constraint",
    "Sense",
    "LinExpr",
    "Variable",
    "Model",
    "Objective",
    "StandardForm",
    "SolveResult",
    "SolveStatus",
    "ScipySolver",
    "BranchAndBoundSolver",
    "PrimalHeuristicSolver",
    "SolverBackend",
    "BACKENDS",
    "backend_name",
    "create_backend",
    "resolve_backend",
    "solve",
]
