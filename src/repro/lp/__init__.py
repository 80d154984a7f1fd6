"""Linear and mixed-integer programming substrate.

The Merlin compiler encodes bandwidth provisioning as a mixed-integer program
(Equations 1–5 in §3.2).  The paper solves it with the Gurobi Optimizer; this
package provides an equivalent, self-contained substitute:

* :class:`StandardForm`, the column-wise arrays every backend solves (the
  ones HiGHS reads), which the provisioning MIP is built straight into,
  with the :class:`PathLayout` of its path structure,
* the backend layer (:mod:`repro.lp.backends`): the :class:`SolverBackend`
  protocol and the three backends addressable by string — ``"scipy"``,
  ``"bnb"`` and ``"heuristic"``,
* a SciPy/HiGHS backend (:mod:`repro.lp.scipy_backend`) that solves forms
  exactly through one direct call into HiGHS over SciPy's bundled binding
  (:func:`~repro.lp.scipy_backend.run_highs`, the feasibility-jump
  heuristic off): a MIP's LP relaxation first, kept when integral, and
  branch-and-cut only when it is not,
* a pure-Python branch-and-bound solver (:mod:`repro.lp.branch_and_bound`)
  over LP relaxations, usable as an independent cross-check,
* an anytime primal heuristic (:mod:`repro.lp.primal`) that finds feasible
  provisioning allocations in milliseconds.

Every backend returns a :class:`SolveResult`: a :class:`SolveStatus`, the
column vector ``x``, its objective and solver statistics.  See
``src/repro/lp/README.md`` for how to choose a backend.
"""

from .model import PathLayout, StandardForm
from .result import SolveResult, SolveStatus
from .scipy_backend import ScipySolver
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
    "PathLayout",
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
]
