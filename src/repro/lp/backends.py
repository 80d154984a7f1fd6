"""The solver-backend layer: capability protocol, registry, and portfolio.

Every layer above the LP package (partitioned solving, warm-started
incremental re-solves, the compiler, the control-plane daemon) funnels into
"some object with a ``solve(model, warm_start=None)`` method".  This module
makes that contract explicit:

* :class:`SolverBackend` — the protocol every backend satisfies, including
  declared capability flags;
* :func:`capabilities` — the single place capability flags are read, with
  ONE documented default for unknown third-party backends (an undeclared
  capability is treated as absent — in particular, a backend must declare
  ``consumes_warm_starts = True`` to be handed warm starts);
* a **registry** mapping string names (``"scipy"``, ``"bnb"``, ``"highs"``,
  ``"heuristic"``, ``"auto"``) to backend factories, so every API that
  accepts a solver instance also accepts a name;
* :func:`resolve_backend` — the one resolution path (names, instances, and
  the ``None``-with-limits defaulting behind ``ProvisionOptions.backend``);
* :class:`AutoSolver` — a deterministic portfolio driver racing the
  registered exact backends, seeded by the primal heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from .. import telemetry
from ..errors import SolverError
from .branch_and_bound import BranchAndBoundSolver
from .highs_backend import HighsSolver, highs_available
from .model import Model
from .primal import PrimalHeuristicSolver
from .result import SolveResult, SolveStatus
from .scipy_backend import ScipySolver


@runtime_checkable
class SolverBackend(Protocol):
    """What every solver backend provides.

    The attributes are *declared capabilities*: callers consult them (via
    :func:`capabilities`, never ``getattr`` probes) to decide whether to
    project warm starts, pass limits, or pickle the backend into a worker
    process.
    """

    #: Short registry-style name (``"scipy"``, ``"bnb"``, ...).
    name: str
    #: Whether ``solve`` accepts and uses a ``warm_start=`` mapping.
    consumes_warm_starts: bool
    #: Whether the backend honours a wall-clock time limit.
    supports_time_limit: bool
    #: Whether the backend honours a search-node limit.
    supports_node_limit: bool

    def solve(
        self, model: Model, warm_start: Optional[Mapping[str, float]] = None
    ) -> SolveResult:
        ...


@dataclass(frozen=True)
class BackendCapabilities:
    """A backend's declared capabilities, read once and passed around."""

    name: str
    consumes_warm_starts: bool
    supports_time_limit: bool
    supports_node_limit: bool


def capabilities(solver: Optional[object]) -> BackendCapabilities:
    """Read a backend's capability flags.

    This is the single source of truth for duck-typed backends: any flag a
    backend does not declare is reported ``False`` (the capability is
    absent).  Concretely, an unknown third-party backend is *not* handed
    warm starts unless it declares ``consumes_warm_starts = True`` — the
    one documented default that replaced the old divergent pair (an
    ``inspect.signature`` probe in ``Model.solve`` and a ``True``-default
    ``getattr`` in the incremental layer).

    ``None`` reports the default backend's capabilities (``Model.solve``
    falls back to :class:`ScipySolver` when given no solver).
    """
    if solver is None:
        solver = ScipySolver
    fallback = solver.__name__ if isinstance(solver, type) else type(solver).__name__
    name = str(getattr(solver, "name", "") or fallback)
    return BackendCapabilities(
        name=name,
        consumes_warm_starts=bool(getattr(solver, "consumes_warm_starts", False)),
        supports_time_limit=bool(getattr(solver, "supports_time_limit", False)),
        supports_node_limit=bool(getattr(solver, "supports_node_limit", False)),
    )


def backend_name(solver: Optional[object]) -> str:
    """The backend's declared name (class name for undeclared backends)."""
    return capabilities(solver).name


# -- registry -------------------------------------------------------------------

BackendFactory = Callable[..., SolverBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Register a backend factory under a string name.

    The factory is called as ``factory(time_limit_seconds=..., node_limit=...)``
    and may ignore limits it does not support.
    """
    if name in _REGISTRY and not replace:
        raise SolverError(
            f"a solver backend named {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[name] = factory


def registered_backends() -> Tuple[str, ...]:
    """The registered backend names, in registration order."""
    return tuple(_REGISTRY)


def create_backend(
    name: str,
    *,
    time_limit_seconds: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolverBackend:
    """Instantiate a registered backend by name with the given limits."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown solver backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}"
        ) from None
    return factory(time_limit_seconds=time_limit_seconds, node_limit=node_limit)


def resolve_backend(
    spec: Union[None, str, SolverBackend] = None,
    *,
    time_limit_seconds: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolverBackend:
    """Resolve a solver spec (``None`` / name / instance) to a backend.

    ``None`` selects the default for the limits: a node limit needs the
    branch-and-bound backend (scipy cannot bound its search), otherwise the
    scipy backend with any time limit applied.  Instances are returned by
    identity — their own configured limits win.
    """
    if spec is None:
        spec = "bnb" if node_limit is not None else "scipy"
    if isinstance(spec, str):
        return create_backend(
            spec, time_limit_seconds=time_limit_seconds, node_limit=node_limit
        )
    return spec


def _make_scipy(
    *, time_limit_seconds: Optional[float] = None, node_limit: Optional[int] = None
) -> ScipySolver:
    # scipy.optimize.milp has no node-limit knob; the limit is ignored here
    # (resolve_backend(None) routes node-limited solves to "bnb").
    return ScipySolver(time_limit_seconds=time_limit_seconds)


def _make_bnb(
    *, time_limit_seconds: Optional[float] = None, node_limit: Optional[int] = None
) -> BranchAndBoundSolver:
    if node_limit is not None:
        return BranchAndBoundSolver(
            time_limit_seconds=time_limit_seconds, max_nodes=node_limit
        )
    return BranchAndBoundSolver(time_limit_seconds=time_limit_seconds)


def _make_highs(
    *, time_limit_seconds: Optional[float] = None, node_limit: Optional[int] = None
) -> HighsSolver:
    return HighsSolver(time_limit_seconds=time_limit_seconds, node_limit=node_limit)


def _make_heuristic(
    *, time_limit_seconds: Optional[float] = None, node_limit: Optional[int] = None
) -> PrimalHeuristicSolver:
    return PrimalHeuristicSolver(time_limit_seconds=time_limit_seconds)


def _make_auto(
    *, time_limit_seconds: Optional[float] = None, node_limit: Optional[int] = None
) -> "AutoSolver":
    return AutoSolver(time_limit_seconds=time_limit_seconds, node_limit=node_limit)


# -- the deterministic portfolio driver -----------------------------------------

#: Candidate order: fixed priority, best solver first.  The priority both
#: orders the race and breaks within-resolution objective ties, so it is
#: part of the determinism contract.
_PORTFOLIO_PRIORITY: Tuple[str, ...] = ("highs", "scipy", "bnb")

_STATUS_RANK = {
    SolveStatus.OPTIMAL: 0,
    SolveStatus.FEASIBLE: 1,
}

_PROOF_RANK = {
    SolveStatus.INFEASIBLE: 0,
    SolveStatus.UNBOUNDED: 0,
    SolveStatus.ERROR: 1,
}


@dataclass
class _Attempt:
    """One candidate's outcome in the race."""

    priority: int
    backend: str
    result: SolveResult


class AutoSolver:
    """Race the registered exact backends; pick the winner deterministically.

    Per model the driver:

    1. consults :func:`capabilities` and the model size — models with more
       than :attr:`seed_threshold` integer variables first get a primal
       heuristic pass whose incumbent seeds every start-consuming
       candidate;
    2. orders candidates by the fixed portfolio priority, dropping backends
       whose declared capabilities cannot honour a configured node limit
       and the ``highs`` backend when ``highspy`` is absent;
    3. runs candidates in order under the configured limits,
       **short-circuiting** on a proven status (``OPTIMAL``,
       ``INFEASIBLE``, ``UNBOUNDED``) — racing on only continues while
       limits leave ``FEASIBLE``/``ERROR`` outcomes;
    4. picks the winner by status rank, then objective within the model's
       declared ``objective_resolution``, then fixed priority — **never**
       wall-clock — so ``auto`` results are byte-reproducible across runs
       and worker counts.

    The winner's statistics gain ``backend`` (its name), ``auto_candidates``
    (attempts made), and ``auto_seeded`` (1.0 when the heuristic seeded the
    race); ``solve_seconds`` is rewritten to the portfolio's total cost so
    CPU accounting upstream covers every candidate run.
    """

    name = "auto"
    consumes_warm_starts = True
    supports_time_limit = True
    supports_node_limit = True

    #: Models with at most this many integer variables skip the heuristic
    #: seeding pass — the exact solve is already effectively instant.
    seed_threshold = 24

    def __init__(
        self,
        time_limit_seconds: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        self.time_limit_seconds = time_limit_seconds
        self.node_limit = node_limit

    def _candidates(self) -> List[str]:
        names = []
        for name in _PORTFOLIO_PRIORITY:
            if name == "highs" and not highs_available():
                continue
            if name not in _REGISTRY:
                continue
            if self.node_limit is not None:
                probe = _REGISTRY[name](
                    time_limit_seconds=self.time_limit_seconds,
                    node_limit=self.node_limit,
                )
                if not capabilities(probe).supports_node_limit:
                    continue
            names.append(name)
        return names

    def solve(
        self, model: Model, warm_start: Optional[Mapping[str, float]] = None
    ) -> SolveResult:
        started = telemetry.clock()
        attempts: List[_Attempt] = []
        seeded = False

        # Heuristic pass: cheap incumbent for large models (or to repair a
        # caller-provided start into a full assignment).
        seed = dict(warm_start) if warm_start else None
        heuristic_result: Optional[SolveResult] = None
        if model.num_integer_variables() > self.seed_threshold:
            try:
                heuristic_result = PrimalHeuristicSolver(
                    time_limit_seconds=self.time_limit_seconds
                ).solve(model, warm_start=warm_start)
            except SolverError:
                heuristic_result = None
            if heuristic_result is not None and heuristic_result.status.has_solution:
                seed = heuristic_result.values_by_name()
                seeded = True

        for priority, name in enumerate(self._candidates()):
            backend = create_backend(
                name,
                time_limit_seconds=self.time_limit_seconds,
                node_limit=self.node_limit,
            )
            passed = seed if capabilities(backend).consumes_warm_starts else None
            with telemetry.span("portfolio_attempt", backend=name) as attempt_span:
                try:
                    result = backend.solve(model, warm_start=passed) if passed else (
                        backend.solve(model)
                    )
                except SolverError:
                    result = SolveResult(status=SolveStatus.ERROR)
                attempt_span.annotate(status=result.status.value)
            attempts.append(_Attempt(priority, name, result))
            if result.status in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.UNBOUNDED,
            ):
                # Proven outcome: later candidates cannot beat it under the
                # deterministic pick rule, so stop racing.
                break
            if result.status is SolveStatus.FEASIBLE:
                # Keep racing with the best incumbent so far as the seed.
                seed = result.values_by_name()

        if heuristic_result is not None:
            # The heuristic competes too (lowest priority): if every exact
            # backend errored or was cut off below it, its incumbent wins.
            attempts.append(
                _Attempt(len(_PORTFOLIO_PRIORITY), "heuristic", heuristic_result)
            )
        if not attempts:
            raise SolverError("the auto portfolio has no usable backends")

        winner = self._pick(model, attempts)
        winner.result.statistics["backend"] = winner.backend
        winner.result.statistics["auto_candidates"] = float(len(attempts))
        if seeded:
            winner.result.statistics["auto_seeded"] = 1.0
        winner.result.statistics["solve_seconds"] = telemetry.clock() - started
        return winner.result

    @staticmethod
    def _pick(model: Model, attempts: List[_Attempt]) -> _Attempt:
        """The deterministic winner: status > objective-within-resolution > priority."""
        solved = [a for a in attempts if a.result.status.has_solution]
        if not solved:
            # No solution anywhere: prefer a proven claim (INFEASIBLE /
            # UNBOUNDED) over an ERROR, then priority.
            return min(
                attempts,
                key=lambda a: (_PROOF_RANK.get(a.result.status, 2), a.priority),
            )
        best_rank = min(_STATUS_RANK[a.result.status] for a in solved)
        ranked = [a for a in solved if _STATUS_RANK[a.result.status] == best_rank]
        sign = -1.0 if model.direction.name == "MAXIMIZE" else 1.0
        objectives = [
            sign * (a.result.objective if a.result.objective is not None else 0.0)
            for a in ranked
        ]
        resolution = getattr(model, "objective_resolution", None)
        tolerance = resolution if resolution is not None and resolution > 0 else 1e-9
        best_objective = min(objectives)
        finalists = [
            attempt
            for attempt, objective in zip(ranked, objectives)
            if objective <= best_objective + tolerance
        ]
        return min(finalists, key=lambda a: a.priority)


register_backend("scipy", _make_scipy)
register_backend("bnb", _make_bnb)
register_backend("highs", _make_highs)
register_backend("heuristic", _make_heuristic)
register_backend("auto", _make_auto)
