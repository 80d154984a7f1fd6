"""An anytime primal heuristic for the provisioning MIP.

The exact backends prove optimality; this backend trades the proof for
latency.  It decodes the *structure* of a provisioning model — one binary
variable per logical edge (``x__{statement}__{index}``), per-statement flow
conservation rows (``flow__*``, Equation 1), and per-link reservation rows
(``reserve__*``, Equation 2) — and then runs an iterated two-phase local
search over per-statement path choices:

1. **greedy construct** — statements in decreasing-guarantee order each take
   the path minimising (bottleneck utilisation after adding their load,
   hop count), found by a lexicographic Dijkstra over the statement's
   logical topology on residual capacity;
2. **improve / perturb** — while the budget lasts, reroute users of the
   most-loaded link when that strictly lowers the global bottleneck; when no
   single reroute helps, perturb (reroute the heaviest bottleneck user with
   the bottleneck link forbidden), repair with further single reroutes, and
   keep the perturbed solution only if it is strictly better.

The search is entirely deterministic — no randomness, all ties broken by
construction order or identifier — so repeated solves of the same model
yield byte-identical allocations.  On success the result is
:attr:`~repro.lp.result.SolveStatus.FEASIBLE` (an incumbent without an
optimality proof, exactly like a time-limited exact solve); when no
capacity-respecting assignment is found the result is ``ERROR`` (a heuristic
cannot prove infeasibility).  Models that do not follow the provisioning
naming/shape conventions raise :class:`~repro.errors.SolverError` — this
backend is a specialist, not a general MIP solver.

``ProvisionOptions(solver="heuristic")`` provisions a fat-tree component in
milliseconds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import SolverError
from .constraint import Sense
from .expr import Variable
from .model import Model
from .result import SolveResult, SolveStatus

#: Strict-improvement threshold for the local search: a reroute must lower
#: the bottleneck utilisation by more than this to be accepted.
_IMPROVEMENT_EPSILON = 1e-12

#: Coefficient magnitudes below this are treated as cancelled terms (a
#: self-loop edge contributes +1 and -1 to the same flow row).
_COEFFICIENT_EPSILON = 1e-9


@dataclass
class _Edge:
    """One decoded logical edge: its binary variable and path structure."""

    variable: Variable
    source: int
    target: int
    #: The physical link the edge maps onto, identified by its reservation
    #: variable's name (``None`` for "stay" edges with no link term).
    link: Optional[str]


@dataclass
class _PathStatement:
    """One statement's routing sub-problem."""

    identifier: str
    edges: List[_Edge]
    adjacency: Dict[int, List[_Edge]]
    source: int
    sink: int
    guarantee_mbps: float


@dataclass
class _DecodedProblem:
    """The provisioning model re-read as a path-assignment problem."""

    statements: Dict[str, _PathStatement]
    capacity: Dict[str, float]
    reservation_variables: Dict[str, Variable]
    r_max: Optional[Variable]
    big_r_max: Optional[Variable]


def _statement_id(variable_name: str) -> str:
    """The statement identifier embedded in an ``x__{id}__{index}`` name.

    Identifiers may themselves contain ``__``; only the trailing edge index
    is split off.
    """
    return variable_name[3:].rsplit("__", 1)[0]


def _shape_error(detail: str) -> SolverError:
    return SolverError(
        "the primal heuristic only solves provisioning path models "
        f"(x__/flow__/reserve__ conventions): {detail}"
    )


def _decode_provisioning_model(model: Model) -> _DecodedProblem:
    """Recover the path-assignment structure from a provisioning model.

    Decoding relies only on the canonical constructions of the one model
    builder (``splice_statement_rows`` / ``emit_link_rows``): every decoded
    fact is cross-checked, and any deviation raises :class:`SolverError`
    rather than guessing.
    """
    # Keyed by variable *name*: the model enforces name uniqueness, and
    # strings cache their hash where the frozen dataclass recomputes it on
    # every lookup (this decode is the heuristic's hot loop).
    guarantee_of: Dict[str, float] = {}
    link_of: Dict[str, str] = {}
    capacity: Dict[str, float] = {}
    reservation_variables: Dict[str, Variable] = {}
    flow_rows = []

    for constraint in model.constraints():
        name = constraint.name or ""
        if name.startswith("reserve__"):
            if constraint.sense is not Sense.EQUAL:
                raise _shape_error(f"reserve row {name!r} is not an equality")
            reservation = None
            cap = 0.0
            edge_terms: List[Tuple[Variable, float]] = []
            for variable, coefficient in constraint.expression.coefficients.items():
                if variable.is_integer:
                    edge_terms.append((variable, coefficient))
                else:
                    if reservation is not None:
                        raise _shape_error(
                            f"reserve row {name!r} has several continuous terms"
                        )
                    reservation, cap = variable, coefficient
            if reservation is None or cap <= 0.0:
                raise _shape_error(
                    f"reserve row {name!r} lacks a positive-capacity reservation term"
                )
            link = reservation.name
            capacity[link] = cap
            reservation_variables[link] = reservation
            for variable, coefficient in edge_terms:
                if coefficient >= 0.0:
                    raise _shape_error(
                        f"edge term in reserve row {name!r} has a non-negative "
                        "coefficient"
                    )
                guarantee_of[variable.name] = -coefficient
                link_of[variable.name] = link
        elif name.startswith("flow__"):
            if constraint.sense is not Sense.EQUAL:
                raise _shape_error(f"flow row {name!r} is not an equality")
            flow_rows.append(constraint)

    # Flow rows are the vertices; an edge variable's +1 row is its source
    # vertex and its -1 row its target.
    source_row: Dict[str, int] = {}
    target_row: Dict[str, int] = {}
    row_balance: List[float] = []
    for row_index, constraint in enumerate(flow_rows):
        row_balance.append(-constraint.expression.constant)
        for variable, coefficient in constraint.expression.coefficients.items():
            if abs(coefficient) < _COEFFICIENT_EPSILON:
                continue
            if not variable.is_integer or not variable.name.startswith("x__"):
                raise _shape_error(
                    f"flow row references non-edge variable {variable.name!r}"
                )
            registry = source_row if coefficient > 0 else target_row
            if variable.name in registry:
                raise _shape_error(
                    f"edge variable {variable.name!r} appears twice with the "
                    "same flow direction"
                )
            registry[variable.name] = row_index

    edges_by_statement: Dict[str, List[_Edge]] = {}
    for variable in model.variables():
        if variable.is_integer:
            if not variable.name.startswith("x__"):
                raise _shape_error(f"unexpected integer variable {variable.name!r}")
            source = source_row.get(variable.name)
            target = target_row.get(variable.name)
            if source is None or target is None:
                raise _shape_error(
                    f"edge variable {variable.name!r} is missing from the flow rows"
                )
            edges_by_statement.setdefault(_statement_id(variable.name), []).append(
                _Edge(
                    variable=variable,
                    source=source,
                    target=target,
                    link=link_of.get(variable.name),
                )
            )
        elif variable.name not in reservation_variables and variable.name not in (
            "r_max",
            "R_max",
        ):
            raise _shape_error(f"unexpected continuous variable {variable.name!r}")

    statements: Dict[str, _PathStatement] = {}
    for identifier, edges in edges_by_statement.items():
        sources = set()
        sinks = set()
        adjacency: Dict[int, List[_Edge]] = {}
        for edge in edges:
            adjacency.setdefault(edge.source, []).append(edge)
            for vertex in (edge.source, edge.target):
                balance = row_balance[vertex]
                if balance > 0.5:
                    sources.add(vertex)
                elif balance < -0.5:
                    sinks.add(vertex)
        if len(sources) != 1 or len(sinks) != 1:
            raise _shape_error(
                f"statement {identifier!r} does not have exactly one "
                "source and one sink flow row"
            )
        guarantee = max(
            (guarantee_of.get(edge.variable.name, 0.0) for edge in edges),
            default=0.0,
        )
        statements[identifier] = _PathStatement(
            identifier=identifier,
            edges=edges,
            adjacency=adjacency,
            source=next(iter(sources)),
            sink=next(iter(sinks)),
            guarantee_mbps=guarantee,
        )
    if not statements:
        raise _shape_error("model has no edge variables")

    def _optional_variable(name: str) -> Optional[Variable]:
        try:
            return model.variable(name)
        except SolverError:
            return None

    return _DecodedProblem(
        statements=statements,
        capacity=capacity,
        reservation_variables=reservation_variables,
        r_max=_optional_variable("r_max"),
        big_r_max=_optional_variable("R_max"),
    )


def _best_path(
    statement: _PathStatement,
    load: Mapping[str, float],
    capacity: Mapping[str, float],
    forbidden: frozenset = frozenset(),
) -> Optional[List[_Edge]]:
    """The statement's best source-to-sink path on the current residual load.

    Lexicographic Dijkstra minimising ``(bottleneck utilisation after
    adding this statement's load, hop count)``; both label components are
    monotone along a path, and ties resolve by vertex id, so the result is
    deterministic.  Returns ``None`` when the sink is unreachable (all
    capacity-less or forbidden links pruned away).
    """
    guarantee = statement.guarantee_mbps
    infinity = (math.inf, math.inf)
    best: Dict[int, Tuple[float, int]] = {statement.source: (0.0, 0)}
    parent: Dict[int, _Edge] = {}
    heap: List[Tuple[float, int, int]] = [(0.0, 0, statement.source)]
    while heap:
        bottleneck, hops, vertex = heapq.heappop(heap)
        if (bottleneck, hops) != best.get(vertex):
            continue
        if vertex == statement.sink:
            break
        for edge in statement.adjacency.get(vertex, ()):
            link = edge.link
            if link is None or guarantee <= 0.0:
                edge_utilization = 0.0
            else:
                if link in forbidden:
                    continue
                cap = capacity.get(link, 0.0)
                if cap <= 0.0:
                    continue
                edge_utilization = (load.get(link, 0.0) + guarantee) / cap
            label = (
                bottleneck if bottleneck >= edge_utilization else edge_utilization,
                hops + 1,
            )
            if label < best.get(edge.target, infinity):
                best[edge.target] = label
                parent[edge.target] = edge
                heapq.heappush(heap, (label[0], label[1], edge.target))
    if statement.sink not in parent:
        return None
    path: List[_Edge] = []
    vertex = statement.sink
    while vertex != statement.source:
        edge = parent[vertex]
        path.append(edge)
        vertex = edge.source
    path.reverse()
    return path


def _loads(
    problem: _DecodedProblem, chosen: Mapping[str, Sequence[_Edge]]
) -> Dict[str, float]:
    """Exact per-link reserved Mbps under the chosen paths (multiplicity-aware)."""
    load: Dict[str, float] = {}
    for identifier, path in chosen.items():
        guarantee = problem.statements[identifier].guarantee_mbps
        if guarantee <= 0.0:
            continue
        for edge in path:
            if edge.link is not None:
                load[edge.link] = load.get(edge.link, 0.0) + guarantee
    return load


def _bottleneck(
    problem: _DecodedProblem, load: Mapping[str, float]
) -> Tuple[float, Optional[str]]:
    """The most-utilised link and its utilisation (deterministic tie-break)."""
    best_utilization = 0.0
    best_link: Optional[str] = None
    for link in sorted(load):
        cap = problem.capacity.get(link, 0.0)
        utilization = load[link] / cap if cap > 0.0 else math.inf
        if utilization > best_utilization:
            best_utilization = utilization
            best_link = link
    return best_utilization, best_link


class PrimalHeuristicSolver:
    """Deterministic iterated local search over per-statement path choices."""

    name = "heuristic"

    def __init__(
        self,
        time_limit_seconds: Optional[float] = None,
        max_rounds: int = 24,
    ) -> None:
        self.time_limit_seconds = time_limit_seconds
        self.max_rounds = max_rounds

    def solve(self, model: Model) -> SolveResult:
        """Find a feasible path assignment fast (``FEASIBLE``/``ERROR``).

        Raises :class:`SolverError` when the model is not a provisioning
        path model — the structural decode, not the search, is what fails.
        """
        started = telemetry.clock()
        problem = _decode_provisioning_model(model)
        deadline = (
            started + self.time_limit_seconds
            if self.time_limit_seconds is not None
            else None
        )

        # Phase 1: greedy construction on residual capacity, largest
        # guarantees first (they are the hardest to place late).
        order = sorted(
            problem.statements,
            key=lambda sid: (-problem.statements[sid].guarantee_mbps, sid),
        )
        load: Dict[str, float] = {}
        chosen: Dict[str, List[_Edge]] = {}
        for identifier in order:
            statement = problem.statements[identifier]
            path = _best_path(statement, load, problem.capacity)
            if path is None:
                return SolveResult(
                    status=SolveStatus.ERROR,
                    statistics={
                        "solve_seconds": telemetry.clock() - started,
                        "heuristic_unroutable": 1.0,
                    },
                )
            chosen[identifier] = path
            if statement.guarantee_mbps > 0.0:
                for edge in path:
                    if edge.link is not None:
                        load[edge.link] = (
                            load.get(edge.link, 0.0) + statement.guarantee_mbps
                        )

        # Phase 2: improvement / perturbation loop.
        rounds = 0
        while rounds < self.max_rounds:
            if deadline is not None and telemetry.clock() > deadline:
                break
            rounds += 1
            if self._improve_once(problem, chosen):
                continue
            if not self._perturb(problem, chosen, deadline):
                break

        return self._assemble(model, problem, chosen, started, rounds)

    # -- local search -----------------------------------------------------------

    def _bottleneck_users(
        self,
        problem: _DecodedProblem,
        chosen: Mapping[str, Sequence[_Edge]],
        bottleneck: str,
    ) -> List[str]:
        """Statements loading the bottleneck link, heaviest guarantee first."""
        return [
            identifier
            for identifier in sorted(
                chosen,
                key=lambda sid: (-problem.statements[sid].guarantee_mbps, sid),
            )
            if problem.statements[identifier].guarantee_mbps > 0.0
            and any(edge.link == bottleneck for edge in chosen[identifier])
        ]

    def _improve_once(
        self, problem: _DecodedProblem, chosen: Dict[str, List[_Edge]]
    ) -> bool:
        """Accept the first single-statement reroute that lowers the bottleneck."""
        load = _loads(problem, chosen)
        utilization, bottleneck = _bottleneck(problem, load)
        if bottleneck is None:
            return False
        for identifier in self._bottleneck_users(problem, chosen, bottleneck):
            statement = problem.statements[identifier]
            residual = dict(load)
            for edge in chosen[identifier]:
                if edge.link is not None:
                    residual[edge.link] -= statement.guarantee_mbps
            path = _best_path(statement, residual, problem.capacity)
            if path is None:
                continue
            for edge in path:
                if edge.link is not None:
                    residual[edge.link] = (
                        residual.get(edge.link, 0.0) + statement.guarantee_mbps
                    )
            new_utilization, _ = _bottleneck(problem, residual)
            if new_utilization < utilization - _IMPROVEMENT_EPSILON:
                chosen[identifier] = path
                return True
        return False

    def _perturb(
        self,
        problem: _DecodedProblem,
        chosen: Dict[str, List[_Edge]],
        deadline: Optional[float],
    ) -> bool:
        """Kick the heaviest bottleneck user off the bottleneck link and repair.

        The perturbed-and-repaired solution replaces the current one only
        when strictly better, so the search can never cycle.
        """
        load = _loads(problem, chosen)
        utilization, bottleneck = _bottleneck(problem, load)
        if bottleneck is None:
            return False
        users = self._bottleneck_users(problem, chosen, bottleneck)
        if not users:
            return False
        identifier = users[0]
        statement = problem.statements[identifier]
        residual = dict(load)
        for edge in chosen[identifier]:
            if edge.link is not None:
                residual[edge.link] -= statement.guarantee_mbps
        path = _best_path(
            statement, residual, problem.capacity, forbidden=frozenset((bottleneck,))
        )
        if path is None:
            return False
        candidate = dict(chosen)
        candidate[identifier] = path
        for _ in range(3):
            if deadline is not None and telemetry.clock() > deadline:
                break
            if not self._improve_once(problem, candidate):
                break
        new_utilization, _ = _bottleneck(problem, _loads(problem, candidate))
        if new_utilization < utilization - _IMPROVEMENT_EPSILON:
            chosen.clear()
            chosen.update(candidate)
            return True
        return False

    # -- result assembly --------------------------------------------------------

    def _assemble(
        self,
        model: Model,
        problem: _DecodedProblem,
        chosen: Mapping[str, Sequence[_Edge]],
        started: float,
        rounds: int,
    ) -> SolveResult:
        values: Dict[Variable, float] = {}
        for statement in problem.statements.values():
            for edge in statement.edges:
                values[edge.variable] = 0.0
        for path in chosen.values():
            for edge in path:
                values[edge.variable] = 1.0
        load = _loads(problem, chosen)
        max_fraction = 0.0
        max_reserved = 0.0
        for link, reservation in problem.reservation_variables.items():
            cap = problem.capacity[link]
            reserved = load.get(link, 0.0)
            fraction = reserved / cap if cap > 0.0 else 0.0
            values[reservation] = fraction
            max_fraction = max(max_fraction, fraction)
            max_reserved = max(max_reserved, reserved)
        if problem.r_max is not None:
            values[problem.r_max] = max_fraction
        if problem.big_r_max is not None:
            values[problem.big_r_max] = max_reserved

        statistics: Dict[str, float] = {
            "solve_seconds": telemetry.clock() - started,
            "num_variables": float(model.num_variables()),
            "num_integer_variables": float(model.num_integer_variables()),
            "heuristic_rounds": float(rounds),
        }
        if max_fraction > 1.0 + 1e-9:
            # The constructed assignment oversubscribes a link: no feasible
            # point found (the heuristic cannot prove none exists).
            statistics["heuristic_overload"] = max_fraction
            return SolveResult(status=SolveStatus.ERROR, statistics=statistics)
        return SolveResult(
            status=SolveStatus.FEASIBLE,
            values=values,
            objective=model.objective_value(values),
            statistics=statistics,
        )
