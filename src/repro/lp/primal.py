"""An anytime primal heuristic for the provisioning MIP.

The exact backends prove optimality; this backend trades the proof for
latency.  It reads the *structure* of a provisioning form through the
form's :class:`~repro.lp.model.PathLayout` — each member statement's range
of binary edge columns, whose +1 / -1 entries in the Equation-1 flow rows
name the edge's tail and head, and whose entry in a link's
Equation-2 row is minus the statement's guarantee — and then runs an
iterated two-phase local search over per-statement path choices:

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
construction order, member order or link order — so repeated solves of the
same form yield byte-identical allocations.  On success the result is
:attr:`~repro.lp.result.SolveStatus.FEASIBLE` (an incumbent without an
optimality proof, exactly like a time-limited exact solve); when no
capacity-respecting assignment is found the result is ``ERROR`` (a heuristic
cannot prove infeasibility).  A form without a path layout, or whose arrays
do not have the provisioning shape, raises :class:`~repro.errors.SolverError`
— this backend is a specialist, not a general MIP solver.

``ProvisionOptions(solver="heuristic")`` provisions a fat-tree component in
milliseconds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import SolverError
from .model import StandardForm
from .result import SolveResult, SolveStatus

#: Strict-improvement threshold for the local search: a reroute must lower
#: the bottleneck utilisation by more than this to be accepted.
_IMPROVEMENT_EPSILON = 1e-12

#: Coefficient magnitudes below this are treated as cancelled terms (a
#: self-loop edge contributes +1 and -1 to the same flow row).
_COEFFICIENT_EPSILON = 1e-9


@dataclass
class _Edge:
    """One decoded logical edge: its column and path structure."""

    column: int
    source: int
    target: int
    #: The physical link the edge maps onto, as the index of the link's
    #: reservation column among all of them (``None`` for "stay" edges).
    link: Optional[int]


@dataclass
class _PathStatement:
    """One statement's routing sub-problem."""

    adjacency: Dict[int, List[_Edge]]
    source: int
    sink: int
    guarantee_mbps: float


@dataclass
class _DecodedProblem:
    """The provisioning form re-read as a path-assignment problem, its
    statements keyed by member index."""

    statements: Dict[int, _PathStatement]
    capacity: Dict[int, float]
    #: Column of ``r_max``; ``R_max`` and the link reservations follow it.
    r_max: int


def _shape_error(detail: str) -> SolverError:
    return SolverError(
        f"the primal heuristic only solves provisioning path models: {detail}"
    )


def _decode_provisioning_form(form: StandardForm) -> _DecodedProblem:
    """Recover the path-assignment structure from a provisioning form.

    Every decoded fact is cross-checked against the layout the one model
    builder (``build_model_for_links``) documents, and any deviation
    raises :class:`SolverError` rather than guessing.
    """
    layout = form.layout
    if layout is None:
        raise _shape_error("the form carries no path layout")
    num_columns = form.num_variables()
    first_reservation = layout.r_max + 2
    num_links = num_columns - first_reservation
    first_flow_row = 2 * num_links
    num_flow_rows = form.num_constraints() - 3 * num_links
    integrality = form.integrality
    if (
        num_links < 0
        or num_flow_rows < 0
        or int(integrality.sum())
        != sum(stop - start for start, stop in layout.members)
        or not all(integrality[start:stop].all() for start, stop in layout.members)
    ):
        raise _shape_error("the layout does not match the form's columns")
    if not (
        np.isneginf(form.row_lower[:first_flow_row]).all()
        and np.array_equal(
            form.row_lower[first_flow_row:], form.row_upper[first_flow_row:]
        )
    ):
        raise _shape_error("the layout does not match the form's rows")
    # Only the equality rows (flow, then Equation 2) are read, numbered
    # from the first flow row.
    entry_starts = form.start.tolist()
    rows = (form.index - first_flow_row).tolist()
    data = form.value.tolist()
    balance = form.row_upper[first_flow_row:].tolist()

    def entries(column: int) -> List[Tuple[int, float]]:
        begin, end = entry_starts[column], entry_starts[column + 1]
        return [
            (row, coefficient)
            for row, coefficient in zip(rows[begin:end], data[begin:end])
            if row >= 0
        ]

    capacity: Dict[int, float] = {}
    for link in range(num_links):
        found = entries(first_reservation + link)
        if len(found) != 1 or found[0][0] != num_flow_rows + link or found[0][1] <= 0.0:
            raise _shape_error(
                f"link {link} lacks a positive-capacity reservation term in its row"
            )
        capacity[link] = found[0][1]

    statements: Dict[int, _PathStatement] = {}
    for member, (start, stop) in enumerate(layout.members):
        edges: List[_Edge] = []
        guarantee = 0.0
        for column in range(start, stop):
            source = target = link = None
            for row, coefficient in entries(column):
                if row >= num_flow_rows:
                    if link is not None or coefficient >= 0.0:
                        raise _shape_error(
                            f"edge column {column} has a second or a non-negative "
                            "reservation term"
                        )
                    link = row - num_flow_rows
                    guarantee = max(guarantee, -coefficient)
                elif abs(coefficient) < _COEFFICIENT_EPSILON:
                    continue
                elif coefficient > 0.0 and source is None:
                    source = row
                elif coefficient < 0.0 and target is None:
                    target = row
                else:
                    raise _shape_error(
                        f"edge column {column} appears twice with the same "
                        "flow direction"
                    )
            if source is None or target is None:
                raise _shape_error(
                    f"edge column {column} is missing from the flow rows"
                )
            edges.append(_Edge(column=column, source=source, target=target, link=link))

        sources = set()
        sinks = set()
        adjacency: Dict[int, List[_Edge]] = {}
        for edge in edges:
            adjacency.setdefault(edge.source, []).append(edge)
            for vertex in (edge.source, edge.target):
                if balance[vertex] > 0.5:
                    sources.add(vertex)
                elif balance[vertex] < -0.5:
                    sinks.add(vertex)
        if len(sources) != 1 or len(sinks) != 1:
            raise _shape_error(
                f"member {member} does not have exactly one source and one "
                "sink flow row"
            )
        statements[member] = _PathStatement(
            adjacency=adjacency,
            source=next(iter(sources)),
            sink=next(iter(sinks)),
            guarantee_mbps=guarantee,
        )
    if not statements:
        raise _shape_error("the form has no edge columns")
    return _DecodedProblem(
        statements=statements, capacity=capacity, r_max=layout.r_max
    )


def _best_path(
    statement: _PathStatement,
    load: Mapping[int, float],
    capacity: Mapping[int, float],
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
    problem: _DecodedProblem, chosen: Mapping[int, Sequence[_Edge]]
) -> Dict[int, float]:
    """Exact per-link reserved Mbps under the chosen paths (multiplicity-aware)."""
    load: Dict[int, float] = {}
    for identifier, path in chosen.items():
        guarantee = problem.statements[identifier].guarantee_mbps
        if guarantee <= 0.0:
            continue
        for edge in path:
            if edge.link is not None:
                load[edge.link] = load.get(edge.link, 0.0) + guarantee
    return load


def _bottleneck(
    problem: _DecodedProblem, load: Mapping[int, float]
) -> Tuple[float, Optional[int]]:
    """The most-utilised link and its utilisation (ties go to the first
    link in the form's link order)."""
    best_utilization = 0.0
    best_link: Optional[int] = None
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

    def solve(self, form: StandardForm) -> SolveResult:
        """Find a feasible path assignment fast (``FEASIBLE``/``ERROR``).

        Raises :class:`SolverError` when the form is not a provisioning
        path model — the structural decode, not the search, is what fails.
        """
        started = telemetry.clock()
        problem = _decode_provisioning_form(form)
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
        load: Dict[int, float] = {}
        chosen: Dict[int, List[_Edge]] = {}
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

        return self._assemble(form, problem, chosen, started, rounds)

    # -- local search -----------------------------------------------------------

    def _bottleneck_users(
        self,
        problem: _DecodedProblem,
        chosen: Mapping[int, Sequence[_Edge]],
        bottleneck: int,
    ) -> List[int]:
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
        self, problem: _DecodedProblem, chosen: Dict[int, List[_Edge]]
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
        chosen: Dict[int, List[_Edge]],
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
        form: StandardForm,
        problem: _DecodedProblem,
        chosen: Mapping[int, Sequence[_Edge]],
        started: float,
        rounds: int,
    ) -> SolveResult:
        x = np.zeros(form.num_variables())
        for path in chosen.values():
            for edge in path:
                x[edge.column] = 1.0
        load = _loads(problem, chosen)
        max_fraction = 0.0
        max_reserved = 0.0
        first_reservation = problem.r_max + 2
        for link, cap in problem.capacity.items():
            reserved = load.get(link, 0.0)
            fraction = reserved / cap
            x[first_reservation + link] = fraction
            max_fraction = max(max_fraction, fraction)
            max_reserved = max(max_reserved, reserved)
        x[problem.r_max] = max_fraction
        x[problem.r_max + 1] = max_reserved

        statistics: Dict[str, float] = {
            "solve_seconds": telemetry.clock() - started,
            "num_variables": float(form.num_variables()),
            "num_integer_variables": float(form.integrality.sum()),
            "heuristic_rounds": float(rounds),
        }
        if max_fraction > 1.0 + 1e-9:
            # The constructed assignment oversubscribes a link: no feasible
            # point found (the heuristic cannot prove none exists).
            statistics["heuristic_overload"] = max_fraction
            return SolveResult(status=SolveStatus.ERROR, statistics=statistics)
        # Summed term by term in column order: a dot product's rounding
        # depends on the BLAS build.
        coefficients, values = form.c.tolist(), x.tolist()
        objective = sum(
            coefficients[column] * values[column]
            for column in np.flatnonzero(form.c).tolist()
        )
        return SolveResult(
            status=SolveStatus.FEASIBLE,
            x=x,
            objective=objective,
            statistics=statistics,
        )
