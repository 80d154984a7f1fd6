"""Bandwidth provisioning for guaranteed traffic (§3.2).

Statements whose localized rates include a guarantee are provisioned by
solving a mixed-integer program over the union of their logical topologies —
a single-path multi-commodity-flow variant:

* one {0,1} decision variable ``x_e`` per logical edge (Equation 1 enforces
  a single source-to-sink path per statement via flow conservation),
* one continuous variable ``r_uv`` per physical link for the fraction of its
  capacity reserved (Equation 2),
* ``r_max`` / ``R_max`` tracking the maximum reserved fraction / amount on
  any link (Equations 3 and 4), with ``r_max <= 1`` guaranteeing that no
  link is over-subscribed (Equation 5).

Three optimisation criteria are supported (Figure 3): weighted shortest
path, min-max ratio, and min-max reserved.

Construction pipeline
---------------------
The MIP is assembled in a single indexed pass (:func:`build_provisioning_model`):
each statement's logical edges are walked exactly once, creating the binary
edge variable, bucketing it by source/target vertex (for the Equation-1 flow
balances) and by ``tuple(sorted(edge.physical_link))`` (for the Equation-2
reservation rows).  Reservation constraints are then emitted per physical
link straight from the bucket, so construction costs O(S·E + L) instead of
the naive O(S·E·L) rescan of every statement's edges for every link.  All
loop-grown expressions use the in-place :meth:`~repro.lp.expr.LinExpr.add_term`
accumulation API rather than the copying ``+`` operator.

:class:`ProvisioningResult` reports construction and solve time separately
(``lp_construction_seconds`` / ``lp_solve_seconds``) so the Figure 8 scaling
benchmark can attribute compile time to model building vs the MIP solver.

Partitioned solving
-------------------
Statements are coupled only through the per-link reservation rows, so the
MIP decomposes exactly along connected components of the "shares a physical
link" relation.  All provisioning — a full compile, a delta, a bare
:func:`provision` call — goes through the incremental engine
(:mod:`repro.incremental.engine`), which partitions the statements by their
tightened link footprints, builds one sub-model per component with
:func:`build_model_for_links`, solves the dirty components independently
and merges the reservations.  Within a component the min-max objectives are
unchanged; across components the merged solution minimises every
component's bottleneck (a per-component lexicographic strengthening of the
global min-max criterion).  ``ProvisionOptions(partition=False)`` makes the
engine treat the whole population as one untightened component over every
link — the undecomposed model, built and solved by the same code as any
other component.  :func:`build_provisioning_model` is that model in the
caller's statement order and ``topology.links()`` order: the reference
builder the equivalence tests compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ProvisioningError
from ..lp.constraint import Constraint
from ..lp.expr import LinExpr, Variable
from ..lp.model import Model, Objective
from ..regex.ast import Regex, Symbol
from ..regex.substitution import functions_used
from ..topology.graph import Topology
from ..units import Bandwidth
from .allocation import PathAssignment
from .ast import Statement
from .localization import LocalRates
from .logical import SINK, SOURCE, LogicalEdge, LogicalTopology

from .options import ProvisionOptions

#: Rates are expressed in Mbps inside the MIP to keep coefficients well-scaled.
_MBPS = 1e6


class PathSelectionHeuristic(enum.Enum):
    """The optimisation criterion used to break ties among feasible assignments."""

    WEIGHTED_SHORTEST_PATH = "weighted-shortest-path"
    MIN_MAX_RATIO = "min-max-ratio"
    MIN_MAX_RESERVED = "min-max-reserved"


@dataclass
class ProvisioningResult:
    """The outcome of the guaranteed-traffic provisioning stage.

    ``solve_status`` is the aggregated solver outcome (``"optimal"`` unless
    some partition stopped on a limit with an unproven incumbent, in which
    case it is ``"feasible"``), and ``solve_statistics`` carries aggregated
    MIP diagnostics (``nodes``, ``best_bound``, ``gap``, partition counts)
    for the benchmark tables.  ``partition_solutions`` are the
    per-component solutions the result was merged from.
    """

    paths: Dict[str, PathAssignment]
    link_reservations: Dict[Tuple[str, str], Bandwidth]
    max_utilization: float
    max_reservation: Bandwidth
    lp_construction_seconds: float
    lp_solve_seconds: float
    num_variables: int
    num_constraints: int
    solve_status: str = "optimal"
    solve_statistics: Dict[str, float] = field(default_factory=dict)
    num_partitions: int = 0
    partition_solutions: List["PartitionSolution"] = field(
        default_factory=list, repr=False
    )


def provision(
    statements: Sequence[Statement],
    logical_topologies: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
    options: Optional[ProvisionOptions] = None,
) -> ProvisioningResult:
    """Select paths and reserve bandwidth for the guaranteed statements.

    A history-free run of the incremental engine: a fresh
    :class:`~repro.incremental.engine.IncrementalProvisioner` takes every
    statement (each needs a guarantee in ``rates`` and a pre-built logical
    topology in ``logical_topologies``) and resolves once.  Raises
    :class:`ProvisioningError` when no assignment satisfies the constraints
    (for example, when the requested guarantees exceed every allowed path's
    capacity).
    """
    # Imported lazily: repro.incremental builds on this module.
    from ..incremental.engine import IncrementalProvisioner

    engine = IncrementalProvisioner(
        topology, placements, heuristic=heuristic, options=options
    )
    for statement in statements:
        local = rates[statement.identifier]
        engine.add_statement(
            statement,
            local.guarantee,
            cap=local.cap,
            logical=logical_topologies[statement.identifier],
        )
    return engine.resolve()


@dataclass
class ProvisioningModel:
    """The assembled MIP plus the variable indexes needed to read a solution.

    ``logical_topologies`` records each member statement's product graph
    so a solution can be decoded into location paths without re-supplying
    the construction inputs.
    """

    model: Model
    edge_variables: Dict[str, Dict[int, Variable]]
    reservation_fraction: Dict[Tuple[str, str], Variable]
    r_max: Variable
    big_r_max: Variable
    logical_topologies: Dict[str, LogicalTopology] = field(default_factory=dict)


def build_provisioning_model(
    statements: Sequence[Statement],
    logical_topologies: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    topology: Topology,
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
) -> ProvisioningModel:
    """Assemble the full provisioning MIP over every physical link.

    The reference builder: statements in the order given, reservation rows
    for the whole topology in ``topology.links()`` order.  The engine never
    calls it — every model it solves comes from :func:`build_model_for_links`
    over a component's sorted members and links — and the equivalence tests
    hold the two against each other.
    """
    links = [
        (
            tuple(sorted((link.source, link.target))),
            link.capacity.bps_value / _MBPS,
        )
        for link in topology.links()
    ]
    return build_model_for_links(
        statements, logical_topologies, rates, links, heuristic=heuristic
    )


def splice_statement_rows(
    model: Model, statement: Statement, logical: LogicalTopology
) -> Tuple[Dict[int, Variable], List[Constraint], Dict[Tuple[str, str], List[Variable]]]:
    """Create one statement's binary edge variables and Equation-1 flow rows.

    The per-statement construction inside :func:`build_model_for_links`:
    variable naming (``x__{id}__{index}``), flow-row naming
    (``flow__{id}__{vertex}``), and emission order are what the primal
    heuristic decodes and what makes a rebuilt component byte-identical to
    the memoized one.
    Returns ``(edge variables by index, flow-row constraints, variables
    bucketed by the undirected physical link they map onto)`` — the caller
    turns the link buckets into Equation-2 reservation terms.
    """
    identifier = statement.identifier
    variables: Dict[int, Variable] = {}
    outgoing: Dict[object, LinExpr] = {}
    touched: Dict[Tuple[str, str], List[Variable]] = {}
    for index, edge in enumerate(logical.edges):
        variable = model.add_binary(f"x__{identifier}__{index}")
        variables[index] = variable
        outgoing.setdefault(edge.source, LinExpr()).add_term(variable, 1.0)
        outgoing.setdefault(edge.target, LinExpr()).add_term(variable, -1.0)
        if edge.physical_link is not None:
            touched.setdefault(tuple(sorted(edge.physical_link)), []).append(
                variable
            )
    flow_rows: List[Constraint] = []
    # Rows go out in first-appearance order of ``logical.edges`` (the key
    # order of ``outgoing``), never in the iteration order of the
    # ``vertices`` set: that order changes with PYTHONHASHSEED, and the row
    # order decides which of several equal-objective optima a solver returns.
    for vertex, flow in outgoing.items():
        if vertex == SOURCE:
            balance = 1.0
        elif vertex == SINK:
            balance = -1.0
        else:
            balance = 0.0
        flow_rows.append(
            model.add_constraint(
                flow.equals(balance),
                name=f"flow__{identifier}__{vertex[0]}_{vertex[1]}",
            )
        )
    return variables, flow_rows, touched


def build_model_for_links(
    statements: Sequence[Statement],
    logical_topologies: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    links: Sequence[Tuple[Tuple[str, str], float]],
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
) -> ProvisioningModel:
    """Assemble the provisioning MIP with a one-pass indexed construction.

    Each statement's logical edges are enumerated exactly once; the pass
    creates the edge's binary variable and buckets it three ways — by source
    vertex, by target vertex (both feed the Equation-1 flow balances), and by
    the undirected physical link it maps onto (feeding the Equation-2
    reservation row of that link).  Emitting constraints from the buckets
    makes construction O(S·E + L) in the number of statements S, logical
    edges per statement E, and physical links L.

    ``links`` is the sequence of ``(link key, capacity in Mbps)`` pairs to
    emit reservation rows for — the whole topology for a monolithic build,
    or one partition's footprint for a component sub-model.  The model (and
    hence the solver's input) is a deterministic function of the statement
    order and the link order, which is what lets the incremental engine
    reuse cached component solutions: rebuilding an unchanged component in
    canonical order yields a byte-identical model.
    """
    model = Model(name="merlin-provisioning")
    edge_variables: Dict[str, Dict[int, Variable]] = {}
    # (variable, guarantee_mbps) terms of each physical link's Equation 2.
    link_terms: Dict[Tuple[str, str], List[Tuple[Variable, float]]] = {}

    # Per-statement edge variables and flow conservation (Equation 1).
    for statement in statements:
        logical = logical_topologies[statement.identifier]
        if logical.num_edges() == 0:
            raise ProvisioningError(
                f"statement {statement.identifier!r} has no feasible path "
                "satisfying its path expression"
            )
        guarantee = rates[statement.identifier].guarantee
        guarantee_mbps = (
            guarantee.bps_value / _MBPS if guarantee is not None else None
        )
        variables, _, touched = splice_statement_rows(model, statement, logical)
        edge_variables[statement.identifier] = variables
        if guarantee_mbps is not None:
            for link_key, link_variables in touched.items():
                link_terms.setdefault(link_key, []).extend(
                    (variable, guarantee_mbps) for variable in link_variables
                )

    # Link reservation variables and Equations 2-5.
    r_max, big_r_max, reservation_fraction, max_capacity_mbps = emit_link_rows(
        model, links, link_terms
    )

    set_provisioning_objective(
        model,
        statements,
        logical_topologies,
        rates,
        edge_variables,
        r_max,
        big_r_max,
        heuristic,
        max_capacity_mbps,
    )

    return ProvisioningModel(
        model=model,
        edge_variables=edge_variables,
        reservation_fraction=reservation_fraction,
        r_max=r_max,
        big_r_max=big_r_max,
        logical_topologies={
            statement.identifier: logical_topologies[statement.identifier]
            for statement in statements
        },
    )


def emit_link_rows(
    model: Model,
    links: Sequence[Tuple[Tuple[str, str], float]],
    link_terms: Mapping[Tuple[str, str], Sequence[Tuple[Variable, float]]],
) -> Tuple[Variable, Variable, Dict[Tuple[str, str], Variable], float]:
    """Create ``r_max`` / ``R_max`` and every link's Equation 2-4 rows.

    ``link_terms`` maps a link key to its ``(edge variable, guarantee Mbps)``
    pairs — the indexed construction's per-link buckets.  Returns
    ``(r_max, R_max, reservation fractions, largest link capacity in Mbps)``.
    """
    reservation_fraction: Dict[Tuple[str, str], Variable] = {}
    r_max = model.add_continuous("r_max", lower=0.0, upper=1.0)
    big_r_max = model.add_continuous("R_max", lower=0.0)
    max_capacity_mbps = 0.0
    for key, capacity_mbps in links:
        max_capacity_mbps = max(max_capacity_mbps, capacity_mbps)
        r_uv = model.add_continuous(f"r__{key[0]}__{key[1]}", lower=0.0, upper=1.0)
        reservation_fraction[key] = r_uv
        # Equation 2: r_uv * c_uv = sum of reserved guarantees on the link,
        # emitted straight from the link's bucket.
        reserve = LinExpr.weighted_sum(
            (variable, -guarantee_mbps)
            for variable, guarantee_mbps in link_terms.get(key, ())
        ).add_term(r_uv, capacity_mbps)
        model.add_constraint(
            reserve.equals(0.0), name=f"reserve__{key[0]}__{key[1]}"
        )
        # Equation 3: r_max >= r_uv.
        model.add_constraint(r_max - r_uv >= 0.0, name=f"rmax__{key[0]}__{key[1]}")
        # Equation 4: R_max >= r_uv * c_uv.
        model.add_constraint(
            big_r_max - r_uv * capacity_mbps >= 0.0,
            name=f"Rmax__{key[0]}__{key[1]}",
        )
    # Equation 5 is expressed through the [0, 1] bound on r_max and r_uv.
    return r_max, big_r_max, reservation_fraction, max_capacity_mbps


def set_provisioning_objective(
    model: Model,
    statements: Sequence[Statement],
    logical_topologies: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    edge_variables: Mapping[str, Mapping[int, Variable]],
    r_max: Variable,
    big_r_max: Variable,
    heuristic: PathSelectionHeuristic,
    max_capacity_mbps: float,
) -> None:
    """Set the path-selection objective on a provisioning model.

    For the min-max heuristics the per-edge tiebreaker epsilon is also
    published as :attr:`~repro.lp.model.Model.objective_resolution` — the
    smallest objective difference that distinguishes two genuinely
    different solutions.  Solvers that prune within an absolute gap (the
    pure-Python branch-and-bound) scale their gap below it, so an
    equal-``r_max`` incumbent cannot prune the marginally-cheaper-tiebreaker
    optimum, even on components whose epsilon falls under the solver's
    default gap (>~1000 logical edges).
    """
    if heuristic is PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH:
        objective = LinExpr()
        for statement in statements:
            guarantee = rates[statement.identifier].guarantee
            weight = (guarantee.bps_value / _MBPS) if guarantee else 1.0
            logical = logical_topologies[statement.identifier]
            variables = edge_variables[statement.identifier]
            for index, edge in enumerate(logical.edges):
                if edge.physical_link is not None:
                    objective.add_term(variables[index], weight)
        model.minimize(objective)
        model.objective_resolution = None
    elif heuristic is PathSelectionHeuristic.MIN_MAX_RATIO:
        # Genuine r_max optima differ by at least the smallest guarantee as
        # a fraction of the largest capacity; cap the total tiebreaker below
        # that quantum so it can never outweigh a real utilization
        # improvement (and below 1e-3 regardless, r_max being a fraction).
        quantum = (
            _guarantee_quantum_mbps(statements, rates) / max_capacity_mbps
            if max_capacity_mbps > 0.0
            else 1.0
        )
        magnitude = min(1e-3, quantum)
        tiebreaker = _edge_tiebreaker(edge_variables, magnitude=magnitude)
        model.minimize(tiebreaker.add_term(r_max, 1.0))
        model.objective_resolution = _tiebreaker_epsilon(edge_variables, magnitude)
    elif heuristic is PathSelectionHeuristic.MIN_MAX_RESERVED:
        # R_max is in Mbps; genuine optima differ by (combinations of) the
        # statement guarantees, so keep the total penalty three orders of
        # magnitude below the smallest one.
        magnitude = _guarantee_quantum_mbps(statements, rates) * 1e-3
        tiebreaker = _edge_tiebreaker(edge_variables, magnitude=magnitude)
        model.minimize(tiebreaker.add_term(big_r_max, 1.0))
        model.objective_resolution = _tiebreaker_epsilon(edge_variables, magnitude)
    else:  # pragma: no cover - the enum is exhaustive
        raise ProvisioningError(f"unknown heuristic {heuristic!r}")


def _guarantee_quantum_mbps(
    statements: Sequence[Statement], rates: Mapping[str, LocalRates]
) -> float:
    """The smallest guarantee (Mbps) among the statements — the step size by
    which reservation objectives can genuinely differ (1.0 when none)."""
    guarantees_mbps = [
        rates[statement.identifier].guarantee.bps_value / _MBPS
        for statement in statements
        if rates[statement.identifier].guarantee is not None
    ]
    return min(guarantees_mbps) if guarantees_mbps else 1.0


def _tiebreaker_epsilon(
    edge_variables: Mapping[str, Mapping[int, Variable]], magnitude: float
) -> float:
    """The per-edge tiebreaker coefficient — the model's objective resolution."""
    total_edges = sum(len(variables) for variables in edge_variables.values())
    return magnitude / (total_edges + 1)


def _edge_tiebreaker(
    edge_variables: Mapping[str, Mapping[int, Variable]], magnitude: float = 1e-3
) -> LinExpr:
    """A tiny penalty on every selected edge.

    The min-max objectives are indifferent to how many edges a statement
    uses, so without a tiebreaker the MIP may return a path plus spurious
    disconnected cycles (which satisfy flow conservation).  A negligible
    per-edge cost removes them without affecting the min-max optimum.

    The per-edge epsilon is ``magnitude / (total_edges + 1)``
    (:func:`_tiebreaker_epsilon`), so the total penalty stays strictly
    below ``magnitude`` even if every edge were selected; callers pass a
    magnitude below the smallest genuine objective difference (the
    guarantee quantum).  (A fixed per-edge epsilon would grow linearly with
    the number of selected edges and, on topologies with thousands of
    logical edges, could exceed genuine objective differences and distort
    the min-max optimum; an epsilon much further below the quantum would
    fall under the solver's tolerances and stop suppressing cycles.)
    """
    epsilon = _tiebreaker_epsilon(edge_variables, magnitude)
    return LinExpr.weighted_sum(
        (variable, epsilon)
        for variables in edge_variables.values()
        for variable in variables.values()
    )


def _extract_path(selected_edges: Sequence[LogicalEdge]) -> List[str]:
    """Reconstruct the location sequence from the selected logical edges."""
    by_source = {edge.source: edge for edge in selected_edges}
    locations: List[str] = []
    vertex = SOURCE
    visited = set()
    while vertex != SINK:
        if vertex in visited:
            raise ProvisioningError("MIP solution contains a cycle; cannot extract path")
        visited.add(vertex)
        edge = by_source.get(vertex)
        if edge is None:
            raise ProvisioningError("MIP solution does not form a source-to-sink path")
        if edge.target != SINK:
            locations.append(edge.location)
        vertex = edge.target
    return locations


def _assign_functions(
    path_expression: Regex,
    location_path: Sequence[str],
    placements: Mapping[str, Iterable[str]],
    topology: Topology,
) -> Dict[str, str]:
    """Choose which location on the path hosts each packet-processing function.

    Function occurrences are assigned greedily in the order they appear in
    the path expression, scanning the location path left to right; a location
    may serve several consecutive functions (the logical topology's "stay"
    edges make it appear multiple times in the path).
    """
    functions = functions_used(path_expression, topology.locations())
    if not functions:
        return {}
    occurrences = _function_occurrences(path_expression, functions)
    assignments: Dict[str, str] = {}
    cursor = 0
    for function in occurrences:
        candidates = set(placements.get(function, ()))
        for index in range(cursor, len(location_path)):
            if location_path[index] in candidates:
                assignments[function] = location_path[index]
                cursor = index
                break
        else:
            # Fall back to any candidate on the path (ordering could not be
            # respected, which can happen when the MIP path revisits nodes).
            for location in location_path:
                if location in candidates:
                    assignments.setdefault(function, location)
                    break
    return assignments


def _function_occurrences(expression: Regex, functions) -> List[str]:
    """Function names in left-to-right order of appearance in the expression."""
    ordered: List[str] = []

    def walk(node: Regex) -> None:
        if isinstance(node, Symbol):
            if node.name in functions and node.name not in ordered:
                ordered.append(node.name)
            return
        for child in node.children():
            walk(child)

    walk(expression)
    return ordered
