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

The solver chooses the edge columns; the reservations follow from them.
A link's reserved fraction is read back as its Equation-2 row at the
rounded 0/1 edge columns — the guarantees routed over the link over its
capacity (:func:`repro.incremental.solve.extract_partition_solution`) —
so two proofs of the same optimum report the same reservations to the ulp.

Three optimisation criteria are supported (Figure 3): weighted shortest
path, min-max ratio, and min-max reserved.

Construction
------------
The MIP is built straight into the sparse standard form every backend
solves (:class:`~repro.lp.model.StandardForm`).  A statement's Equation-1
block — one binary column per logical edge, one flow-balance row per
logical vertex, the link each edge crosses — depends on its product graph
alone, so :func:`flow_block` indexes it once per graph, and the incremental
engine keeps it beside the tightened view it was cut from
(``StatementRecord.views``): a rate change reuses it, a new product graph
starts without one.  :func:`build_model_for_links` places the members'
blocks at their column and row offsets and appends the Equation 2-4 rows of
every link and the objective vector, all as index arrays, in O(S·E + L).
The object-per-term builder it replaced is kept as the tests' reference
(``tests/reference_provisioning.py``, over the modelling front end in
``tests/reference_lp.py``): both must hand the solver the same arrays,
element for element.

:class:`ProvisioningResult` reports construction and solve time separately
(``lp_construction_seconds`` / ``lp_solve_seconds``) so the Figure 8 scaling
benchmark can attribute compile time to model building vs the MIP solver.

Partitioned solving
-------------------
Statements are coupled only through the per-link reservation rows, so the
MIP decomposes exactly along connected components of the "shares a physical
link" relation.  All provisioning — a full compile or a delta — goes
through the incremental engine (:mod:`repro.incremental.engine`), which
partitions the statements by their tightened link footprints, builds one
sub-model per component with :func:`build_model_for_links`, solves the
dirty components independently and merges the reservations.  Within a
component the min-max objectives are unchanged; across components the
merged solution minimises every component's bottleneck (a per-component
lexicographic strengthening of the global min-max criterion).
``ProvisionOptions(partition=False)`` makes the engine treat the whole
population as one untightened component over every link — the undecomposed
model, built and solved by the same code as any other component.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as sp

from ..errors import ProvisioningError
from ..lp.model import PathLayout, StandardForm
from ..regex.ast import Regex, Symbol
from ..regex.substitution import functions_used
from ..topology.graph import Topology
from ..units import Bandwidth
from .allocation import PathAssignment
from .ast import Statement
from .localization import LocalRates
from .logical import SINK, SOURCE, LogicalTopology, Pair
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

    Nothing calls it: a compile adds its statements to the session's
    engine.  It stays while ``bench/trace.py`` names it as a target, whose
    harness test requires every target to resolve.
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


@dataclass(frozen=True)
class FlowBlock:
    """One statement's Equation-1 block, as arrays local to the block.

    A function of the statement's (tightened) product graph alone — not of
    its rates, nor of the other members of its component — so it is
    computed once per graph (:func:`flow_block`) and placed at any column
    and row offset.  Column ``i`` is the binary variable of the edge
    ``pairs[i]``; the flow rows follow the first appearance of each vertex
    in ``pairs`` (tail before head), never the iteration order of the
    vertex set, which changes with ``PYTHONHASHSEED`` — and the row order
    decides which of several equal-objective optima a solver returns.
    """

    #: The product graph's ``(tail, head)`` pairs (shared, not copied):
    #: what a selected column is read back as.
    pairs: Sequence[Pair]
    #: The flow-row entries of each column: +1 in its edge's tail row, -1
    #: in its head row.
    tails: np.ndarray
    heads: np.ndarray
    #: Each flow row's right-hand side: 1 at the source, -1 at the sink.
    balances: np.ndarray
    #: The columns of the edges that cross a physical link, and for each
    #: its link's index into ``links``.
    linked: np.ndarray
    slots: np.ndarray
    #: The undirected keys of the links the edges cross.
    links: Tuple[Tuple[str, str], ...]


_BALANCE = {SOURCE: 1.0, SINK: -1.0}


def flow_block(logical: LogicalTopology) -> FlowBlock:
    """Index one product graph's pairs into its Equation-1 block.

    A pair crosses the link between its tail's and its head's locations
    unless it leaves the source, enters the sink or stays at one location
    (:func:`~repro.core.logical.edge_fields`, inlined).
    """
    row_of: Dict[object, int] = {}
    tails: List[int] = []
    heads: List[int] = []
    linked: List[int] = []
    slot_of: Dict[Tuple[str, str], int] = {}
    slots: List[int] = []
    for index, (tail, head) in enumerate(logical.pairs):
        tails.append(row_of.setdefault(tail, len(row_of)))
        heads.append(row_of.setdefault(head, len(row_of)))
        if tail is SOURCE or head is SINK:
            continue
        u, v = tail[0], head[0]
        if u != v:
            linked.append(index)
            slots.append(slot_of.setdefault((u, v) if u < v else (v, u), len(slot_of)))
    # 32-bit indices keep blocks small: each lives as long as its record.
    return FlowBlock(
        pairs=logical.pairs,
        tails=np.array(tails, dtype=np.int32),
        heads=np.array(heads, dtype=np.int32),
        # An interior row's right-hand side is -0.0: the sign the exported
        # ``flow == 0`` row of the object builder carried, which keeps the
        # solver's input byte for byte what it was.
        balances=np.array(
            [_BALANCE.get(vertex, -0.0) for vertex in row_of], dtype=float
        ),
        linked=np.array(linked, dtype=np.int32),
        slots=np.array(slots, dtype=np.int32),
        links=tuple(slot_of),
    )


@dataclass
class ProvisioningModel:
    """One component's MIP in sparse standard form, and where its answer is.

    The column order is every member's edge columns (member order, each
    block's edge order), then ``r_max`` and ``R_max``, then one reserved
    fraction per link in ``links`` order — ``model.layout`` records the
    member ranges and the ``r_max`` column.  ``A_eq`` holds every member's
    flow rows and then each link's Equation-2 row; ``A_ub`` holds each
    link's Equation-3 and Equation-4 rows in turn.
    """

    model: StandardForm
    #: Member statement identifiers, in column order, with their blocks.
    members: Tuple[str, ...]
    blocks: Tuple[FlowBlock, ...]
    links: Tuple[Tuple[str, str], ...]
    #: Each link's capacity in Mbps, in ``links`` order.
    capacities: np.ndarray


def build_model_for_links(
    statement_ids: Sequence[str],
    blocks: Mapping[str, FlowBlock],
    rates: Mapping[str, LocalRates],
    links: Sequence[Tuple[Tuple[str, str], float]],
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
) -> ProvisioningModel:
    """Assemble the provisioning MIP from its members' Equation-1 blocks.

    Each member's block is placed at its column and row offset, then the
    Equation 2-4 rows of every link and the objective vector are appended,
    all as index arrays; the triplets become CSR matrices in one
    conversion each.  Construction is O(S·E + L) in the number of
    statements S, logical edges per statement E, and physical links L.

    ``links`` is the sequence of ``(link key, capacity in Mbps)`` pairs to
    emit reservation rows for — the whole topology for a monolithic build,
    or one partition's footprint for a component sub-model; an edge whose
    link is not among them adds no reservation term.  The model (and hence
    the solver's input) is a deterministic function of the statement
    order and the link order, which is what lets the incremental engine
    reuse cached component solutions: rebuilding an unchanged component in
    canonical order yields a byte-identical model.
    """
    members = tuple(blocks[sid] for sid in statement_ids)
    for sid, block in zip(statement_ids, members):
        if not block.pairs:
            raise ProvisioningError(
                f"statement {sid!r} has no feasible path satisfying its path "
                "expression"
            )
    guarantees = [_guarantee_mbps(rates[sid]) for sid in statement_ids]
    column_starts = np.cumsum([0] + [len(block.pairs) for block in members])
    row_starts = np.cumsum([0] + [block.balances.size for block in members])
    num_edges = int(column_starts[-1])
    num_flow_rows = int(row_starts[-1])
    keys = tuple(key for key, _ in links)
    capacities = np.array([capacity for _, capacity in links], dtype=float)
    num_links = len(keys)
    r_max, big_r_max, first_reservation = num_edges, num_edges + 1, num_edges + 2
    num_columns = first_reservation + num_links
    reservation = first_reservation + np.arange(num_links)
    starts = list(zip(members, column_starts.tolist(), row_starts.tolist()))

    # Equation 1: each member's flow rows at its offsets, every column's
    # +1 entry and then every column's -1 entry.
    eq_rows = [block.tails + row for block, _, row in starts]
    eq_rows += [block.heads + row for block, _, row in starts]
    eq_columns = [np.arange(num_edges), np.arange(num_edges)]
    eq_values = [np.ones(num_edges), np.full(num_edges, -1.0)]
    # Equation 2: r_uv * c_uv - sum of the guarantees routed over the link = 0.
    link_row = {key: num_flow_rows + index for index, key in enumerate(keys)}
    for (block, start, _), guarantee in zip(starts, guarantees):
        if guarantee is None or not block.links:
            continue
        slot_rows = np.array([link_row.get(key, -1) for key in block.links])
        rows = slot_rows[block.slots]
        kept = rows >= 0
        eq_rows.append(rows[kept])
        eq_columns.append(block.linked[kept] + start)
        eq_values.append(np.full(int(kept.sum()), -guarantee))
    eq_rows.append(num_flow_rows + np.arange(num_links))
    eq_columns.append(reservation)
    eq_values.append(capacities)
    # Equations 3 and 4, per link: r_uv - r_max <= 0 and r_uv * c_uv - R_max <= 0.
    ub_columns = np.empty((num_links, 4), dtype=np.int64)
    ub_columns[:, 0] = r_max
    ub_columns[:, 1] = reservation
    ub_columns[:, 2] = big_r_max
    ub_columns[:, 3] = reservation
    ub_values = np.empty((num_links, 4))
    ub_values[:, 0:3] = (-1.0, 1.0, -1.0)
    ub_values[:, 3] = capacities

    # Equation 5 is expressed through the [0, 1] bound on r_max and r_uv.
    upper = np.ones(num_columns)
    upper[big_r_max] = math.inf
    integrality = np.zeros(num_columns, dtype=int)
    integrality[:num_edges] = 1
    c, resolution = _objective(
        heuristic, members, column_starts.tolist(), guarantees, capacities, num_columns
    )
    form = StandardForm(
        c=c,
        a_ub=sp.coo_matrix(
            (
                ub_values.ravel(),
                (np.repeat(np.arange(2 * num_links), 2), ub_columns.ravel()),
            ),
            shape=(2 * num_links, num_columns),
        ).tocsr(),
        b_ub=np.zeros(2 * num_links),
        a_eq=sp.coo_matrix(
            (
                np.concatenate(eq_values),
                (np.concatenate(eq_rows), np.concatenate(eq_columns)),
            ),
            shape=(num_flow_rows + num_links, num_columns),
        ).tocsr(),
        # Every Equation-2 row's right-hand side is -0.0, as exported before.
        b_eq=np.concatenate(
            [block.balances for block in members] + [np.full(num_links, -0.0)]
        ),
        lower=np.zeros(num_columns),
        upper=upper,
        integrality=integrality,
        objective_resolution=resolution,
        layout=PathLayout(
            members=tuple(
                zip(column_starts[:-1].tolist(), column_starts[1:].tolist())
            ),
            r_max=r_max,
        ),
    )
    return ProvisioningModel(
        model=form,
        members=tuple(statement_ids),
        blocks=members,
        links=keys,
        capacities=capacities,
    )


def _guarantee_mbps(rates: LocalRates) -> Optional[float]:
    guarantee = rates.guarantee
    return guarantee.bps_value / _MBPS if guarantee is not None else None


def _objective(
    heuristic: PathSelectionHeuristic,
    members: Sequence[FlowBlock],
    column_starts: Sequence[int],
    guarantees: Sequence[Optional[float]],
    capacities: np.ndarray,
    num_columns: int,
) -> Tuple[np.ndarray, Optional[float]]:
    """The path-selection objective vector and the model's objective resolution.

    For the min-max heuristics the per-edge tiebreaker epsilon is also
    returned as the form's ``objective_resolution`` — the smallest
    objective difference that distinguishes two genuinely different
    solutions.  Solvers that prune within an absolute gap (the pure-Python
    branch-and-bound) scale their gap below it, so an equal-``r_max``
    incumbent cannot prune the marginally-cheaper-tiebreaker optimum, even
    on components whose epsilon falls under the solver's default gap
    (>~1000 logical edges).

    The tiebreaker is a tiny penalty on every edge: the min-max objectives
    are indifferent to how many edges a statement uses, so without it the
    MIP may return a path plus spurious disconnected cycles (which satisfy
    flow conservation).  The per-edge epsilon is ``magnitude /
    (total_edges + 1)``, so the total penalty stays strictly below
    ``magnitude`` even if every edge were selected; the magnitude is kept
    below the smallest genuine objective difference (the guarantee
    quantum).  (A fixed per-edge epsilon would grow linearly with the
    number of selected edges and, on topologies with thousands of logical
    edges, could exceed genuine objective differences and distort the
    min-max optimum; an epsilon much further below the quantum would fall
    under the solver's tolerances and stop suppressing cycles.)
    """
    c = np.zeros(num_columns)
    num_edges = column_starts[-1]
    # The step size by which reservation objectives can genuinely differ.
    quantum_mbps = min(
        (guarantee for guarantee in guarantees if guarantee is not None), default=1.0
    )
    if heuristic is PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH:
        for block, start, guarantee in zip(members, column_starts, guarantees):
            c[block.linked + start] = guarantee if guarantee is not None else 1.0
        return c, None
    if heuristic is PathSelectionHeuristic.MIN_MAX_RATIO:
        # Genuine r_max optima differ by at least the smallest guarantee as
        # a fraction of the largest capacity; cap the total tiebreaker below
        # that quantum so it can never outweigh a real utilization
        # improvement (and below 1e-3 regardless, r_max being a fraction).
        max_capacity_mbps = max(capacities.tolist(), default=0.0)
        quantum = (
            quantum_mbps / max_capacity_mbps if max_capacity_mbps > 0.0 else 1.0
        )
        magnitude = min(1e-3, quantum)
        bottleneck = num_edges
    elif heuristic is PathSelectionHeuristic.MIN_MAX_RESERVED:
        # R_max is in Mbps; genuine optima differ by (combinations of) the
        # statement guarantees, so keep the total penalty three orders of
        # magnitude below the smallest one.
        magnitude = quantum_mbps * 1e-3
        bottleneck = num_edges + 1
    else:  # pragma: no cover - the enum is exhaustive
        raise ProvisioningError(f"unknown heuristic {heuristic!r}")
    epsilon = magnitude / (num_edges + 1)
    c[:num_edges] = epsilon
    c[bottleneck] = 1.0
    return c, epsilon


def _extract_path(selected: Sequence[Pair]) -> List[str]:
    """Reconstruct the location sequence from the selected ``(tail, head)``
    pairs: the location of each head before the sink."""
    head_of = dict(selected)
    locations: List[str] = []
    vertex = SOURCE
    visited = set()
    while vertex != SINK:
        if vertex in visited:
            raise ProvisioningError("MIP solution contains a cycle; cannot extract path")
        visited.add(vertex)
        head = head_of.get(vertex)
        if head is None:
            raise ProvisioningError("MIP solution does not form a source-to-sink path")
        if head != SINK:
            locations.append(head[0])
        vertex = head
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
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            if node.name in functions and node.name not in ordered:
                ordered.append(node.name)
        else:
            stack.extend(reversed(node.children()))
    return ordered
