"""The provisioning MIP as it was built before the array builder, kept as a
reference: one ``Variable`` per column and one ``LinExpr`` / ``Constraint``
per row, named (``x__{id}__{index}``, ``flow__…``, ``reserve__…``), in the
modelling front end of ``tests/reference_lp.py`` and exported by its
``Model.to_standard_form`` — ``build_model_for_links``,
``splice_statement_rows``, ``emit_link_rows`` and ``set_provisioning_objective``
verbatim.  ``naive_provisioning_model`` is the straightforward construction
that builder was itself once checked against: a full rescan of every
statement's edges for every physical link, grown with the copying ``+``.

Tests hold :func:`repro.core.provisioning.build_model_for_links` to these:
the standard form it builds must hold, array for array, what HiGHS was
handed from their ``to_standard_form()``
(:meth:`tests.reference_lp.ReferenceForm.standard_form`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.ast import Statement
from repro.core.localization import LocalRates
from repro.core.logical import SINK, SOURCE, LogicalTopology
from repro.core.provisioning import _MBPS, PathSelectionHeuristic, flow_block
from repro.core.provisioning import build_model_for_links as array_build_model_for_links
from repro.errors import ProvisioningError
from repro.incremental.solve import topology_capacities_mbps
from repro.topology.graph import Topology
from tests.reference_lp import Constraint, LinExpr, Model, Variable


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


def array_model_over_topology(
    statements: Sequence[Statement],
    logical_topologies: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    topology: Topology,
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
):
    """:func:`repro.core.provisioning.build_model_for_links` over the layout
    :func:`build_provisioning_model` uses: statements in the order given,
    every physical link in ``topology.links()`` order."""
    identifiers = [statement.identifier for statement in statements]
    return array_build_model_for_links(
        identifiers,
        {sid: flow_block(logical_topologies[sid]) for sid in identifiers},
        rates,
        list(topology_capacities_mbps(topology).items()),
        heuristic=heuristic,
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
    published as the model's ``objective_resolution`` — the
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


def assert_forms_identical(form, expected):
    """``form`` holds exactly what HiGHS was handed for the reference form
    ``expected``: equal ``c``, bounds and integrality, dtype and bytes
    included (so no -0.0 for 0.0 either); equal row bounds and column-wise
    ``start`` / ``index`` / ``value``, their bytes compared at the types
    HiGHS stores them in (32-bit indices, float64); and the same declared
    objective resolution (which the naive builder does not declare)."""
    handed = expected.standard_form()
    for name in ("c", "lower", "upper", "integrality"):
        ours, theirs = getattr(form, name), getattr(handed, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    for name, dtype in (
        ("start", np.int32),
        ("index", np.int32),
        ("value", np.float64),
        ("row_lower", np.float64),
        ("row_upper", np.float64),
    ):
        ours, theirs = getattr(form, name), getattr(handed, name)
        assert ours.shape == theirs.shape, name
        assert ours.astype(dtype).tobytes() == theirs.astype(dtype).tobytes(), name
    if expected.objective_resolution is not None:
        assert form.objective_resolution == expected.objective_resolution


def naive_provisioning_model(statements, logical_topologies, rates, topology, heuristic):
    """The straightforward construction: a full rescan of every statement's
    edges for every physical link, grown with the copying ``+``."""
    model = Model(name="merlin-provisioning")
    edge_variables = {}
    for statement in statements:
        logical = logical_topologies[statement.identifier]
        variables = {}
        for index, edge in enumerate(logical.edges):
            variables[index] = model.add_binary(f"x__{statement.identifier}__{index}")
        edge_variables[statement.identifier] = variables
        # Flow rows in first-appearance order of the edge list (a vertex
        # set would iterate in a PYTHONHASHSEED-dependent order).
        first_seen = dict.fromkeys(
            vertex for edge in logical.edges for vertex in (edge.source, edge.target)
        )
        for vertex in first_seen:
            outgoing = LinExpr.sum_of(
                variables[index]
                for index, edge in enumerate(logical.edges)
                if edge.source == vertex
            )
            incoming = LinExpr.sum_of(
                variables[index]
                for index, edge in enumerate(logical.edges)
                if edge.target == vertex
            )
            balance = 1.0 if vertex == SOURCE else (-1.0 if vertex == SINK else 0.0)
            model.add_constraint(
                (outgoing - incoming).equals(balance),
                name=f"flow__{statement.identifier}__{vertex[0]}_{vertex[1]}",
            )

    r_max = model.add_continuous("r_max", lower=0.0, upper=1.0)
    big_r_max = model.add_continuous("R_max", lower=0.0)
    for link in topology.links():
        key = tuple(sorted((link.source, link.target)))
        capacity_mbps = link.capacity.bps_value / _MBPS
        r_uv = model.add_continuous(f"r__{key[0]}__{key[1]}", lower=0.0, upper=1.0)
        reserved_terms = LinExpr()
        for statement in statements:
            guarantee = rates[statement.identifier].guarantee
            if guarantee is None:
                continue
            guarantee_mbps = guarantee.bps_value / _MBPS
            logical = logical_topologies[statement.identifier]
            for index, edge in enumerate(logical.edges):
                if edge.physical_link is None:
                    continue
                if tuple(sorted(edge.physical_link)) == key:
                    reserved_terms = reserved_terms + (
                        edge_variables[statement.identifier][index] * guarantee_mbps
                    )
        model.add_constraint(
            (r_uv * capacity_mbps - reserved_terms).equals(0.0),
            name=f"reserve__{key[0]}__{key[1]}",
        )
        model.add_constraint(r_max - r_uv >= 0.0, name=f"rmax__{key[0]}__{key[1]}")
        model.add_constraint(
            big_r_max - r_uv * capacity_mbps >= 0.0,
            name=f"Rmax__{key[0]}__{key[1]}",
        )

    if heuristic is PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH:
        objective = LinExpr()
        for statement in statements:
            guarantee = rates[statement.identifier].guarantee
            weight = (guarantee.bps_value / _MBPS) if guarantee else 1.0
            logical = logical_topologies[statement.identifier]
            for index, edge in enumerate(logical.edges):
                if edge.physical_link is not None:
                    objective = objective + (
                        edge_variables[statement.identifier][index] * weight
                    )
        model.minimize(objective)
    elif heuristic is PathSelectionHeuristic.MIN_MAX_RATIO:
        max_capacity_mbps = max(
            link.capacity.bps_value / _MBPS for link in topology.links()
        )
        quantum = _guarantee_quantum_mbps(statements, rates) / max_capacity_mbps
        model.minimize(
            r_max + _edge_tiebreaker(edge_variables, magnitude=min(1e-3, quantum))
        )
    elif heuristic is PathSelectionHeuristic.MIN_MAX_RESERVED:
        magnitude = _guarantee_quantum_mbps(statements, rates) * 1e-3
        model.minimize(
            big_r_max + _edge_tiebreaker(edge_variables, magnitude=magnitude)
        )
    return model
