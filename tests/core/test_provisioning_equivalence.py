"""Equivalence of the indexed MIP construction with a reference build.

The indexed one-pass construction in
:func:`repro.core.provisioning.build_provisioning_model` must produce a
model that is *coefficient-identical* to the straightforward reference
build (the naive O(S·E·L) nested loops over statements × edges × links):
same variables in the same order, same bounds/integrality, same constraint
rows, same right-hand sides, and the same objective vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.localization import localize
from repro.core.logical import SINK, SOURCE, build_logical_topology, infer_endpoints
from repro.core.parser import parse_policy
from repro.core.preprocessor import preprocess
from repro.core.provisioning import (
    PathSelectionHeuristic,
    _MBPS,
    _edge_tiebreaker,
    _guarantee_quantum_mbps,
    build_provisioning_model,
)
from repro.experiments.policy_builders import all_pairs_policy
from repro.lp.expr import LinExpr
from repro.lp.model import Model
from repro.topology.generators import fat_tree, figure2_example

QUICKSTART_SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
min(x, 100MB/s) and min(z, 200MB/s)
"""

QUICKSTART_PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",)}


def _provisioning_inputs(policy, topology, placements):
    """Replicate the compiler's pre-provisioning pipeline for a policy."""
    if isinstance(policy, str):
        policy = parse_policy(policy, topology=topology)
    preprocessed = preprocess(policy, overlap="trust", add_catch_all=False).policy
    rates = localize(preprocessed)
    guaranteed = [
        statement
        for statement in preprocessed.statements
        if rates[statement.identifier].is_guaranteed
    ]
    logical = {}
    for statement in guaranteed:
        source, destination = infer_endpoints(statement, topology)
        logical[statement.identifier] = build_logical_topology(
            statement, topology, placements, source=source, destination=destination
        )
    return guaranteed, logical, rates


def _reference_model(statements, logical_topologies, rates, topology, heuristic):
    """The straightforward (pre-refactor) construction: a full rescan of every
    statement's edges for every physical link, grown with the copying ``+``."""
    model = Model(name="merlin-provisioning")
    edge_variables = {}
    for statement in statements:
        logical = logical_topologies[statement.identifier]
        variables = {}
        for index, edge in enumerate(logical.edges):
            variables[index] = model.add_binary(f"x__{statement.identifier}__{index}")
        edge_variables[statement.identifier] = variables
        # Flow rows in first-appearance order of the edge list (the set
        # ``logical.vertices`` iterates in a PYTHONHASHSEED-dependent order).
        first_seen = dict.fromkeys(
            vertex for edge in logical.edges for vertex in (edge.source, edge.target)
        )
        assert set(first_seen) == logical.vertices
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

    reservation_fraction = {}
    r_max = model.add_continuous("r_max", lower=0.0, upper=1.0)
    big_r_max = model.add_continuous("R_max", lower=0.0)
    for link in topology.links():
        key = tuple(sorted((link.source, link.target)))
        capacity_mbps = link.capacity.bps_value / _MBPS
        r_uv = model.add_continuous(f"r__{key[0]}__{key[1]}", lower=0.0, upper=1.0)
        reservation_fraction[key] = r_uv
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


def _assert_standard_forms_identical(indexed, reference):
    assert [v.name for v in indexed.variables] == [v.name for v in reference.variables]
    assert [
        (v.lower, v.upper, v.is_integer) for v in indexed.variables
    ] == [(v.lower, v.upper, v.is_integer) for v in reference.variables]
    assert indexed.bounds == reference.bounds
    assert np.array_equal(indexed.integrality, reference.integrality)
    assert np.array_equal(indexed.c, reference.c)
    assert indexed.a_eq.shape == reference.a_eq.shape
    assert indexed.a_ub.shape == reference.a_ub.shape
    assert np.array_equal(indexed.a_eq, reference.a_eq)
    assert np.array_equal(indexed.b_eq, reference.b_eq)
    assert np.array_equal(indexed.a_ub, reference.a_ub)
    assert np.array_equal(indexed.b_ub, reference.b_ub)
    assert indexed.maximize == reference.maximize


@pytest.mark.parametrize(
    "heuristic",
    [
        PathSelectionHeuristic.MIN_MAX_RATIO,
        PathSelectionHeuristic.MIN_MAX_RESERVED,
        PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH,
    ],
)
def test_quickstart_indexed_build_matches_reference(heuristic):
    from repro.units import Bandwidth

    topology = figure2_example(capacity=Bandwidth.gbps(2))
    statements, logical, rates = _provisioning_inputs(
        QUICKSTART_SOURCE, topology, QUICKSTART_PLACEMENTS
    )
    assert statements, "the quickstart scenario must have guaranteed statements"
    built = build_provisioning_model(
        statements, logical, rates, topology, heuristic=heuristic
    )
    reference = _reference_model(statements, logical, rates, topology, heuristic)
    _assert_standard_forms_identical(
        built.model.to_standard_form(), reference.to_standard_form()
    )


def test_fat_tree_indexed_build_matches_reference():
    topology = fat_tree(4)
    policy = all_pairs_policy(topology, guarantee_fraction=0.1, max_classes=60)
    statements, logical, rates = _provisioning_inputs(policy, topology, {})
    assert len(statements) >= 2
    built = build_provisioning_model(
        statements,
        logical,
        rates,
        topology,
        heuristic=PathSelectionHeuristic.MIN_MAX_RATIO,
    )
    reference = _reference_model(
        statements, logical, rates, topology, PathSelectionHeuristic.MIN_MAX_RATIO
    )
    _assert_standard_forms_identical(
        built.model.to_standard_form(), reference.to_standard_form()
    )


def test_tiebreaker_epsilon_bounded_by_edge_count():
    """The total tiebreaker penalty stays strictly below ``magnitude``
    however many edges exist, so it can never exceed genuine min-max
    differences."""
    model = Model()
    edge_variables = {
        "s": {i: model.add_binary(f"x__{i}") for i in range(5000)}
    }
    expression = _edge_tiebreaker(edge_variables, magnitude=1e-3)
    total = sum(expression.coefficients.values())
    assert total < 1e-3
    per_edge = 1e-3 / (5000 + 1)
    assert all(
        coefficient == pytest.approx(per_edge)
        for coefficient in expression.coefficients.values()
    )
    # And the penalty scales with the requested magnitude.
    scaled = _edge_tiebreaker(edge_variables, magnitude=0.1)
    assert sum(scaled.coefficients.values()) == pytest.approx(total * 100.0)


def test_ratio_tiebreaker_stays_below_guarantee_quantum():
    """Regression: on high-capacity links with small guarantees the genuine
    r_max quantum (guarantee / capacity) is far below 1, and the tiebreaker
    must stay below *that*, not below 1e-3."""
    from repro.units import Bandwidth

    topology = figure2_example(capacity=Bandwidth.gbps(10))
    source = """
    [ z : (eth.src = 00:00:00:00:00:01 and
           eth.dst = 00:00:00:00:00:02) -> .* ],
    min(z, 1Mbps)
    """
    statements, logical, rates = _provisioning_inputs(source, topology, {})
    built = build_provisioning_model(
        statements,
        logical,
        rates,
        topology,
        heuristic=PathSelectionHeuristic.MIN_MAX_RATIO,
    )
    objective = built.model.objective
    quantum = 1.0 / 10_000.0  # 1 Mbps on a 10 Gbps link
    edge_penalty = sum(
        coefficient
        for variable, coefficient in objective.coefficients.items()
        if variable is not built.r_max
    )
    assert 0.0 < edge_penalty < quantum
    assert objective.coefficients[built.r_max] == 1.0
