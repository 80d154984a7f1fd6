"""The array builder against the object builder it replaced.

:func:`repro.core.provisioning.build_model_for_links` builds the sparse
standard form the solver is handed straight from per-statement Equation-1
blocks.  It must hand over exactly what the object builder kept in
``tests/reference_provisioning.py`` exports with ``to_standard_form()``
— ``c``, ``b_ub``, ``b_eq``, the bounds, the integrality and ``indptr`` /
``indices`` / ``data`` of both CSR matrices, byte for byte — because
byte-identical input is what keeps the solver's tie-breaks, and therefore
every allocation, unchanged.  (That no modelling object exists under
``src/`` to be built on the solve path is the lint in
``tests/fabric/test_pipeline_lint.py``.)
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.localization import LocalRates, localize
from repro.core.logical import (
    SINK,
    SOURCE,
    LogicalTopology,
    build_logical_topology,
    infer_endpoints,
)
from repro.core.parser import parse_policy
from repro.core.preprocessor import preprocess
from repro.core.provisioning import (
    PathSelectionHeuristic,
    build_model_for_links,
    flow_block,
)
from repro.experiments.policy_builders import all_pairs_policy
from repro.topology.generators import fat_tree, figure2_example
from repro.units import Bandwidth
import tests.reference_provisioning as reference
from tests.reference_provisioning import (
    array_model_over_topology,
    assert_forms_identical,
)

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


HEURISTICS = list(PathSelectionHeuristic)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_quickstart_array_build_matches_both_references(heuristic):
    topology = figure2_example(capacity=Bandwidth.gbps(2))
    statements, logical, rates = _provisioning_inputs(
        QUICKSTART_SOURCE, topology, QUICKSTART_PLACEMENTS
    )
    assert statements, "the quickstart scenario must have guaranteed statements"
    built = array_model_over_topology(
        statements, logical, rates, topology, heuristic=heuristic
    )
    indexed = reference.build_provisioning_model(
        statements, logical, rates, topology, heuristic=heuristic
    )
    naive = reference.naive_provisioning_model(
        statements, logical, rates, topology, heuristic
    )
    assert_forms_identical(built.model, indexed.model.to_standard_form())
    assert_forms_identical(built.model, naive.to_standard_form())


def test_fat_tree_array_build_matches_both_references():
    topology = fat_tree(4)
    policy = all_pairs_policy(topology, guarantee_fraction=0.1, max_classes=60)
    statements, logical, rates = _provisioning_inputs(policy, topology, {})
    assert len(statements) >= 2
    heuristic = PathSelectionHeuristic.MIN_MAX_RATIO
    built = array_model_over_topology(
        statements, logical, rates, topology, heuristic=heuristic
    )
    assert_forms_identical(
        built.model,
        reference.build_provisioning_model(
            statements, logical, rates, topology, heuristic=heuristic
        ).model.to_standard_form(),
    )
    assert_forms_identical(
        built.model,
        reference.naive_provisioning_model(
            statements, logical, rates, topology, heuristic
        ).to_standard_form(),
    )


# -- generated components ----------------------------------------------------

_LOCATIONS = ("a", "b", "c", "d")


@st.composite
def _product_graphs(draw, identifier):
    """A product-graph-shaped edge list: a source edge, a sink edge, and
    random edges between ``(location, state)`` vertices.  An edge between
    two locations crosses the link between them, recorded in traversal
    order, so half the time as ``(v, u)``."""
    vertices = draw(
        st.lists(
            st.tuples(st.sampled_from(_LOCATIONS), st.integers(0, 2)),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    pairs = [(SOURCE, vertices[0]), (vertices[-1], SINK)] + draw(
        st.lists(
            st.tuples(
                st.sampled_from([SOURCE, *vertices]), st.sampled_from([*vertices, SINK])
            ),
            max_size=10,
        )
    )
    return _graph(
        identifier,
        [(tail, head) for tail, head in draw(st.permutations(pairs)) if tail != head],
    )


def _graph(identifier, pairs):
    """A product graph over ``pairs``; a pair's edge crosses ``(tail, head)``'s
    locations in that order."""
    crossed = {
        tuple(sorted((tail[0], head[0])))
        for tail, head in pairs
        if tail is not SOURCE and head is not SINK and tail[0] != head[0]
    }
    return LogicalTopology(
        identifier, None, None, pairs=pairs, footprint=frozenset(crossed)
    )


@st.composite
def _components(draw):
    """1-4 members, some sharing an earlier member's product graph
    (one block at two column offsets), over the members' links less a few
    plus a few no member touches (the ``partition=False`` shape)."""
    count = draw(st.integers(1, 4))
    logicals = {}
    for index in range(count):
        identifier = f"s{index}"
        if logicals and draw(st.booleans()):
            shared = draw(st.sampled_from(list(logicals.values())))
            logicals[identifier] = dataclasses.replace(shared, statement_id=identifier)
        else:
            logicals[identifier] = draw(_product_graphs(identifier))
    footprint = sorted(
        {key for logical in logicals.values() for key in logical.footprint}
    )
    dropped = (
        set(draw(st.lists(st.sampled_from(footprint), max_size=2))) if footprint else set()
    )
    untouched = draw(
        st.lists(st.sampled_from([("a", "z"), ("x", "y")]), max_size=2, unique=True)
    )
    links = [
        (key, draw(st.sampled_from([100.0, 1000.0, 2500.0])))
        for key in sorted((set(footprint) - dropped) | set(untouched))
    ]
    rates = {
        identifier: LocalRates(
            identifier=identifier,
            guarantee=draw(
                st.sampled_from(
                    [None, Bandwidth.mbps(10), Bandwidth.mbps(25), Bandwidth.mbps(400)]
                )
            ),
        )
        for identifier in logicals
    }
    return logicals, rates, links, draw(st.sampled_from(HEURISTICS))


def _compare(logicals, rates, links, heuristic):
    identifiers = list(logicals)
    blocks = {}
    by_graph = {}
    for identifier, logical in logicals.items():
        # A graph replaced under another identifier shares its pairs, so it
        # shares the block.
        if id(logical.pairs) not in by_graph:
            by_graph[id(logical.pairs)] = flow_block(logical)
        blocks[identifier] = by_graph[id(logical.pairs)]
    built = build_model_for_links(identifiers, blocks, rates, links, heuristic)
    expected = reference.build_model_for_links(
        [SimpleNamespace(identifier=identifier) for identifier in identifiers],
        logicals,
        rates,
        links,
        heuristic=heuristic,
    )
    assert_forms_identical(built.model, expected.model.to_standard_form())
    starts = [start for start, _ in built.model.layout.members]
    assert built.model.layout.r_max == expected.model.variables().index(expected.r_max)
    for identifier, start in zip(identifiers, starts):
        first = expected.edge_variables[identifier].get(0)
        if first is not None:
            assert expected.model.variables().index(first) == start


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=_components())
def test_array_build_equals_the_object_builder(drawn):
    _compare(*drawn)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_shared_block_reversed_links_and_an_untouched_link(heuristic):
    """The four shapes the property draws, in one component: a shared
    member (one block at two offsets), links crossed as ``(v, u)``, a link
    no member touches, and a member link left out of the component."""
    logical = _graph(
        "p",
        [
            (SOURCE, ("b", 0)),
            (("b", 0), ("a", 1)),  # crosses ("b", "a")
            (("b", 0), ("b", 1)),
            (("b", 1), ("c", 1)),
            (("a", 1), ("c", 1)),
            (("c", 1), SINK),
        ],
    )
    logicals = {"p": logical, "q": dataclasses.replace(logical, statement_id="q")}
    rates = {
        "p": LocalRates("p", Bandwidth.mbps(25)),
        "q": LocalRates("q", Bandwidth.mbps(400)),
    }
    links = [(("a", "b"), 1000.0), (("a", "c"), 100.0), (("x", "y"), 2500.0)]
    _compare(logicals, rates, links, heuristic)


# -- the objective ------------------------------------------------------------


@pytest.mark.parametrize(
    "heuristic",
    [PathSelectionHeuristic.MIN_MAX_RATIO, PathSelectionHeuristic.MIN_MAX_RESERVED],
)
def test_tiebreaker_epsilon_bounded_by_edge_count(heuristic):
    """The total tiebreaker penalty stays strictly below its magnitude
    however many edges exist, so it can never exceed genuine min-max
    differences: every edge column carries the declared resolution."""
    topology = fat_tree(4)
    policy = all_pairs_policy(topology, guarantee_fraction=0.1, max_classes=60)
    statements, logical, rates = _provisioning_inputs(policy, topology, {})
    form = array_model_over_topology(
        statements, logical, rates, topology, heuristic=heuristic
    ).model
    edges = form.layout.r_max
    assert edges > 500
    assert set(form.c[:edges].tolist()) == {form.objective_resolution}
    smallest = min(rates[s.identifier].guarantee.mbps_value for s in statements)
    magnitude = (
        min(1e-3, smallest / 1000.0)
        if heuristic is PathSelectionHeuristic.MIN_MAX_RATIO
        else smallest * 1e-3
    )
    assert form.objective_resolution == pytest.approx(magnitude / (edges + 1))
    assert form.c[:edges].sum() < magnitude


def test_ratio_tiebreaker_stays_below_guarantee_quantum():
    """Regression: on high-capacity links with small guarantees the genuine
    r_max quantum (guarantee / capacity) is far below 1, and the tiebreaker
    must stay below *that*, not below 1e-3."""
    topology = figure2_example(capacity=Bandwidth.gbps(10))
    source = """
    [ z : (eth.src = 00:00:00:00:00:01 and
           eth.dst = 00:00:00:00:00:02) -> .* ],
    min(z, 1Mbps)
    """
    statements, logical, rates = _provisioning_inputs(source, topology, {})
    form = array_model_over_topology(
        statements,
        logical,
        rates,
        topology,
        heuristic=PathSelectionHeuristic.MIN_MAX_RATIO,
    ).model
    quantum = 1.0 / 10_000.0  # 1 Mbps on a 10 Gbps link
    r_max = form.layout.r_max
    assert 0.0 < form.c[:r_max].sum() < quantum
    assert form.c[r_max] == 1.0
    assert not form.c[r_max + 1 :].any()
