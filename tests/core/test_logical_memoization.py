"""Memoization around logical-topology construction.

The automaton store reuses the minimized DFA of structurally equal path
expressions; each guaranteed statement still builds (and measures) its own
product graph, and a compile reads every graph and cut as plain pairs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.compiler import MerlinCompiler
from repro.core.logical import build_logical_topology, infer_endpoints
from repro.core.parser import parse_policy
from repro.regex.operations import compile_dfa
from repro.regex.parser import parse_path_expression
from repro.experiments.policy_builders import (
    FIGURE4_PLACEMENTS,
    all_pairs_policy,
    combination_policy,
    stanford_with_middleboxes,
)
from repro.topology.generators import fat_tree, figure2_example
from repro.units import Bandwidth
from tests.reference_automata import reference_minimal, reference_pinned


def test_compiled_automaton_is_cached_by_regex_value():
    # Two separately parsed but structurally equal expressions hit the same
    # store entry (Regex nodes are frozen dataclasses comparing by value).
    first = compile_dfa(parse_path_expression(".* s1 .*"), minimal=True)
    second = compile_dfa(parse_path_expression(".* s1 .*"), minimal=True)
    assert first is second


def test_rebadged_topology_shares_structure():
    """A product graph replaced under another statement identifier (as the
    checkpoint benchmark and the provisioning-equivalence property build
    their shared members) shares every structure of the original, so the
    flow builder keyed on ``id(pairs)`` emits one block for both."""
    topology = figure2_example(capacity=Bandwidth.gbps(2))
    policy = parse_policy(
        "[ x : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02) -> .* ]",
        topology=topology,
    )
    statement = policy.statements[0]
    logical = build_logical_topology(
        statement, topology, {}, source="h1", destination="h2"
    )
    view = dataclasses.replace(logical, statement_id="other")
    assert view.statement_id == "other"
    assert logical.statement_id == statement.identifier
    assert view.pairs is logical.pairs
    assert view.forward is logical.forward
    assert view.backward is logical.backward
    assert view.num_edges() == logical.num_edges()


def test_compile_with_duplicate_shapes_builds_one_graph_each(monkeypatch):
    """Two guaranteed statements with the same path and endpoints trigger
    two logical-topology builds (no memo by shape); the compiled paths are
    identical all the same."""
    topology = figure2_example(capacity=Bandwidth.gbps(2))
    source = """
    [ x : (eth.src = 00:00:00:00:00:01 and
           eth.dst = 00:00:00:00:00:02 and
           tcp.dst = 80) -> .* ;
      y : (eth.src = 00:00:00:00:00:01 and
           eth.dst = 00:00:00:00:00:02 and
           tcp.dst = 443) -> .* ],
    min(x, 10MB/s) and min(y, 10MB/s)
    """
    import repro.core.compiler as compiler_module

    built = []
    real_build = compiler_module.build_logical_topology

    def counting_build(statement, *args, **kwargs):
        built.append(statement.identifier)
        return real_build(statement, *args, **kwargs)

    monkeypatch.setattr(compiler_module, "build_logical_topology", counting_build)
    compiler = MerlinCompiler(topology=topology, overlap="trust", add_catch_all=False)
    result = compiler.compile(source)
    assert sorted(built) == ["x", "y"]
    assert result.paths["x"].path == result.paths["y"].path


def _built(statement, topology, placements, source=None, destination=None):
    logical = build_logical_topology(statement, topology, placements, source, destination)
    return logical.edges, logical.footprint


@pytest.mark.parametrize(
    "topology, placements, policy",
    [
        (
            stanford_with_middleboxes(subnets=6),
            FIGURE4_PLACEMENTS,
            lambda topology: combination_policy(topology, guarantee_fraction=0.2),
        ),
        (fat_tree(4), {}, lambda topology: all_pairs_policy(topology, max_classes=40)),
    ],
    ids=["figure4-campus", "fat-tree-4"],
)
def test_store_automata_build_the_product_graphs_the_seed_built(
    monkeypatch, topology, placements, policy
):
    """Edges, their order and the footprint of ``G_i`` are what the
    pre-store pipeline (kept in ``tests/reference_automata.py``) produced,
    for statements pinned to their endpoints and for unpinned ones."""
    import repro.core.logical as logical_module

    statements = policy(topology).statements
    endpoints = [infer_endpoints(statement, topology) for statement in statements]
    assert all(source and destination for source, destination in endpoints)
    stored = [
        (_built(s, topology, placements, *pair), _built(s, topology, placements))
        for s, pair in zip(statements, endpoints)
    ]
    monkeypatch.setattr(
        logical_module, "compile_dfa", lambda expression, minimal: reference_minimal(expression)
    )
    monkeypatch.setattr(logical_module, "compile_pinned_dfa", reference_pinned)
    seed = [
        (_built(s, topology, placements, *pair), _built(s, topology, placements))
        for s, pair in zip(statements, endpoints)
    ]
    assert stored == seed
    assert any(pinned[0] for pinned, _ in stored)


def _counting(monkeypatch, module, name):
    """Count calls of ``module.name`` for the rest of the test."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_no_edge_objects_on_the_compile_path_and_distances_once_per_graph(
    monkeypatch,
):
    """A compile with the default options (no content cache) builds, cuts,
    models and reads back every product graph as plain ``(tail, head)``
    pairs — no :class:`LogicalEdge` is constructed — and a statement sharing
    another's (path, endpoints) shape builds and measures a graph of its
    own."""
    import repro.core.logical as logical_module
    from repro.incremental import DeltaStatement, PolicyDelta

    edges_built = _counting(monkeypatch, logical_module, "LogicalEdge")
    # Two per built graph: hops to the sink, then hops from the source.
    measured = _counting(monkeypatch, logical_module, "_hop_levels")
    topology = fat_tree(4)
    policy = all_pairs_policy(topology, guarantee_fraction=0.25)
    compiler = MerlinCompiler(
        topology=topology, overlap="trust", add_catch_all=False, generate_code=False
    )
    result = compiler.compile(policy)
    engine = compiler._session.engine
    guaranteed = [
        identifier
        for identifier, record in engine.records.items()
        if record.token is not None
    ]
    views = [
        view
        for identifier in guaranteed
        for view in engine.records[identifier].views.values()
    ]
    assert len(measured) == 2 * len(guaranteed) > 0
    assert edges_built == []
    # The compile did cut and solve: the views hold fewer pairs than the
    # graphs they were cut from, and every guaranteed path came back.
    assert sum(view.logical.num_edges() for view in views) < sum(
        engine.records[identifier].logical.num_edges() for identifier in guaranteed
    )
    assert all(result.paths[identifier].path for identifier in guaranteed)

    # The same shape (path, endpoints) under a new identifier and port.
    twin_of = guaranteed[0]
    original = next(s for s in policy.statements if s.identifier == twin_of)
    twin = parse_policy(
        f"[ twin : ({original.predicate}) and tcp.dst = 7 -> {original.path} ]",
        topology=topology,
    ).statements[0]
    measured.clear()
    compiler.recompile(
        PolicyDelta(add=(DeltaStatement(twin, guarantee=Bandwidth.mbps(1)),))
    )
    assert len(measured) == 2
    first, second = (
        engine.records[twin_of].logical,
        engine.records["twin"].logical,
    )
    assert second.statement_id == "twin"
    assert second.pairs is not first.pairs
    assert second.pairs == first.pairs
    assert second.forward == first.forward
    assert second.backward == first.backward
    assert edges_built == []
