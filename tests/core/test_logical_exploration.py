"""The single-pass product walk against the two-pass construction it replaced.

``tests/reference_logical.py`` keeps the old ``build_logical_topology`` body.
Over random small topologies (pristine and degraded views), path
expressions and endpoint pinnings, the builder must produce the reference's
edges in the reference's order — the order feeds MIP variable order — and
the search must return what ``find_path`` and ``physical_links_used`` read
off the reference graph.  The builder's hop distances must be the plain
breadth-first ones over the reference graph, and every slack cut of its
graph must keep the edges, in order, that the reference's Dijkstra cut
keeps, with their links as its footprint.  A topology grown after a walk
is walked as it now is.
"""

import collections
import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.core.ast import Statement
from repro.core.logical import (
    SINK,
    SOURCE,
    build_logical_topology,
    prune_to_cost_bound,
    search_logical_topology,
    walk_product,
)
from repro.predicates.ast import TRUE
from repro.regex.ast import DOT, Negate, Star, Symbol, concat, union
from repro.regex.parser import parse_path_expression
from repro.topology.graph import Topology
from tests.reference_logical import (
    reference_build_logical_topology,
    reference_prune_to_cost_bound,
)

HOSTS = ("h1", "h2", "h3")
FABRIC = ("s1", "s2", "s3", "s4", "m1")
NAMES = HOSTS + FABRIC
FUNCTIONS = ("fw", "ids")
PAIRS = tuple(itertools.combinations(NAMES, 2))


def _topology(links):
    topology = Topology(name="random")
    for host in HOSTS:
        topology.add_host(host)
    for switch in FABRIC[:-1]:
        topology.add_switch(switch)
    topology.add_middlebox(FABRIC[-1])
    for source, target in sorted(links):
        topology.add_link(source, target)
    return topology


@st.composite
def _views(draw):
    """``(topology, known_locations)``: a pristine network, or a degraded
    view of one beside the pristine names its expressions may still use."""
    links = draw(st.sets(st.sampled_from(PAIRS), min_size=3, max_size=14))
    pristine = _topology(links)
    if not draw(st.booleans()):
        return pristine, None
    failed_links = draw(st.sets(st.sampled_from(sorted(links)), max_size=2))
    failed_nodes = draw(st.sets(st.sampled_from(FABRIC), max_size=2))
    return (
        pristine.without(links=failed_links, nodes=failed_nodes),
        pristine.locations(),
    )


_LEAVES = st.one_of(
    st.sampled_from([Symbol(name) for name in NAMES]),
    st.sampled_from([Symbol(name) for name in FUNCTIONS]),
    st.just(DOT),
)

_PATHS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda pair: concat(*pair)),
        st.tuples(children, children).map(lambda pair: union(*pair)),
        children.map(Star),
        children.map(Negate),
    ),
    max_leaves=5,
)

_SITES = st.sets(st.sampled_from(NAMES), min_size=1, max_size=3).map(sorted)
_ENDPOINTS = st.one_of(st.none(), st.sampled_from(HOSTS))


@st.composite
def _arguments(draw):
    """``build_logical_topology``'s arguments for one random statement."""
    topology, known_locations = draw(_views())
    return (
        Statement(identifier="x", predicate=TRUE, path=draw(_PATHS)),
        topology,
        {"fw": draw(_SITES), "ids": draw(_SITES)},
        draw(_ENDPOINTS),
        draw(_ENDPOINTS),
        known_locations,
    )


def _hops(reference, reverse):
    """Fewest physical hops from the reference graph's source to every
    vertex (to its sink from every vertex, ``reverse``): a plain 0-1
    breadth-first search over its edges, a hop per edge that crosses a
    link."""
    start = SINK if reverse else SOURCE
    if start not in reference.vertices:
        return {}
    distances = {start: 0}
    queue = collections.deque([start])
    while queue:
        vertex = queue.popleft()
        edges = reference.in_edges(vertex) if reverse else reference.out_edges(vertex)
        for edge in edges:
            other = edge.source if reverse else edge.target
            free = edge.physical_link is None
            distance = distances[vertex] + (0 if free else 1)
            if distance < distances.get(other, math.inf):
                distances[other] = distance
                # A free edge keeps the distance: its far end goes first.
                if free:
                    queue.appendleft(other)
                else:
                    queue.append(other)
    return distances


def _links(edges):
    """The sorted links a list of edges crosses."""
    return {
        tuple(sorted(edge.physical_link))
        for edge in edges
        if edge.physical_link is not None
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arguments=_arguments())
def test_one_walk_builds_and_searches_what_the_two_passes_built(arguments):
    reference = reference_build_logical_topology(*arguments)
    built = build_logical_topology(*arguments)
    assert built.edges == reference.edges
    if reference.edges:
        # The source has no hops to the sink of its own: no sweep reads it.
        backward = _hops(reference, reverse=True)
        del backward[SOURCE]
        assert built.forward == _hops(reference, reverse=False)
        assert built.backward == backward
    else:
        assert not built.pairs and not built.backward
    found, footprint = search_logical_topology(*arguments)
    expected = reference.find_path()
    assert found == (None if expected is None else tuple(expected))
    assert footprint == reference.physical_links_used()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arguments=_arguments(), fabric=st.sampled_from(FABRIC))
def test_one_shared_walk_answers_every_endpoint_pair(arguments, fabric):
    """One unpinned walk per example, restricted to every endpoint pair —
    equal ones, open ones and a failed switch (when the view failed one)
    among them — answers what a search of that pair's pinned reference
    graph finds."""
    statement, topology, placements, _, _, known_locations = arguments
    failed = next((name for name in FABRIC if name not in topology), fabric)
    product = walk_product(statement, topology, placements, known_locations)
    endpoints = (None, *HOSTS, failed)
    for source, destination in itertools.product(endpoints, repeat=2):
        if failed not in topology and failed in (source, destination):
            # The reference predates the rule that a failed pinned endpoint
            # leaves the product empty (it cannot walk from one at all).
            expected, links = None, frozenset()
        else:
            reference = reference_build_logical_topology(
                statement, topology, placements, source, destination, known_locations
            )
            expected, links = reference.find_path(), reference.physical_links_used()
        found, footprint = product.restrict(source, destination)
        assert found == (None if expected is None else tuple(expected)), (
            source,
            destination,
        )
        assert footprint == links, (source, destination)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arguments=_arguments(), slack=st.sampled_from([0, 1, 2, 4, 8, None]))
def test_the_distance_cut_keeps_what_the_dijkstra_cut_kept(arguments, slack):
    """Cutting the walk's pairs with its hop distances keeps the edges, in
    order, that two Dijkstras over the object graph kept — and a cut of a
    cut, which reuses the whole graph's distances, too."""
    reference = reference_build_logical_topology(*arguments)
    built = build_logical_topology(*arguments)
    if slack is not None:
        whole, reference_whole = built, reference
        reference = reference_prune_to_cost_bound(reference, slack)
        built = prune_to_cost_bound(built, slack)
        assert (built is whole) == (reference is reference_whole)
    assert built.edges == reference.edges
    assert built.footprint == reference.physical_links_used()
    assert built.find_path() == reference.find_path()
    narrower = prune_to_cost_bound(built, 0)
    reference_narrower = reference_prune_to_cost_bound(reference, 0)
    assert narrower.edges == reference_narrower.edges
    assert narrower.footprint == _links(reference_narrower.edges)


def test_a_grown_topology_is_walked_as_it_now_is():
    """Nodes and links added after a walk (as the campus workload adds its
    middleboxes to ``stanford_campus()``) are walked by the next build: a
    stale adjacency table would silently drop the paths through them."""
    topology = _topology([("h1", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "h2")])
    statement = Statement(identifier="x", predicate=TRUE, path=parse_path_expression(".*"))
    through_box = Statement(
        identifier="y", predicate=TRUE, path=parse_path_expression(".* box .*")
    )
    before = build_logical_topology(statement, topology, {}, "h1", "h2")
    assert ("s1", "s3") not in before.footprint
    topology.add_link("s1", "s3")
    topology.add_middlebox("box")
    topology.add_link("box", "s2")
    paths = {}
    for path in (statement, through_box):
        arguments = (path, topology, {}, "h1", "h2")
        built = build_logical_topology(*arguments)
        reference = reference_build_logical_topology(*arguments)
        assert built.edges == reference.edges
        assert built.footprint == reference.physical_links_used()
        paths[path.identifier] = built.find_path()
    assert paths == {
        "x": ["h1", "s1", "s3", "h2"],
        "y": ["h1", "s1", "s2", "box", "s2", "s3", "h2"],
    }
