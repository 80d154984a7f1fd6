"""The product-graph construction as it was before the exploration / consumer
split, kept as a reference: the object graph (``ReferenceLogicalTopology``,
the old ``LogicalTopology`` with its vertex set and out / in / by-link
indices), the two-pass ``build_logical_topology`` body (forward expansion
into ``LogicalEdge``s, then a backward sweep that clears and refills the
graph) and the Dijkstra ``prune_to_cost_bound`` with its
``_hop_distances``, verbatim but for one line: the walk reads each
location's neighbours off ``topology.links()``, so a stale adjacency table
in the topology cannot hide from the comparison.  Tests compare the
single-pass builder's edges and cuts, and the best-effort search's path and
footprint, against what this builds and what ``find_path`` /
``physical_links_used`` read off it."""

import collections
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.ast import Statement
from repro.core.logical import SINK, SOURCE, LogicalEdge, Vertex
from repro.regex.dfa import DFA
from repro.regex.operations import compile_dfa, compile_pinned_dfa
from repro.regex.substitution import substitute_functions
from repro.topology.graph import Topology


@dataclass
class ReferenceLogicalTopology:
    """The product graph ``G_i`` for one statement."""

    statement_id: str
    source_location: Optional[str]
    destination_location: Optional[str]
    vertices: Set[Vertex] = field(default_factory=set)
    edges: List[LogicalEdge] = field(default_factory=list)
    _out: Dict[Vertex, List[LogicalEdge]] = field(default_factory=dict)
    _in: Dict[Vertex, List[LogicalEdge]] = field(default_factory=dict)
    _by_link: Dict[Tuple[str, str], List[LogicalEdge]] = field(default_factory=dict)

    def add_edge(self, edge: LogicalEdge) -> None:
        self.edges.append(edge)
        self.vertices.add(edge.source)
        self.vertices.add(edge.target)
        self._out.setdefault(edge.source, []).append(edge)
        self._in.setdefault(edge.target, []).append(edge)
        if edge.physical_link is not None:
            key = tuple(sorted(edge.physical_link))
            self._by_link.setdefault(key, []).append(edge)

    def out_edges(self, vertex: Vertex) -> List[LogicalEdge]:
        return self._out.get(vertex, [])

    def in_edges(self, vertex: Vertex) -> List[LogicalEdge]:
        return self._in.get(vertex, [])

    def edges_for_link(self, u: str, v: str) -> List[LogicalEdge]:
        """All edges of ``G_i`` that map onto the physical link ``(u, v)`` — ``E_i(u, v)``."""
        return self._by_link.get(tuple(sorted((u, v))), [])

    def physical_links_used(self) -> Set[Tuple[str, str]]:
        return set(self._by_link)

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return len(self.edges)

    def find_path(self) -> Optional[List[str]]:
        """A shortest source-to-sink path, as a sequence of physical locations.

        Breadth-first over the edges in insertion order.  The compiler's
        best-effort statements get this path from
        :func:`search_logical_topology` without a graph; the method serves
        callers that hold one.
        """
        predecessors: Dict[Vertex, LogicalEdge] = {}
        queue = collections.deque([SOURCE])
        visited = {SOURCE}
        while queue:
            vertex = queue.popleft()
            for edge in self.out_edges(vertex):
                if edge.target in visited:
                    continue
                predecessors[edge.target] = edge
                if edge.target == SINK:
                    return self._reconstruct(predecessors)
                visited.add(edge.target)
                queue.append(edge.target)
        return None

    def _reconstruct(self, predecessors: Dict[Vertex, LogicalEdge]) -> List[str]:
        locations: List[str] = []
        vertex = SINK
        while vertex != SOURCE:
            edge = predecessors[vertex]
            if vertex != SINK:
                locations.append(edge.location)
            vertex = edge.source
        locations.reverse()
        return locations

    def is_feasible(self) -> bool:
        """Whether any physical path satisfies the statement's constraints."""
        return self.find_path() is not None


def reference_build_logical_topology(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str] = None,
    destination: Optional[str] = None,
    known_locations: Optional[Iterable[str]] = None,
) -> ReferenceLogicalTopology:
    locations = topology.locations()
    valid_names = (
        locations
        if known_locations is None
        else frozenset(locations) | frozenset(known_locations)
    )
    rewritten = substitute_functions(statement.path, placements, valid_names)
    if source is not None and destination is not None:
        automaton = compile_pinned_dfa(rewritten, source, destination)
    else:
        automaton = compile_dfa(rewritten, minimal=True)
    live = _live_states(automaton)
    if automaton.start not in live:
        # The language is empty: no physical path can satisfy the statement.
        return ReferenceLogicalTopology(
            statement_id=statement.identifier,
            source_location=source,
            destination_location=destination,
        )

    logical = ReferenceLogicalTopology(
        statement_id=statement.identifier,
        source_location=source,
        destination_location=destination,
    )

    # Breadth-first expansion from the universal source.
    queue: collections.deque = collections.deque()
    seen: Set[Vertex] = set()

    def push(vertex: Vertex) -> None:
        if vertex not in seen:
            seen.add(vertex)
            queue.append(vertex)

    # Each location's neighbours, read off the links themselves rather than
    # the topology's adjacency table, which the builder under test walks.
    adjacent: Dict[str, List[str]] = {location: [] for location in locations}
    for link in topology.links():
        adjacent[link.source].append(link.target)
        adjacent[link.target].append(link.source)

    start_locations = [source] if source is not None else locations
    for location in start_locations:
        state = automaton.step(automaton.start, location)
        if state not in live:
            continue
        vertex = (location, state)
        logical.add_edge(LogicalEdge(source=SOURCE, target=vertex, location=location))
        push(vertex)

    while queue:
        location, state = queue.popleft()
        vertex = (location, state)
        if state in automaton.accepting and (
            destination is None or location == destination
        ):
            logical.add_edge(
                LogicalEdge(source=vertex, target=SINK, location=location)
            )
        neighbors = sorted(adjacent[location])
        for next_location in [location, *neighbors]:
            next_state = automaton.step(state, next_location)
            if next_state not in live:
                continue
            next_vertex = (next_location, next_state)
            if next_vertex == vertex:
                continue
            physical_link = (
                None
                if next_location == location
                else (location, next_location)
            )
            logical.add_edge(
                LogicalEdge(
                    source=vertex,
                    target=next_vertex,
                    location=next_location,
                    physical_link=physical_link,
                )
            )
            push(next_vertex)
    _prune_dead_vertices(logical)
    return logical


def _live_states(automaton: DFA) -> FrozenSet[int]:
    """States from which an accepting state is reachable."""
    reverse: Dict[int, Set[int]] = {state: set() for state in automaton.states()}
    for state in automaton.states():
        successors = set(automaton.explicit_transitions(state).values())
        successors.add(automaton.default_transition(state))
        for successor in successors:
            reverse.setdefault(successor, set()).add(state)
    live: Set[int] = set()
    queue = collections.deque(automaton.accepting)
    live |= set(automaton.accepting)
    while queue:
        state = queue.popleft()
        for predecessor in reverse.get(state, ()):
            if predecessor not in live:
                live.add(predecessor)
                queue.append(predecessor)
    return frozenset(live)


def _prune_dead_vertices(logical: ReferenceLogicalTopology) -> None:
    """Remove vertices (and their edges) that cannot reach the sink.

    The forward construction only adds vertices reachable from the source;
    a backward sweep removes those that cannot reach the sink, keeping the
    MIP small.
    """
    if SINK not in logical.vertices:
        logical.vertices.clear()
        logical.edges.clear()
        logical._out.clear()
        logical._in.clear()
        logical._by_link.clear()
        return
    can_reach: Set[Vertex] = {SINK}
    queue = collections.deque([SINK])
    while queue:
        vertex = queue.popleft()
        for edge in logical.in_edges(vertex):
            if edge.source not in can_reach:
                can_reach.add(edge.source)
                queue.append(edge.source)
    kept_edges = [
        edge
        for edge in logical.edges
        if edge.source in can_reach and edge.target in can_reach
    ]
    logical.vertices.clear()
    logical.edges.clear()
    logical._out.clear()
    logical._in.clear()
    logical._by_link.clear()
    for edge in kept_edges:
        logical.add_edge(edge)


def _hop_distances(logical: ReferenceLogicalTopology, reverse: bool) -> Dict[Vertex, float]:
    """Fewest physical-link traversals from the source to every vertex
    (``reverse=False``) or from every vertex to the sink (``reverse=True``).

    Stay-at-location and source/sink edges (``physical_link is None``) cost
    nothing; every physical hop costs one.  Dijkstra over {0, 1} costs —
    the graphs are small enough that the deque-based 0-1 BFS would buy
    nothing.
    """
    start = SINK if reverse else SOURCE
    if start not in logical.vertices:
        return {}
    distances: Dict[Vertex, float] = {start: 0.0}
    heap: List[Tuple[float, Vertex]] = [(0.0, start)]
    while heap:
        distance, vertex = heapq.heappop(heap)
        if distance > distances.get(vertex, math.inf):
            continue
        edges = logical.in_edges(vertex) if reverse else logical.out_edges(vertex)
        for edge in edges:
            neighbor = edge.source if reverse else edge.target
            candidate = distance + (0.0 if edge.physical_link is None else 1.0)
            if candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def reference_prune_to_cost_bound(
    logical: ReferenceLogicalTopology, slack: int = 0
) -> ReferenceLogicalTopology:
    """Restrict ``G_i`` to edges on some cost-bounded source-to-sink path.

    An edge survives iff its best *path-through* cost — fewest physical
    hops from the source to the edge, across it, and on to the sink — is at
    most the statement's optimal hop count plus ``slack``.  With
    ``slack=0`` the subgraph is exactly the union of all minimum-hop paths
    (which, on topologies with equal-cost multipath, keeps the full ECMP
    diversity); larger slacks re-admit detours of up to that many extra
    hops.

    This is the *footprint tightening* behind partition decomposition: an
    unconstrained ``.*`` path expression makes ``G_i`` span every physical
    link, gluing the whole provisioning MIP into one component, while the
    cost-bounded subgraph touches only links near some optimal path.  The
    pruned topology is what the partitioned MIP is built from, so the
    decomposition stays exact: a statement provably cannot reserve
    bandwidth on a link outside its (tightened) footprint.

    The restriction trades completeness for parallelism, and the loss is
    real whenever the min-max optimum (or feasibility itself) needs a
    detour *longer* than the bound: such a workload gets a worse max
    utilization — or an infeasibility report — where the unpruned model
    would route the long way around.  Raise ``slack`` (or disable
    tightening with ``footprint_slack=None`` at the provisioning entry
    points) for networks whose useful alternate paths exceed the default
    bound.  The optimal-hop path always survives, so a feasible graph is
    never pruned to emptiness.

    Returns the input object unchanged when nothing would be pruned (the
    common case for already-scoped path expressions), so memoized logical
    topologies keep being shared.
    """
    if SOURCE not in logical.vertices or SINK not in logical.vertices:
        return logical
    forward = _hop_distances(logical, reverse=False)
    optimal = forward.get(SINK)
    if optimal is None:
        return logical
    backward = _hop_distances(logical, reverse=True)
    bound = optimal + slack
    kept = [
        edge
        for edge in logical.edges
        if (
            forward.get(edge.source, math.inf)
            + (0.0 if edge.physical_link is None else 1.0)
            + backward.get(edge.target, math.inf)
        )
        <= bound
    ]
    if len(kept) == len(logical.edges):
        return logical
    pruned = ReferenceLogicalTopology(
        statement_id=logical.statement_id,
        source_location=logical.source_location,
        destination_location=logical.destination_location,
    )
    for edge in kept:
        pruned.add_edge(edge)
    return pruned
