"""Logical topology construction (§3.2, Figure 2).

For each statement the compiler builds a directed graph ``G_i`` whose paths
correspond exactly to physical forwarding paths that satisfy the statement's
path expression (Lemma 1).  The construction is the product of the physical
topology with the statement's automaton:

* the path expression is first rewritten over locations only by substituting
  packet-processing function names with the union of their candidate
  locations,
* the rewritten expression is compiled to a compact DFA (a special case of
  the NFA ``M_i`` in the paper; determinising keeps the product small and
  makes successor lookups O(1)),
* the vertex set is ``{s_i, t_i} ∪ (L × Q_i)`` restricted to vertices that
  are reachable from ``s_i`` and can reach ``t_i``,
* there is an edge ``(u, q) → (v, q')`` iff ``u = v`` or ``(u, v)`` is a
  physical link, and ``q' = δ(q, v)``.

When the statement's endpoints are known (from its predicate or supplied
explicitly), the automaton is intersected with ``src .* dst`` so that ``G_i``
only contains paths that actually carry the statement's traffic from its
source to its destination.

The product is walked once, by :func:`_explore`, and read by two consumers.
The MIP needs ``G_i`` as an object — Equation 1 has a variable per edge — so
:func:`build_logical_topology` materialises a :class:`LogicalTopology` for a
guaranteed statement, one :class:`LogicalEdge` per surviving edge.  A
path-constrained best-effort statement only ever asks for the graph's
breadth-first shortest path and the physical links it touches, and
:func:`search_logical_topology` answers both from the walk without
constructing either class.
"""

from __future__ import annotations

import collections
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ProvisioningError
from ..predicates.sat import forced_equalities
from ..regex.ast import Regex
from ..regex.operations import compile_dfa, compile_pinned_dfa, shortest_accepted
from ..regex.substitution import functions_used, substitute_functions
from ..topology.graph import Topology
from .ast import Statement

#: Logical-topology vertices: the universal source/sink or a (location, state) pair.
SOURCE = ("__source__", -1)
SINK = ("__sink__", -2)
Vertex = Tuple[str, int]


@dataclass(frozen=True)
class LogicalEdge:
    """A directed edge of the logical topology.

    ``physical_link`` is the undirected physical link the edge maps onto
    (``None`` for source/sink edges and for "stay at the same location"
    edges).  ``location`` is the location processed when traversing the edge
    (the ``v`` of the construction), used to recover the forwarding path and
    the function placements from a MIP solution.
    """

    source: Vertex
    target: Vertex
    location: str
    physical_link: Optional[Tuple[str, str]] = None


@dataclass
class LogicalTopology:
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

    def rebadged(self, statement_id: str) -> "LogicalTopology":
        """A view of this topology under another statement's identifier.

        The vertex/edge structures are shared, not copied: two statements
        with the same (path expression, endpoint pair) shape produce
        identical product graphs, and nothing mutates a logical topology
        after construction.  This is what makes memoising
        :func:`build_logical_topology` at the compiler level cheap.
        """
        if statement_id == self.statement_id:
            return self
        return LogicalTopology(
            statement_id=statement_id,
            source_location=self.source_location,
            destination_location=self.destination_location,
            vertices=self.vertices,
            edges=self.edges,
            _out=self._out,
            _in=self._in,
            _by_link=self._by_link,
        )


def build_logical_topology(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str] = None,
    destination: Optional[str] = None,
    known_locations: Optional[Iterable[str]] = None,
) -> LogicalTopology:
    """Build ``G_i`` for one statement.

    ``source`` and ``destination`` optionally pin the statement's endpoints;
    when omitted they are inferred from the statement's predicate by
    :func:`infer_endpoints` at the compiler level and passed in here.

    ``known_locations`` extends the set of names accepted in the path
    expression beyond ``topology``'s own locations.  It is used when
    ``topology`` is a degraded (post-failure) view of a larger network: a
    symbol naming a failed element stays a valid location reference — it
    simply matches nothing during the product construction, so paths
    through it disappear instead of the whole expression being rejected
    as a placement error.

    Edges are added in the exploration's discovery order, which is the
    order the MIP's edge columns (and therefore its tie-breaks) follow.
    """
    edges, _ = _explore(
        statement, topology, placements, source, destination, known_locations
    )
    logical = LogicalTopology(
        statement_id=statement.identifier,
        source_location=source,
        destination_location=destination,
    )
    for tail, head in edges:
        crosses = tail is not SOURCE and head is not SINK and tail[0] != head[0]
        logical.add_edge(
            LogicalEdge(
                source=tail,
                target=head,
                location=tail[0] if head is SINK else head[0],
                physical_link=(tail[0], head[0]) if crosses else None,
            )
        )
    return logical


def search_logical_topology(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str] = None,
    destination: Optional[str] = None,
    known_locations: Optional[Iterable[str]] = None,
) -> Tuple[Optional[Tuple[str, ...]], FrozenSet[Tuple[str, str]]]:
    """What a best-effort statement asks of ``G_i``, without building it.

    Takes :func:`build_logical_topology`'s arguments and returns the
    locations of the path ``build_logical_topology(...).find_path()`` would
    find (``None`` when no physical path satisfies the statement) and the
    physical links ``physical_links_used()`` would report, as sorted pairs.
    """
    edges, path = _explore(
        statement, topology, placements, source, destination, known_locations
    )
    crossed = {
        (tail[0], head[0])
        for tail, head in edges
        if tail is not SOURCE and head is not SINK and tail[0] != head[0]
    }
    return path, frozenset(tuple(sorted(link)) for link in crossed)


def _explore(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str],
    destination: Optional[str],
    known_locations: Optional[Iterable[str]],
) -> Tuple[List[Tuple[Vertex, Vertex]], Optional[Tuple[str, ...]]]:
    """Walk automaton × topology once; return the edges of ``G_i`` and its
    breadth-first shortest path.

    The walk is breadth-first from the universal source over plain
    ``(location, state)`` tuples and never enters a state no accepting
    state is reachable from.  A backward sweep from the accepting vertices
    then drops every edge into a vertex that cannot reach the sink.  The
    surviving ``(tail, head)`` pairs come back in discovery order; the path
    is the first-discovered accepting vertex's chain of first discoverers.
    Trimming cannot change that chain or the relative order of what
    survives, because every predecessor of a vertex that reaches the sink
    reaches the sink itself — so the path is also the one a breadth-first
    search of the trimmed graph finds.
    """
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
    live = automaton.live_states()
    if automaton.start not in live:
        # The language is empty: no physical path can satisfy the statement.
        return [], None

    step = automaton.step
    accepting = automaton.accepting
    neighbors = topology.neighbors
    edges: List[Tuple[Vertex, Vertex]] = []
    # vertex -> the vertex it was first discovered from.
    discoverer: Dict[Vertex, Vertex] = {}
    # vertex -> every vertex with an edge into it (the source excepted).
    predecessors: Dict[Vertex, List[Vertex]] = {}
    # Discovered vertices; the loop below appends to it while reading it.
    frontier: List[Vertex] = []
    for location in [source] if source is not None else locations:
        state = step(automaton.start, location)
        if state in live:
            vertex = (location, state)
            edges.append((SOURCE, vertex))
            discoverer[vertex] = SOURCE
            frontier.append(vertex)

    accepted: List[Vertex] = []
    for vertex in frontier:
        location, state = vertex
        if state in accepting and (destination is None or location == destination):
            edges.append((vertex, SINK))
            accepted.append(vertex)
        for next_location in (location, *neighbors(location)):
            next_state = step(state, next_location)
            if next_state not in live:
                continue
            next_vertex = (next_location, next_state)
            if next_vertex == vertex:
                continue
            edges.append((vertex, next_vertex))
            predecessors.setdefault(next_vertex, []).append(vertex)
            if next_vertex not in discoverer:
                discoverer[next_vertex] = vertex
                frontier.append(next_vertex)
    if not accepted:
        return [], None

    reaches_sink: Set[Vertex] = {SINK, *accepted}
    pending = list(accepted)
    while pending:
        for predecessor in predecessors.get(pending.pop(), ()):
            if predecessor not in reaches_sink:
                reaches_sink.add(predecessor)
                pending.append(predecessor)

    path: List[str] = []
    vertex = accepted[0]
    while vertex is not SOURCE:
        path.append(vertex[0])
        vertex = discoverer[vertex]
    path.reverse()
    return [edge for edge in edges if edge[1] in reaches_sink], tuple(path)


def _hop_distances(logical: LogicalTopology, reverse: bool) -> Dict[Vertex, float]:
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


def prune_to_cost_bound(
    logical: LogicalTopology, slack: int = 0
) -> LogicalTopology:
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
    pruned = LogicalTopology(
        statement_id=logical.statement_id,
        source_location=logical.source_location,
        destination_location=logical.destination_location,
    )
    for edge in kept:
        pruned.add_edge(edge)
    return pruned


def infer_endpoints(
    statement: Statement, topology: Topology
) -> Tuple[Optional[str], Optional[str]]:
    """Infer the statement's (source, destination) hosts.

    Only the equalities the predicate forces in every packet it matches
    count (``eth.src``/``eth.dst`` against host MAC addresses, then
    ``ip.src``/``ip.dst`` against host IP addresses): a negated test or one
    arm of a disjunction pins nothing.  If the predicate does not pin an
    endpoint, the path expression's first/last explicit symbols are used
    when they name hosts.
    """
    forced = forced_equalities(statement.predicate) or {}
    source = _pinned_host(topology, forced.get("eth.src"), forced.get("ip.src"))
    destination = _pinned_host(topology, forced.get("eth.dst"), forced.get("ip.dst"))
    if source is None or destination is None:
        boundary = _regex_boundary_symbols(statement.path, topology)
        if source is None:
            source = boundary[0]
        if destination is None:
            destination = boundary[1]
    return source, destination


def _pinned_host(
    topology: Topology, mac: Optional[str], ip: Optional[str]
) -> Optional[str]:
    """The host with the forced MAC address, else the one with the forced IP."""
    node = topology.host_by_mac(mac) if mac is not None else None
    if node is None and ip is not None:
        node = topology.host_by_ip(ip)
    return node.name if node else None


def _regex_boundary_symbols(
    path: Regex, topology: Topology
) -> Tuple[Optional[str], Optional[str]]:
    """First/last mandatory symbols of a path expression, if they are locations."""
    shortest = shortest_accepted(path)
    if not shortest:
        return None, None
    first = shortest[0] if topology.has_node(shortest[0]) else None
    last = shortest[-1] if topology.has_node(shortest[-1]) else None
    return first, last
