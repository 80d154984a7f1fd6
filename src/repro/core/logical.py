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
A guaranteed statement's :func:`build_logical_topology` keeps the walk as
it is: the surviving ``(tail, head)`` vertex pairs in discovery order, the
physical links they cross, and every vertex's fewest physical hops from the
source and to the sink.  The MIP has a variable per edge (Equation 1), but
only for the edges footprint tightening keeps, so
:func:`prune_to_cost_bound` cuts the pairs with those distances and builds a
:class:`LogicalEdge` for each pair it keeps; the whole graph's edges are
built only when something reads :attr:`LogicalTopology.edges`.  A
path-constrained best-effort statement only ever asks for the graph's
breadth-first shortest path and the physical links it touches, and
:func:`search_logical_topology` answers both from the walk without building
a graph or measuring distances from the source.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..predicates.sat import forced_equalities
from ..regex.ast import Regex
from ..regex.operations import compile_dfa, compile_pinned_dfa, shortest_accepted
from ..regex.substitution import substitute_functions
from ..topology.graph import Topology
from .ast import Statement

#: Logical-topology vertices: the universal source/sink or a (location, state) pair.
SOURCE = ("__source__", -1)
SINK = ("__sink__", -2)
Vertex = Tuple[str, int]
Pair = Tuple[Vertex, Vertex]
LinkKey = Tuple[str, str]


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
    """The product graph ``G_i`` for one statement: its ``(tail, head)``
    vertex pairs in discovery order, the physical links they cross (as
    sorted pairs), and each vertex's fewest physical hops from the source
    and to the sink, which :func:`prune_to_cost_bound` cuts with.
    :attr:`edges` builds the :class:`LogicalEdge` objects on first use.
    """

    statement_id: str
    source_location: Optional[str]
    destination_location: Optional[str]
    pairs: Sequence[Pair] = ()
    footprint: FrozenSet[LinkKey] = frozenset()
    forward: Mapping[Vertex, int] = field(default_factory=dict, repr=False)
    backward: Mapping[Vertex, int] = field(default_factory=dict, repr=False)
    _edges: Optional[List[LogicalEdge]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def edges(self) -> List[LogicalEdge]:
        """The edges, one :class:`LogicalEdge` per pair, built once."""
        if self._edges is None:
            self._edges = [_edge(tail, head) for tail, head in self.pairs]
        return self._edges

    def num_edges(self) -> int:
        return len(self.pairs)

    def find_path(self) -> Optional[List[str]]:
        """A shortest source-to-sink path, as a sequence of physical locations.

        Breadth-first over the edges in insertion order.  The compiler's
        best-effort statements get this path from
        :func:`search_logical_topology` without a graph; the method serves
        callers that hold one.
        """
        successors = _successors(self.pairs)
        discoverer: Dict[Vertex, Vertex] = {SOURCE: SOURCE}
        queue = collections.deque([SOURCE])
        while queue:
            vertex = queue.popleft()
            for head in successors.get(vertex, ()):
                if head in discoverer:
                    continue
                discoverer[head] = vertex
                if head == SINK:
                    locations: List[str] = []
                    while vertex != SOURCE:
                        locations.append(vertex[0])
                        vertex = discoverer[vertex]
                    locations.reverse()
                    return locations
                queue.append(head)
        return None

    def is_feasible(self) -> bool:
        """Whether any physical path satisfies the statement's constraints."""
        return self.find_path() is not None

    def rebadged(self, statement_id: str) -> "LogicalTopology":
        """A view of this topology under another statement's identifier.

        The pairs and distance maps are shared, not copied: two statements
        with the same (path expression, endpoint pair) shape produce
        identical product graphs, and nothing mutates a logical topology
        after construction.  This is what makes memoising
        :func:`build_logical_topology` at the compiler level cheap.
        """
        if statement_id == self.statement_id:
            return self
        return dataclasses.replace(self, statement_id=statement_id)


def _edge(tail: Vertex, head: Vertex) -> LogicalEdge:
    if head is SINK:
        return LogicalEdge(tail, head, tail[0])
    if tail is SOURCE or tail[0] == head[0]:
        return LogicalEdge(tail, head, head[0])
    return LogicalEdge(tail, head, head[0], (tail[0], head[0]))


def _sorted_links(crossed: Iterable[LinkKey]) -> FrozenSet[LinkKey]:
    """Directed ``(u, v)`` link crossings as undirected sorted pairs."""
    return frozenset((u, v) if u <= v else (v, u) for u, v in crossed)


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
    as a placement error.  A pinned endpoint that is not in ``topology``
    (a failed switch) leaves the product empty.

    Pairs are kept in the exploration's discovery order, which is the
    order the MIP's edge columns (and therefore its tie-breaks) follow.
    """
    pairs, footprint, backward, _ = _explore(
        statement, topology, placements, source, destination, known_locations
    )
    successors = _successors(pairs)
    forward, _ = _hop_levels(list(successors.get(SOURCE, ())), successors)
    forward[SOURCE] = 0
    return LogicalTopology(
        statement_id=statement.identifier,
        source_location=source,
        destination_location=destination,
        pairs=pairs,
        footprint=footprint,
        forward=forward,
        backward=backward,
    )


def search_logical_topology(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str] = None,
    destination: Optional[str] = None,
    known_locations: Optional[Iterable[str]] = None,
) -> Tuple[Optional[Tuple[str, ...]], FrozenSet[LinkKey]]:
    """What a best-effort statement asks of ``G_i``, without building it.

    Takes :func:`build_logical_topology`'s arguments and returns the
    locations of the path ``build_logical_topology(...).find_path()`` would
    find (``None`` when no physical path satisfies the statement) and the
    graph's ``footprint``.
    """
    _, footprint, _, path = _explore(
        statement, topology, placements, source, destination, known_locations
    )
    return path, footprint


def _explore(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str],
    destination: Optional[str],
    known_locations: Optional[Iterable[str]],
) -> Tuple[
    List[Pair], FrozenSet[LinkKey], Dict[Vertex, int], Optional[Tuple[str, ...]]
]:
    """Walk automaton × topology once; return the pairs of ``G_i``, the
    physical links they cross, every vertex's fewest physical hops to the
    sink and the graph's breadth-first shortest path.

    The walk is breadth-first from the universal source over plain
    ``(location, state)`` tuples and never enters a state no accepting
    state is reachable from.  A backward 0-1 breadth-first sweep from the
    accepting vertices then measures every vertex's fewest physical hops
    to the sink — noting the links crossed by the edges it reads, which
    are exactly the surviving ones — and every edge into a vertex it did
    not reach is dropped.
    The surviving ``(tail, head)`` pairs come back in discovery order; the
    path is the first-discovered accepting vertex's chain of first
    discoverers.  Trimming cannot change that chain, the relative order of
    what survives or any surviving vertex's distances, because every
    predecessor of a vertex that reaches the sink reaches the sink itself
    — so the path is also the one a breadth-first search of the trimmed
    graph finds.
    """
    if any(
        pinned is not None and pinned not in topology
        for pinned in (source, destination)
    ):
        # A pinned endpoint that failed: no path can start or end there.
        return [], frozenset(), {}, None
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
        return [], frozenset(), {}, None

    step = automaton.step
    accepting = automaton.accepting
    neighbors = topology.neighbors
    # location -> (location, *its sorted neighbours), read once per walk.
    moves: Dict[str, Tuple[str, ...]] = {}
    edges: List[Pair] = []
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
        following = moves.get(location)
        if following is None:
            following = moves[location] = (location, *neighbors(location))
        for next_location in following:
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
        return [], frozenset(), {}, None

    backward, crossed = _hop_levels(list(accepted), predecessors)
    backward[SINK] = 0

    path: List[str] = []
    vertex = accepted[0]
    while vertex is not SOURCE:
        path.append(vertex[0])
        vertex = discoverer[vertex]
    path.reverse()
    pairs = [edge for edge in edges if edge[1] in backward]
    return pairs, _sorted_links(crossed), backward, tuple(path)


def _hop_levels(
    level: List[Vertex], adjacent: Mapping[Vertex, Sequence[Vertex]]
) -> Tuple[Dict[Vertex, int], Set[LinkKey]]:
    """Fewest physical hops from the ``level`` vertices to every vertex
    reachable over ``adjacent``, and the ``(u, v)`` links the edges read
    cross: a 0-1 breadth-first search, one hop count at a time, in which a
    vertex queued before a cheaper route reached it is skipped."""
    distances = dict.fromkeys(level, 0)
    crossed: Set[LinkKey] = set()
    hops = 0
    while level:
        following: List[Vertex] = []
        for vertex in level:
            if distances[vertex] != hops:
                continue
            location = vertex[0]
            for other in adjacent.get(vertex, ()):
                if other[0] == location or other is SINK:
                    if distances.get(other, hops + 1) > hops:
                        distances[other] = hops
                        level.append(other)
                else:
                    crossed.add((location, other[0]))
                    if other not in distances:
                        distances[other] = hops + 1
                        following.append(other)
        level, hops = following, hops + 1
    return distances, crossed


def _successors(pairs: Iterable[Pair]) -> Dict[Vertex, List[Vertex]]:
    """Each tail's heads, in pair order (read a run of one tail at a time)."""
    successors: Dict[Vertex, List[Vertex]] = {}
    for tail, run in itertools.groupby(pairs, _TAIL):
        successors.setdefault(tail, []).extend(map(_HEAD, run))
    return successors


_TAIL = operator.itemgetter(0)
_HEAD = operator.itemgetter(1)


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

    The cut is one filter over the pairs with the graph's hop distances,
    which every slack rung shares, and builds a :class:`LogicalEdge` only
    for a pair it keeps.  Returns the input object unchanged when nothing
    would be pruned (the common case for already-scoped path expressions),
    so memoized logical topologies keep being shared.
    """
    pairs = logical.pairs
    if not pairs:
        return logical
    forward, backward = logical.forward, logical.backward
    bound = forward[SINK] + slack
    kept: List[Pair] = []
    for pair in pairs:
        tail, head = pair
        hops = forward[tail] + backward[head]
        if hops < bound or (
            hops == bound
            and (tail is SOURCE or head is SINK or tail[0] == head[0])
        ):
            kept.append(pair)
    if len(kept) == len(pairs):
        return logical
    edges = [_edge(tail, head) for tail, head in kept]
    # The cut keeps the graph's distance maps: every shortest route to or
    # from a vertex it keeps is kept too, so they are the cut's own.
    cut = dataclasses.replace(
        logical,
        pairs=kept,
        footprint=_sorted_links(
            edge.physical_link for edge in edges if edge.physical_link is not None
        ),
    )
    cut._edges = edges
    return cut


def infer_endpoints(
    statement: Statement, topology: Topology
) -> Tuple[Optional[str], Optional[str]]:
    """Infer the statement's (source, destination) locations.

    Only the equalities the predicate forces in every packet it matches
    count (``eth.src``/``eth.dst`` against host MAC addresses, then
    ``ip.src``/``ip.dst`` against host IP addresses): a negated test or one
    arm of a disjunction pins nothing.  If the predicate does not pin an
    endpoint, the path expression's first/last mandatory symbols are used
    when they name a node of ``topology`` — a host, a switch or a
    middlebox.
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
