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

A product is walked by :func:`_explore` and read by two consumers.  A
guaranteed statement's :func:`build_logical_topology` walks the pinned
product and keeps the walk as it is: the surviving ``(tail, head)`` vertex
pairs in discovery order, the physical links they cross, and every vertex's
fewest physical hops from the source and to the sink.  The MIP has a
variable per edge (Equation 1), but only for the edges footprint tightening
keeps, so :func:`prune_to_cost_bound` cuts the pairs with those distances
in one pass that also collects the cut's links.  Everything downstream —
the Equation-1 block, the path read back from a solution, the content
signature — reads the plain pairs: a pair crosses the link between its
locations unless it leaves the source, enters the sink or stays at one
location.  :class:`LogicalEdge` objects exist only when something reads
:attr:`LogicalTopology.edges` (the tests and their reference builders).

A path-constrained best-effort statement only ever asks for the graph's
breadth-first shortest path and the physical links it touches, and
statements with one path expression differ only in their endpoints.  So
:func:`walk_product` walks the expression's *unpinned* product once, and
:meth:`ProductWalk.restrict` answers any endpoint pair from it — a forward
search from the source's vertex, a backward one from the destination's
accepting vertices, both kept on the walk — with exactly what the pinned
product's search would have answered (:func:`search_logical_topology` is
the two steps for one statement).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import (
    Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..predicates.sat import forced_equalities
from ..regex.ast import DOT, Regex, Symbol, concat, star
from ..regex.dfa import DFA
from ..regex.operations import (
    compile_dfa,
    compile_pinned_dfa,
    included,
    shortest_accepted,
)
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
        successors: Dict[Vertex, List[Vertex]] = {}
        for tail, head in self.pairs:
            successors.setdefault(tail, []).append(head)
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


def edge_fields(tail: Vertex, head: Vertex) -> Tuple[str, Optional[LinkKey]]:
    """The location the edge ``(tail, head)`` processes (the head's, the
    tail's for an edge into the sink) and the directed link it crosses
    (``None`` leaving the source, entering the sink or staying put): its
    :class:`LogicalEdge` fields.  The cut and the Equation-1 block inline
    the same test."""
    if head is SINK:
        return tail[0], None
    if tail is SOURCE or tail[0] == head[0]:
        return head[0], None
    return head[0], (tail[0], head[0])


def _edge(tail: Vertex, head: Vertex) -> LogicalEdge:
    return LogicalEdge(tail, head, *edge_fields(tail, head))


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
    pairs, footprint, heads, backward, _ = _explore(
        statement, topology, placements, source, destination, known_locations
    )
    roots = [root for root in heads.get(SOURCE, ()) if root in backward]
    forward = _hop_levels(roots, heads, backward)
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
    graph's ``footprint``: the statement's path expression walked by
    :func:`walk_product` and restricted to its endpoints.
    """
    return walk_product(statement, topology, placements, known_locations).restrict(
        source, destination
    )


def walk_product(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    known_locations: Optional[Iterable[str]] = None,
) -> "ProductWalk":
    """The unpinned product of the statement's path expression on
    ``topology``, which every statement with that expression restricts to
    its endpoints (see :func:`build_logical_topology` for the arguments)."""
    pairs, _, _, _, automaton = _explore(
        statement, topology, placements, None, None, known_locations
    )
    return ProductWalk(pairs, automaton)


class ProductWalk:
    """A path expression's unpinned product, kept as its surviving pairs
    and restricted to endpoint pairs on demand.

    :meth:`restrict` returns what a breadth-first search of the product
    *pinned* to the endpoints returns, without walking that product:

    * the footprint is the links of the edges ``(x, y)`` with ``x``
      reachable from the source's vertex ``(source, δ(start, source))``
      and ``y`` able to reach an accepting vertex at the destination —
      the pinned product's surviving edges, projected onto links;
    * a breadth-first search from one root over a deterministic product
      whose moves are ordered (stay first, then the sorted neighbours)
      finds the lexicographically least shortest accepted walk, which
      depends on which walks are accepted and never on state numbers.

    The pinned automaton intersects with ``source .* destination``, which
    needs two symbols.  So with both endpoints pinned the path leads to the
    first vertex in breadth-first order with a move into an accepting
    vertex at the destination (the stay move the walk drops as a self-loop
    included) and then to the destination; for distinct endpoints that is
    the path to the first accepting vertex at the destination.  With an end
    open the path leads to the first accepting vertex (at the destination,
    if pinned).  Each source's search and each destination's backward
    reach are kept.
    """

    def __init__(self, pairs: Sequence[Pair], automaton: Optional[DFA]) -> None:
        self._roots: List[Vertex] = []
        self._accepted: List[Vertex] = []
        # tail -> (head, the sorted link crossed or None for a stay), in
        # pair order.
        self._moves: Dict[Vertex, List[Tuple[Vertex, Optional[LinkKey]]]] = {}
        self._predecessors: Dict[Vertex, List[Vertex]] = {}
        for tail, head in pairs:
            if tail is SOURCE:
                self._roots.append(head)
            elif head is SINK:
                self._accepted.append(tail)
            else:
                u, v = tail[0], head[0]
                link = None if u == v else (u, v) if u < v else (v, u)
                self._moves.setdefault(tail, []).append((head, link))
                self._predecessors.setdefault(head, []).append(tail)
        # Accepting vertices whose stay move is accepted again: a kept edge
        # if the state changes, a self-loop the walk dropped if it does not.
        self._staying = {
            vertex
            for vertex in self._accepted
            if automaton.step(vertex[1], vertex[0]) in automaton.accepting
        }
        # source -> what _search found, destination -> what _reach found.
        self._searches: Dict[Optional[str], tuple] = {}
        self._reaches: Dict[Optional[str], tuple] = {}

    def restrict(
        self, source: Optional[str], destination: Optional[str]
    ) -> Tuple[Optional[Tuple[str, ...]], FrozenSet[LinkKey]]:
        """The ``(path | None, footprint)`` of the product pinned to
        ``source`` and ``destination`` (``None`` leaves an end open)."""
        order, discoverer, crossed = self._search(source)
        accepted, reaching, entering = self._reach(destination)
        footprint = frozenset().union(
            *map(crossed.__getitem__, crossed.keys() & reaching)
        )
        pinned = source is not None and destination is not None
        targets = entering if pinned else accepted
        vertex = next((vertex for vertex in order if vertex in targets), None)
        if vertex is None:
            return None, footprint
        path = [destination] if pinned else []
        while vertex is not SOURCE:
            path.append(vertex[0])
            vertex = discoverer[vertex]
        path.reverse()
        return tuple(path), footprint

    def _search(self, source: Optional[str]):
        """Breadth-first order and first discoverers from the source's
        vertex (from every root when ``None``), and for every vertex the
        links crossed by the edges into it from a vertex the search
        reaches."""
        found = self._searches.get(source)
        if found is None:
            order = [
                root for root in self._roots if source is None or root[0] == source
            ]
            discoverer = dict.fromkeys(order, SOURCE)
            crossed: Dict[Vertex, Set[LinkKey]] = {}
            moves = self._moves
            for vertex in order:
                for head, link in moves.get(vertex, ()):
                    if head not in discoverer:
                        discoverer[head] = vertex
                        order.append(head)
                    if link is not None:
                        crossed.setdefault(head, set()).add(link)
            found = self._searches[source] = (order, discoverer, crossed)
        return found

    def _reach(self, destination: Optional[str]):
        """The accepting vertices at the destination (every one when
        ``None``), the vertices that reach one, and the vertices with a move
        into one."""
        found = self._reaches.get(destination)
        if found is None:
            accepted = {
                vertex
                for vertex in self._accepted
                if destination is None or vertex[0] == destination
            }
            reaching = set(accepted)
            stack = list(accepted)
            predecessors = self._predecessors
            entering = accepted & self._staying
            for vertex in accepted:
                entering.update(predecessors.get(vertex, ()))
            while stack:
                for tail in predecessors.get(stack.pop(), ()):
                    if tail not in reaching:
                        reaching.add(tail)
                        stack.append(tail)
            found = self._reaches[destination] = (accepted, reaching, entering)
        return found


def _explore(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str],
    destination: Optional[str],
    known_locations: Optional[Iterable[str]],
) -> Tuple[
    List[Pair],
    FrozenSet[LinkKey],
    Dict[Vertex, List[Vertex]],
    Dict[Vertex, int],
    Optional[DFA],
]:
    """Walk automaton × topology once; return the pairs of ``G_i``, the
    physical links they cross, every walked vertex's heads (the source's
    included), every surviving vertex's fewest physical hops to the sink
    and the automaton walked (``None`` when there was no walk).

    The walk is breadth-first from the universal source over plain
    ``(location, state)`` tuples, reading each location's moves from the
    topology's adjacency table and each state's transitions from the
    automaton's own table, and never enters a state no accepting state is
    reachable from.  A backward 0-1 breadth-first sweep from the accepting
    vertices then measures every vertex's fewest physical hops to the sink
    — collecting the links crossed by the edges it reads, which are exactly
    the surviving ones — and every edge into a vertex it did not reach is
    dropped.  The surviving ``(tail, head)`` pairs come back in discovery
    order; trimming cannot change the relative order of what survives or
    any surviving vertex's distances, because every predecessor of a vertex
    that reaches the sink reaches the sink itself.
    """
    if any(
        pinned is not None and pinned not in topology
        for pinned in (source, destination)
    ):
        # A pinned endpoint that failed: no path can start or end there.
        return [], frozenset(), {}, {}, None
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
        return [], frozenset(), {}, {}, None

    transitions = automaton.transitions
    accepting = automaton.accepting
    moves = topology.adjacency()
    # vertex -> the heads of its edges, in the order the walk emits them.
    heads: Dict[Vertex, List[Vertex]] = {}
    # vertex -> every vertex with an edge into it (the source excepted).
    predecessors: Dict[Vertex, List[Vertex]] = {}
    # Discovered vertices; the loop below appends to it while reading it.
    frontier: List[Vertex] = []
    explicit, default = transitions(automaton.start)
    for location in [source] if source is not None else locations:
        state = explicit.get(location, default)
        if state in live:
            frontier.append((location, state))
    heads[SOURCE] = list(frontier)
    discovered = set(frontier)

    accepted: List[Vertex] = []
    for vertex in frontier:
        location, state = vertex
        emitted = heads[vertex] = []
        if state in accepting and (destination is None or location == destination):
            emitted.append(SINK)
            accepted.append(vertex)
        explicit, default = transitions(state)
        for next_location in moves[location]:
            next_state = explicit.get(next_location, default)
            if next_state not in live:
                continue
            next_vertex = (next_location, next_state)
            if next_vertex == vertex:
                continue
            emitted.append(next_vertex)
            predecessors.setdefault(next_vertex, []).append(vertex)
            if next_vertex not in discovered:
                discovered.add(next_vertex)
                frontier.append(next_vertex)
    if not accepted:
        return [], frozenset(), {}, {}, None

    crossed: Set[LinkKey] = set()
    # Every tail was discovered: the sweep to the sink is unrestricted.
    backward = _hop_levels(accepted, predecessors, discovered, crossed)
    backward[SINK] = 0
    # A tail the backward sweep did not reach has no surviving edge.
    pairs = [
        (tail, head)
        for tail in itertools.chain((SOURCE,), frontier)
        if tail is SOURCE or tail in backward
        for head in heads[tail]
        if head in backward
    ]
    return pairs, frozenset(crossed), heads, backward, automaton


def _hop_levels(
    level: List[Vertex],
    adjacent: Mapping[Vertex, Sequence[Vertex]],
    within: Collection[Vertex],
    crossed: Optional[Set[LinkKey]] = None,
) -> Dict[Vertex, int]:
    """Fewest physical hops from the ``level`` vertices to every vertex
    reachable over ``adjacent`` through vertices in ``within``: a 0-1
    breadth-first search, one hop count at a time, in which a vertex queued
    before a cheaper route reached it is skipped.  ``crossed``, when given,
    collects the sorted links of the edges read."""
    distances = dict.fromkeys(level, 0)
    hops = 0
    while level:
        following: List[Vertex] = []
        for vertex in level:
            if distances[vertex] != hops:
                continue
            location = vertex[0]
            for other in adjacent.get(vertex, ()):
                if other not in within:
                    continue
                other_location = other[0]
                if other_location == location or other is SINK:
                    if distances.get(other, hops + 1) > hops:
                        distances[other] = hops
                        level.append(other)
                    continue
                if crossed is not None:
                    crossed.add(
                        (location, other_location)
                        if location < other_location
                        else (other_location, location)
                    )
                if other not in distances:
                    distances[other] = hops + 1
                    following.append(other)
        level, hops = following, hops + 1
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

    The cut is one pass over the pairs with the graph's hop distances,
    which every slack rung shares, keeping each pair within the bound and
    the link of each kept pair that crosses one.  Returns the input object
    unchanged when nothing would be pruned (the common case for
    already-scoped path expressions).
    """
    pairs = logical.pairs
    if not pairs:
        return logical
    forward, backward = logical.forward, logical.backward
    bound = forward[SINK] + slack
    kept: List[Pair] = []
    links: Set[LinkKey] = set()
    for pair in pairs:
        tail, head = pair
        hops = forward[tail] + backward[head]
        if hops > bound:
            continue
        if tail is SOURCE or head is SINK:
            kept.append(pair)
            continue
        u, v = tail[0], head[0]
        if u == v:
            kept.append(pair)
        elif hops < bound:
            # Crossing the link costs the hop the distances leave out.
            kept.append(pair)
            links.add((u, v) if u < v else (v, u))
    if len(kept) == len(pairs):
        return logical
    # The cut keeps the graph's distance maps: every shortest route to or
    # from a vertex it keeps is kept too, so they are the cut's own.
    return dataclasses.replace(logical, pairs=kept, footprint=frozenset(links))


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
    """First/last mandatory symbols of a path expression, if they are locations.

    A shortest accepted word names the only candidates: a symbol every word
    starts (ends) with starts (ends) that one too.  A candidate counts only
    if the expression's language is included in ``s .*`` (``.* s``).
    """
    shortest = shortest_accepted(path)
    if not shortest:
        return None, None
    first, last = shortest[0], shortest[-1]
    if not (topology.has_node(first) and included(path, concat(Symbol(first), star(DOT)))):
        first = None
    if not (topology.has_node(last) and included(path, concat(star(DOT), Symbol(last)))):
        last = None
    return first, last
