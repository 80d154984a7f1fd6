"""The product-graph construction as it was before the exploration / consumer
split, kept as a reference: the two-pass ``build_logical_topology`` body
(forward expansion into ``LogicalEdge``s, then a backward sweep that clears
and refills the graph), verbatim.  Tests compare the single-pass builder's
edges, and the best-effort search's path and footprint, against what this
builds and what ``find_path`` / ``physical_links_used`` read off it."""

import collections
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.core.ast import Statement
from repro.core.logical import SINK, SOURCE, LogicalEdge, LogicalTopology, Vertex
from repro.regex.dfa import DFA
from repro.regex.operations import compile_dfa, compile_pinned_dfa
from repro.regex.substitution import substitute_functions
from repro.topology.graph import Topology


def reference_build_logical_topology(
    statement: Statement,
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    source: Optional[str] = None,
    destination: Optional[str] = None,
    known_locations: Optional[Iterable[str]] = None,
) -> LogicalTopology:
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
        return LogicalTopology(
            statement_id=statement.identifier,
            source_location=source,
            destination_location=destination,
        )

    logical = LogicalTopology(
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
        neighbors = topology.neighbors(location)
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


def _prune_dead_vertices(logical: LogicalTopology) -> None:
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
