"""An allocation checker that shares no code with the solver or ``repro.regex``.

Given what the benchmark *asked for* (who talks to whom, along which path
expression, with what guarantee) and what the program *answered* (paths,
function placements, link reservations, sink trees), :func:`check_allocation`
re-derives nothing from the program's pipeline:

* a path is a walk over live topology links from the statement's source host
  to its destination host;
* the walk is accepted by the statement's path expression, translated here
  to a Python ``re`` over comma-terminated location tokens (function symbols
  expand to the locations allowed to host them);
* each function is placed at an allowed location that the path visits;
* per-link sums of guarantees (one per traversal) equal the reported
  reservations and stay within capacity;
* every guaranteed or path-constrained statement has a path, and an
  unconstrained best-effort one is routable along the destination's sink
  tree whenever live links still join its two hosts.

The only contact with the program is reading plain fields of its inputs and
outputs (names, tuples, ``bps_value``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Link = Tuple[str, str]

UNCONSTRAINED = ".*"

_TOKEN = re.compile(r"\s*([A-Za-z0-9_:\-]+|[.*|()!])")
_ENDPOINT = re.compile(r"eth\.(src|dst) = ([0-9a-fA-F:]{17})")


@dataclass(frozen=True)
class Expected:
    """One statement as the benchmark asked for it."""

    identifier: str
    source: str
    destination: str
    path: str
    guarantee_bps: Optional[float] = None


@dataclass
class Network:
    """Live links with capacities, host attachment, and MAC addresses."""

    links: Dict[Link, float]
    switch_of: Dict[str, str]
    host_of_mac: Dict[str, str]


def link_key(left: str, right: str) -> Link:
    return (left, right) if left <= right else (right, left)


def network_view(
    topology, failed_links: Iterable[Link] = (), failed_nodes: Iterable[str] = ()
) -> Network:
    """Read a topology's plain fields, leaving out failed elements."""
    dead_nodes = set(failed_nodes)
    dead_links = {link_key(*link) for link in failed_links}
    links = {}
    for link in topology.links():
        key = link_key(link.source, link.target)
        if key in dead_links or dead_nodes & set(key):
            continue
        links[key] = link.capacity.bps_value
    hosts = {name: topology.node(name) for name in topology.host_names()}
    return Network(
        links=links,
        switch_of={name: node.attached_switch for name, node in hosts.items()},
        host_of_mac={node.mac: name for name, node in hosts.items()},
    )


def expected_from_text(
    network: Network,
    identifier: str,
    predicate: str,
    path: str,
    guarantee_bps: Optional[float],
) -> Expected:
    """Read the endpoints out of a predicate's ``eth.src`` / ``eth.dst`` tests."""
    ends = {side: network.host_of_mac[mac] for side, mac in _ENDPOINT.findall(predicate)}
    return Expected(identifier, ends["src"], ends["dst"], path.strip(), guarantee_bps)


def path_pattern(expression: str, placements: Mapping[str, Sequence[str]]) -> "re.Pattern":
    """Translate a Merlin path expression to a ``re`` over ``name,`` tokens."""
    parts: List[str] = []
    position = 0
    text = expression.strip()
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise ValueError(f"cannot read path expression at {text[position:]!r}")
        position = match.end()
        token = match.group(1)
        if token == ".":
            parts.append("(?:[^,]+,)")
        elif token == "(":
            parts.append("(?:")
        elif token in ")*|":
            parts.append(token)
        elif token == "!":
            raise ValueError("path negation is not supported by the checker")
        elif token in placements:
            hosts = "|".join(re.escape(location) for location in placements[token])
            parts.append(f"(?:(?:{hosts}),)")
        else:
            parts.append(f"(?:{re.escape(token)},)")
    return re.compile("".join(parts))


def check_allocation(
    network: Network,
    expected: Sequence[Expected],
    placements: Mapping[str, Sequence[str]],
    result,
    tolerance_bps: float = 1.0,
) -> List[str]:
    """Every way ``result`` fails to satisfy ``expected``; empty when correct."""
    problems: List[str] = []
    load: Dict[Link, float] = {}
    patterns: Dict[str, "re.Pattern"] = {}
    known = {item.identifier for item in expected}

    for identifier in result.paths:
        if identifier not in known:
            problems.append(f"{identifier}: path for a statement nobody asked for")

    for item in expected:
        assignment = result.paths.get(item.identifier)
        if assignment is None:
            if item.guarantee_bps:
                problems.append(f"{item.identifier}: guaranteed statement has no path")
            elif item.path != UNCONSTRAINED:
                problems.append(f"{item.identifier}: constrained statement has no path")
            else:
                problems.extend(_check_sink_tree(network, item, result.sink_trees))
            continue
        path = tuple(assignment.path)
        if not path or path[0] != item.source or path[-1] != item.destination:
            problems.append(f"{item.identifier}: path {path} does not join its hosts")
            continue
        hops = [link_key(u, v) for u, v in zip(path, path[1:]) if u != v]
        missing = [hop for hop in hops if hop not in network.links]
        if missing:
            problems.append(f"{item.identifier}: path uses absent link {missing[0]}")
        pattern = patterns.get(item.path)
        if pattern is None:
            pattern = patterns[item.path] = path_pattern(item.path, placements)
        if pattern.fullmatch("".join(f"{location}," for location in path)) is None:
            problems.append(f"{item.identifier}: path {path} not in language {item.path!r}")
        for function, location in assignment.function_placements.items():
            if location not in placements.get(function, ()) or location not in path:
                problems.append(f"{item.identifier}: {function} misplaced at {location}")
        if item.guarantee_bps:
            for hop in hops:
                load[hop] = load.get(hop, 0.0) + item.guarantee_bps

    reported = {
        link_key(*link): reserved.bps_value
        for link, reserved in result.link_reservations.items()
    }
    for link in sorted(set(load) | set(reported)):
        wanted = load.get(link, 0.0)
        got = reported.get(link, 0.0)
        if abs(wanted - got) > tolerance_bps:
            problems.append(f"{link}: reserved {got:.0f} bps, guarantees sum to {wanted:.0f}")
        capacity = network.links.get(link)
        if capacity is not None and got > capacity + tolerance_bps:
            problems.append(f"{link}: reserved {got:.0f} bps over capacity {capacity:.0f}")
    return problems


def _check_sink_tree(network: Network, item: Expected, sink_trees) -> List[str]:
    """An unconstrained best-effort statement rides the destination's tree,
    unless failures have cut its hosts apart (then there is nothing to ride)."""
    here = network.switch_of[item.source]
    root = network.switch_of[item.destination]
    tree = sink_trees.get(root)
    hops = len(tree.next_hop) + 1 if tree is not None else 0
    for _ in range(hops):
        if here == root:
            return []
        following = tree.next_hop.get(here)
        if following is None or link_key(here, following) not in network.links:
            break
        here = following
    if not _connected(network, network.switch_of[item.source], root):
        return []
    return [f"{item.identifier}: sink tree to {root} does not carry traffic from {item.source}"]


def _connected(network: Network, start: str, goal: str) -> bool:
    """Whether live links join the two switches (plain graph search)."""
    neighbours: Dict[str, List[str]] = {}
    for left, right in network.links:
        neighbours.setdefault(left, []).append(right)
        neighbours.setdefault(right, []).append(left)
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        for other in neighbours.get(node, ()):
            # Hosts do not forward: only the two endpoints' switches matter.
            if other not in seen and other not in network.switch_of:
                seen.add(other)
                frontier.append(other)
    return False
