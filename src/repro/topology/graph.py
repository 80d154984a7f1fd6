"""The :class:`Topology` graph.

An undirected graph kept as an insertion-ordered ``{name: {neighbour:
Link}}`` adjacency dict, in the node and edge order :class:`networkx.Graph`
would keep for the same construction calls.  It knows about node kinds
(host / switch / middlebox) and link capacities, and answers the queries
the compiler needs: the location set, undirected physical edges,
host-to-switch attachment, the egress switches of the sink-tree
optimisation, degraded copies and hop-count shortest paths.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import TopologyError
from ..units import Bandwidth, LINE_RATE
from .elements import Link, Node, NodeKind


class Topology:
    """A physical network topology.

    Nodes are identified by unique string names.  Links are undirected; the
    compiler's logical topology derives directed edges from them.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        # Each link is stored under both endpoints; a node's neighbours are
        # in the order its links were added.
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._nodes: Dict[str, Node] = {}
        # Address lookups for endpoint inference, maintained by add_node
        # (the only place a node enters the topology).
        self._hosts_by_mac: Dict[str, Node] = {}
        self._hosts_by_ip: Dict[str, Node] = {}
        self._host_counter = itertools.count(1)
        # What adjacency(), links(), link_capacities() and egress_switches()
        # built; add_node and add_link drop them all.
        self._adjacency: Optional[Dict[str, Tuple[str, ...]]] = None
        self._links: Optional[Tuple[Link, ...]] = None
        self._capacities: Optional[Mapping[Tuple[str, str], Bandwidth]] = None
        self._egress: Optional[Tuple[str, ...]] = None

    def _drop_tables(self) -> None:
        self._adjacency = None
        self._links = None
        self._capacities = None
        self._egress = None

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Add a pre-built :class:`Node`."""
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = {}
        self._drop_tables()
        if node.is_host:
            for index, address in (
                (self._hosts_by_mac, node.mac.lower() if node.mac else None),
                (self._hosts_by_ip, node.ip),
            ):
                # Hosts sharing an address resolve to the first by name.
                if address and (
                    address not in index or node.name < index[address].name
                ):
                    index[address] = node
        return node

    def add_host(
        self,
        name: str,
        mac: Optional[str] = None,
        ip: Optional[str] = None,
        attached_switch: Optional[str] = None,
    ) -> Node:
        """Add a host, auto-assigning a MAC/IP if none is given."""
        index = next(self._host_counter)
        if mac is None:
            mac = ":".join(f"{byte:02x}" for byte in index.to_bytes(6, "big"))
        if ip is None:
            ip = f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"
        return self.add_node(
            Node(name=name, kind=NodeKind.HOST, mac=mac, ip=ip, attached_switch=attached_switch)
        )

    def add_switch(self, name: str) -> Node:
        """Add a switch."""
        return self.add_node(Node(name=name, kind=NodeKind.SWITCH))

    def add_middlebox(self, name: str, attached_switch: Optional[str] = None) -> Node:
        """Add a middlebox."""
        return self.add_node(
            Node(name=name, kind=NodeKind.MIDDLEBOX, attached_switch=attached_switch)
        )

    def add_link(
        self,
        source: str,
        target: str,
        capacity: Bandwidth = LINE_RATE,
        latency_ms: float = 0.1,
    ) -> Link:
        """Add an undirected link between two existing nodes."""
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise TopologyError(f"cannot link unknown node {endpoint!r}")
        if source == target:
            raise TopologyError(f"self-loop links are not allowed ({source!r})")
        link = Link(source=source, target=target, capacity=capacity, latency_ms=latency_ms)
        # Re-linking a pair replaces its link in place, as networkx does.
        self._adj[source][target] = link
        self._adj[target][source] = link
        self._drop_tables()
        return link

    # -- queries -----------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def find(self, name: str) -> Optional[Node]:
        """The node named ``name``, or ``None``: one lookup where
        :meth:`has_node` and :meth:`node` would take two."""
        return self._nodes.get(name)

    def nodes(self) -> List[Node]:
        """All nodes."""
        return [self._nodes[name] for name in sorted(self._nodes)]

    def locations(self) -> List[str]:
        """All location names (hosts, switches, and middleboxes)."""
        return sorted(self._nodes)

    def hosts(self) -> List[Node]:
        """All host nodes."""
        return [node for node in self.nodes() if node.is_host]

    def switches(self) -> List[Node]:
        """All switch nodes."""
        return [node for node in self.nodes() if node.is_switch]

    def host_names(self) -> List[str]:
        return [node.name for node in self.hosts()]

    def switch_names(self) -> List[str]:
        return [node.name for node in self.switches()]

    def num_hosts(self) -> int:
        return len(self.hosts())

    def num_switches(self) -> int:
        return len(self.switches())

    def num_links(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def neighbors(self, name: str) -> List[str]:
        """Names of nodes adjacent to ``name``, sorted."""
        try:
            return list(self.adjacency()[name][1:])
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def adjacency(self) -> Mapping[str, Tuple[str, ...]]:
        """Every location's moves, ``location -> (location, *its sorted
        neighbours)``: staying first, then each link in name order.

        Built once, on first use, and dropped when a node or link is added;
        callers share the table and must not change it.
        """
        if self._adjacency is None:
            self._adjacency = {
                name: (name, *sorted(adjacent))
                for name, adjacent in self._adj.items()
            }
        return self._adjacency

    def has_link(self, source: str, target: str) -> bool:
        return target in self._adj.get(source, ())

    def link(self, source: str, target: str) -> Link:
        """The link between two adjacent nodes."""
        try:
            return self._adj[source][target]
        except KeyError:
            raise TopologyError(f"no link between {source!r} and {target!r}") from None

    def links(self) -> List[Link]:
        """All links, in networkx's edge order: by the node order, each
        link under its first endpoint in that order.

        The order is read off the graph once, on first use, and dropped
        when a node or link is added; every call returns a new list.
        """
        return list(self._link_table())

    def _link_table(self) -> Tuple[Link, ...]:
        if self._links is None:
            links: List[Link] = []
            seen = set()
            for name, adjacent in self._adj.items():
                links.extend(
                    link for other, link in adjacent.items() if other not in seen
                )
                seen.add(name)
            self._links = tuple(links)
        return self._links

    def link_capacities(self) -> Mapping[Tuple[str, str], Bandwidth]:
        """Every link's capacity by its sorted ``(u, v)`` name pair, in
        :meth:`links` order: a read-only table built once, like
        :meth:`adjacency`."""
        if self._capacities is None:
            self._capacities = MappingProxyType(
                {
                    (
                        (link.source, link.target)
                        if link.source < link.target
                        else (link.target, link.source)
                    ): link.capacity
                    for link in self._link_table()
                }
            )
        return self._capacities

    def egress_switches(self) -> Tuple[str, ...]:
        """The switches with at least one attached host, in name order:
        where best-effort traffic enters and leaves the fabric.  Built once,
        like :meth:`adjacency`."""
        if self._egress is None:
            nodes = self._nodes
            self._egress = tuple(
                sorted(
                    name
                    for name, adjacent in self._adj.items()
                    if nodes[name].is_switch
                    and any(nodes[other].is_host for other in adjacent)
                )
            )
        return self._egress

    def capacity(self, source: str, target: str) -> Bandwidth:
        """The capacity of the link between two adjacent nodes."""
        return self.link(source, target).capacity

    def attachment_switch(self, name: str) -> str:
        """The switch a host or middlebox is attached to.

        If the node was created without an explicit ``attached_switch``, the
        first switch neighbour is used.  Raises when the node has no switch
        neighbour at all.
        """
        node = self.node(name)
        if node.attached_switch is not None:
            return node.attached_switch
        for neighbor in self.neighbors(name):
            if self._nodes[neighbor].is_switch:
                return neighbor
        raise TopologyError(f"node {name!r} is not attached to any switch")

    def hosts_on_switch(self, switch: str) -> List[str]:
        """Hosts directly attached to ``switch``."""
        return [
            neighbor
            for neighbor in self.neighbors(switch)
            if self._nodes[neighbor].is_host
        ]

    def without(
        self,
        links: Iterable[Tuple[str, str]] = (),
        nodes: Iterable[str] = (),
    ) -> "Topology":
        """A derived topology with the given links and nodes failed out.

        ``links`` are undirected (u, v) name pairs; ``nodes`` lose all their
        incident links along with themselves.  The *same* :class:`Node` and
        :class:`Link` objects are kept, so hosts keep their MAC/IP
        assignments — re-creating them through :meth:`add_host` would
        re-draw from the address counter.  Unknown
        nodes or links raise :class:`TopologyError`; failing a host is
        rejected (hosts are policy endpoints, not fabric elements).
        """
        failed_nodes = set(nodes)
        for name in failed_nodes:
            node = self.node(name)
            if node.is_host:
                raise TopologyError(
                    f"cannot fail host {name!r}: only switches and "
                    "middleboxes can fail"
                )
        failed_links = set()
        for source, target in links:
            self.link(source, target)  # existence check
            failed_links.add((source, target))
            failed_links.add((target, source))
        derived = Topology(name=f"{self.name}-degraded")
        # Filled as add_node (in name order) and add_link (in link order)
        # would fill it, without their checks: every name and link is known.
        derived._nodes = {
            name: self._nodes[name]
            for name in sorted(self._nodes)
            if name not in failed_nodes
        }
        # Hosts never fail, so the address lookups carry over whole.
        derived._hosts_by_mac = dict(self._hosts_by_mac)
        derived._hosts_by_ip = dict(self._hosts_by_ip)
        adj = derived._adj = {name: {} for name in derived._nodes}
        for link in self._link_table():
            source, target = link.source, link.target
            if (
                source in failed_nodes
                or target in failed_nodes
                or (source, target) in failed_links
            ):
                continue
            adj[source][target] = link
            adj[target][source] = link
        return derived

    def shortest_path(self, source: str, target: str) -> List[str]:
        """A shortest hop-count path between two locations.

        The bidirectional breadth-first search of networkx's
        ``shortest_path``, over the same neighbour order, so it picks the
        same path among equally short ones.
        """
        for endpoint in (source, target):
            if endpoint not in self._adj:
                raise TopologyError(f"unknown node {endpoint!r}")
        met = _bidirectional_meet(self._adj, source, target)
        if met is None:
            raise TopologyError(f"no path between {source!r} and {target!r}")
        pred, succ, location = met
        path: List[str] = []
        while location is not None:
            path.append(location)
            location = pred[location]
        path.reverse()
        location = succ[path[-1]]
        while location is not None:
            path.append(location)
            location = succ[location]
        return path

    def undirected_edges(self) -> List[Tuple[str, str]]:
        """All physical edges as sorted (u, v) name pairs."""
        return sorted(tuple(sorted((link.source, link.target))) for link in self.links())

    def host_by_mac(self, mac: str) -> Optional[Node]:
        """Find the host with the given MAC address (``None`` if absent)."""
        return self._hosts_by_mac.get(mac.lower())

    def host_by_ip(self, ip: str) -> Optional[Node]:
        """Find the host with the given IP address (``None`` if absent)."""
        return self._hosts_by_ip.get(ip)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, hosts={self.num_hosts()}, "
            f"switches={self.num_switches()}, links={self.num_links()})"
        )


def _bidirectional_meet(
    adj: Mapping[str, Mapping[str, Link]], source: str, target: str
) -> Optional[Tuple[Dict[str, Optional[str]], Dict[str, Optional[str]], str]]:
    """Breadth-first search from both ends, one level at a time from the
    smaller fringe: ``(pred, succ, meeting location)``, with ``pred``
    leading back to ``source`` and ``succ`` on to ``target``, or ``None``
    when the two are not connected."""
    if source == target:
        return {target: None}, {source: None}, source
    pred: Dict[str, Optional[str]] = {source: None}
    succ: Dict[str, Optional[str]] = {target: None}
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for location in level:
                for other in adj[location]:
                    if other not in pred:
                        forward.append(other)
                        pred[other] = location
                    if other in succ:
                        return pred, succ, other
        else:
            level, reverse = reverse, []
            for location in level:
                for other in adj[location]:
                    if other not in succ:
                        succ[other] = location
                        reverse.append(other)
                    if other in pred:
                        return pred, succ, other
    return None
