"""The :class:`Topology` graph.

A thin, typed wrapper around :class:`networkx.Graph` that knows about node
kinds (host / switch / middlebox), link capacities, and the queries the
compiler needs: the location set, undirected physical edges, host-to-switch
attachment, and the switch-only subgraph used by the sink-tree optimisation.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

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
        # Read through ``adj`` only: the graph caches its ``edges`` and
        # ``degree`` views on itself, and each view holds the graph, so
        # reading either makes the topology a reference cycle.
        self._graph = nx.Graph()
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
        self._graph.add_node(node.name)
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
        self._graph.add_edge(source, target, link=link)
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
        return sum(map(len, self._graph.adj.values())) // 2

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
                for name, adjacent in self._graph.adj.items()
            }
        return self._adjacency

    def has_link(self, source: str, target: str) -> bool:
        return self._graph.has_edge(source, target)

    def link(self, source: str, target: str) -> Link:
        """The link between two adjacent nodes."""
        try:
            return self._graph.adj[source][target]["link"]
        except KeyError:
            raise TopologyError(f"no link between {source!r} and {target!r}") from None

    def links(self) -> List[Link]:
        """All links, in networkx's edge order.

        The order is read off the graph once, on first use, and dropped
        when a node or link is added; every call returns a new list.
        """
        if self._links is None:
            links: List[Link] = []
            seen = set()
            for name, adjacent in self._graph.adj.items():
                links.extend(
                    data["link"] for other, data in adjacent.items() if other not in seen
                )
                seen.add(name)
            self._links = tuple(links)
        return list(self._links)

    def link_capacities(self) -> Mapping[Tuple[str, str], Bandwidth]:
        """Every link's capacity by its sorted ``(u, v)`` name pair, in
        :meth:`links` order: a read-only table built once, like
        :meth:`adjacency`."""
        if self._capacities is None:
            self._capacities = MappingProxyType(
                {
                    tuple(sorted((link.source, link.target))): link.capacity
                    for link in self.links()
                }
            )
        return self._capacities

    def egress_switches(self) -> Tuple[str, ...]:
        """The switches with at least one attached host, in name order:
        where best-effort traffic enters and leaves the fabric.  Built once,
        like :meth:`adjacency`."""
        if self._egress is None:
            self._egress = tuple(
                switch.name for switch in self.switches() if self.hosts_on_switch(switch.name)
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

    def switch_subgraph(self) -> "Topology":
        """The topology restricted to switches and switch-switch links.

        This is the optimisation of §3.3: best-effort sink trees are computed
        per egress *switch* rather than per host, shrinking the BFS to
        ``O(|V||E|)`` with ``|V|`` the number of switches.
        """
        subgraph = Topology(name=f"{self.name}-switches")
        for node in self.switches():
            subgraph.add_node(node)
        for link in self.links():
            if (
                self._nodes[link.source].is_switch
                and self._nodes[link.target].is_switch
            ):
                subgraph.add_link(link.source, link.target, link.capacity, link.latency_ms)
        return subgraph

    def without(
        self,
        links: Iterable[Tuple[str, str]] = (),
        nodes: Iterable[str] = (),
    ) -> "Topology":
        """A derived topology with the given links and nodes failed out.

        ``links`` are undirected (u, v) name pairs; ``nodes`` lose all their
        incident links along with themselves.  The *same* :class:`Node`
        objects are re-added (as :meth:`switch_subgraph` does), so hosts
        keep their MAC/IP assignments — re-creating them through
        :meth:`add_host` would re-draw from the address counter.  Unknown
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
            failed_links.add(tuple(sorted((source, target))))
        derived = Topology(name=f"{self.name}-degraded")
        for node in self.nodes():
            if node.name not in failed_nodes:
                derived.add_node(node)
        for link in self.links():
            if tuple(sorted((link.source, link.target))) in failed_links:
                continue
            if link.source in failed_nodes or link.target in failed_nodes:
                continue
            derived.add_link(link.source, link.target, link.capacity, link.latency_ms)
        return derived

    def shortest_path(self, source: str, target: str) -> List[str]:
        """A shortest hop-count path between two locations."""
        try:
            return nx.shortest_path(self._graph, source, target)
        except nx.NetworkXNoPath:
            raise TopologyError(f"no path between {source!r} and {target!r}") from None

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
