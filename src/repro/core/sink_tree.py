"""Best-effort provisioning via sink trees (§3.3).

Traffic that requires no bandwidth guarantee does not need the MIP.  The
compiler instead computes, for each egress switch, a *sink tree* that
forwards traffic from everywhere in the network towards that switch, by
breadth-first search.  Two optimisations from the paper are implemented:

* the BFS runs over the switches only (the topology's adjacency with every
  other location treated as already visited), so the complexity is
  ``O(|V||E|)`` with ``|V|`` the number of switches rather than hosts, and
* hosts are attached during code generation (the egress switch forwards to
  the destination host using its unique identifier).

A failure or recovery re-walks only the trees it can change
(:func:`update_sink_trees`, the setting of dynamic BFS: Even and Shiloach,
J. ACM 1981).  A BFS run is unchanged by a lost link that is no tree edge,
and a lost switch that is a leaf only loses its own entry.  It is unchanged
by a returning switch-to-switch link whenever, at the moment the run takes
that link from either end, the other end is already visited: the two ends
are of equal depth, or one end ``v`` is a level below the other, ``u``,
and ``v``'s parent is dequeued before ``u``.  Every other tree is walked
again.  A host link that fails or returns changes only its switch's
``hosts``.

Best-effort statements whose path expression is more constrained than ``.*``
are routed individually instead, each by the BFS over its logical topology
that restricting its path expression's shared product walk answers (see
:class:`~repro.core.logical.ProductWalk`).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import TopologyError
from ..topology.graph import Topology


@dataclass
class SinkTree:
    """A forwarding tree rooted at (sinking into) one egress switch.

    ``next_hop[u]`` is the neighbour that switch ``u`` forwards to on the way
    to the root; the root itself has no entry.  ``hosts`` lists the hosts
    attached to the root switch (the final delivery step).
    """

    root: str
    next_hop: Dict[str, str] = field(default_factory=dict)
    hosts: Tuple[str, ...] = ()

    def path_from(self, switch: str) -> List[str]:
        """The switch-level path from ``switch`` to the root."""
        if switch == self.root:
            return [self.root]
        path = [switch]
        current = switch
        seen = {switch}
        while current != self.root:
            current = self.next_hop.get(current)
            if current is None:
                raise TopologyError(
                    f"switch {path[0]!r} cannot reach sink {self.root!r}"
                )
            if current in seen:
                raise TopologyError("sink tree contains a cycle")
            seen.add(current)
            path.append(current)
        return path

    def depth(self) -> int:
        """The longest switch-level path length in the tree."""
        return max((len(self.path_from(switch)) - 1 for switch in self.next_hop), default=0)

    def num_switches(self) -> int:
        return len(self.next_hop) + 1


def compute_sink_tree(
    topology: Topology, root_switch: str, blocked: Optional[frozenset] = None
) -> SinkTree:
    """BFS sink tree over the switches, rooted at ``root_switch``.

    The BFS walks the topology's adjacency (sorted neighbours) and never
    enters a ``blocked`` location: every location but the switches, which
    the caller passes when it already holds them (one set serves every
    root of a topology).
    """
    if blocked is None:
        blocked = _not_switches(topology)
    moves = topology.adjacency()
    if root_switch not in moves or root_switch in blocked:
        raise TopologyError(f"{root_switch!r} is not a switch")
    next_hop: Dict[str, str] = {}
    visited = set(blocked)
    visited.add(root_switch)
    queue = collections.deque([root_switch])
    # A switch's moves start with itself, which is visited already.
    while queue:
        current = queue.popleft()
        for neighbor in moves[current]:
            if neighbor not in visited:
                visited.add(neighbor)
                next_hop[neighbor] = current
                queue.append(neighbor)
    hosts = tuple(sorted(topology.hosts_on_switch(root_switch)))
    return SinkTree(root=root_switch, next_hop=next_hop, hosts=hosts)


def compute_sink_trees(
    topology: Topology, roots: Optional[Iterable[str]] = None
) -> Dict[str, SinkTree]:
    """Sink trees for every egress switch (or the given subset of switches).

    An egress switch is one with at least one attached host
    (:meth:`~repro.topology.graph.Topology.egress_switches`); switches without
    hosts never need a tree of their own.
    """
    if roots is None:
        roots = topology.egress_switches()
    blocked = _not_switches(topology)
    return {root: compute_sink_tree(topology, root, blocked) for root in roots}


def update_sink_trees(
    trees: Mapping[str, SinkTree],
    before: Topology,
    after: Topology,
    links: Iterable[Tuple[str, str]],
    nodes: Iterable[str],
) -> Dict[str, SinkTree]:
    """``compute_sink_trees(after)``, given ``trees``, which are
    ``compute_sink_trees(before)``, and the ``links`` (as name pairs) and
    ``nodes`` that may differ between the two topologies.

    A tree no change reaches is handed back as the same object; a tree that
    only lost leaves keeps the rest of its entries, in their order.
    """
    lost_nodes = [
        name
        for name in nodes
        if name in before and name not in after and before.node(name).is_switch
    ]
    lost_links: List[Tuple[str, str]] = []
    gained_links: List[Tuple[str, str]] = []
    for source, target in links:
        had, has = before.has_link(source, target), after.has_link(source, target)
        if had == has:
            continue
        topology = before if had else after
        if not (topology.node(source).is_switch and topology.node(target).is_switch):
            continue
        if has:
            gained_links.append((source, target))
        elif source not in lost_nodes and target not in lost_nodes:
            lost_links.append((source, target))
    blocked = None
    updated: Dict[str, SinkTree] = {}
    for root in after.egress_switches():
        tree = trees.get(root)
        next_hop = None if tree is None else _patched(tree, lost_nodes, lost_links)
        if next_hop is not None and not _unmoved(root, next_hop, gained_links):
            next_hop = None
        if next_hop is None:
            if blocked is None:
                blocked = _not_switches(after)
            updated[root] = compute_sink_tree(after, root, blocked)
            continue
        hosts = tuple(sorted(after.hosts_on_switch(root)))
        if next_hop is not tree.next_hop or hosts != tree.hosts:
            tree = SinkTree(root=root, next_hop=next_hop, hosts=hosts)
        updated[root] = tree
    return updated


def _patched(
    tree: SinkTree, lost_nodes: List[str], lost_links: List[Tuple[str, str]]
) -> Optional[Dict[str, str]]:
    """The tree's ``next_hop`` once the switches and links are lost, where
    no BFS step of the tree's run can differ (``None`` where one may)."""
    next_hop = tree.next_hop
    lost = [name for name in lost_nodes if name in next_hop]
    if lost:
        parents = set(next_hop.values())
        if any(name in parents for name in lost):
            return None
        next_hop = {
            switch: hop for switch, hop in next_hop.items() if switch not in lost
        }
    for source, target in lost_links:
        if next_hop.get(source) == target or next_hop.get(target) == source:
            return None
    return next_hop


def _unmoved(
    root: str, next_hop: Dict[str, str], gained_links: List[Tuple[str, str]]
) -> bool:
    """Whether the BFS run that gave ``next_hop`` gives it again once the
    ``gained_links`` are added.

    It does if, for each link, the end the run dequeues later was visited
    before the run dequeues the other end — its parent is dequeued before
    the other end (the dequeue order is ``[root, *next_hop]``, the visit
    order) — so that neither end meets the other unvisited.  That holds
    exactly when the ends are of equal depth, or the later one is a level
    deeper and its parent is dequeued first.  A link spanning two levels or
    more, or with an end outside the tree, may move the run.
    """
    if not gained_links:
        return True
    position = {switch: rank for rank, switch in enumerate([root, *next_hop])}
    for u, v in gained_links:
        if u not in position or v not in position:
            return False
        if position[u] > position[v]:
            u, v = v, u
        if position[next_hop[v]] >= position[u]:
            return False
    return True


def _not_switches(topology: Topology) -> frozenset:
    """The locations a switch-only BFS never enters."""
    return frozenset(topology.adjacency()).difference(topology.switch_names())


def host_path(topology: Topology, tree: SinkTree, source_host: str, destination_host: str) -> List[str]:
    """The full host-to-host path implied by a sink tree.

    The path enters the network at the source host's attachment switch,
    follows the tree to the destination's egress switch, and ends at the
    destination host.
    """
    ingress = topology.attachment_switch(source_host)
    egress = topology.attachment_switch(destination_host)
    if egress != tree.root:
        raise TopologyError(
            f"sink tree rooted at {tree.root!r} does not serve host {destination_host!r}"
        )
    return [source_host, *tree.path_from(ingress), destination_host]
