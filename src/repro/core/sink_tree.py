"""Best-effort provisioning via sink trees (§3.3).

Traffic that requires no bandwidth guarantee does not need the MIP.  The
compiler instead computes, for each egress switch, a *sink tree* that
forwards traffic from everywhere in the network towards that switch, by
breadth-first search.  Two optimisations from the paper are implemented:

* the BFS runs over the switch-only subgraph, so the complexity is
  ``O(|V||E|)`` with ``|V|`` the number of switches rather than hosts, and
* hosts are attached during code generation (the egress switch forwards to
  the destination host using its unique identifier).

Best-effort statements whose path expression is more constrained than ``.*``
are routed individually instead, each by the BFS over its logical topology
that restricting its path expression's shared product walk answers (see
:class:`~repro.core.logical.ProductWalk`).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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
    topology: Topology, root_switch: str, switches: Optional[Topology] = None
) -> SinkTree:
    """BFS sink tree over the switch-only subgraph, rooted at ``root_switch``.

    ``switches`` is ``topology.switch_subgraph()`` when the caller already
    holds it (one subgraph serves every root of a topology).
    """
    if switches is None:
        switches = topology.switch_subgraph()
    if not switches.has_node(root_switch):
        raise TopologyError(f"{root_switch!r} is not a switch")
    next_hop: Dict[str, str] = {}
    visited = {root_switch}
    queue = collections.deque([root_switch])
    # A switch's moves start with itself, which is visited already.
    moves = switches.adjacency()
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
    switches = topology.switch_subgraph()
    return {root: compute_sink_tree(topology, root, switches) for root in roots}


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
