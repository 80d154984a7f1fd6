"""OpenFlow rule generation.

Two kinds of forwarding state are emitted:

* **Sink-tree rules** for best-effort traffic: every switch on the tree
  matches the tree's VLAN tag and forwards towards the root; the root strips
  the tag and delivers to the destination host by MAC address; ingress
  switches tag packets destined to the tree's hosts as they enter the
  network.
* **Per-statement path rules** for guaranteed traffic: the statement's
  classifying match (derived from its predicate) is installed at the ingress
  switch, which pushes a dedicated VLAN tag; every switch along the selected
  path forwards on that tag; the egress switch pops the tag and delivers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.allocation import PathAssignment
from ..core.sink_tree import SinkTree
from ..predicates.ast import Predicate
from ..predicates.transform import positive_field_tests
from ..topology.graph import Topology
from .instructions import OpenFlowRule
from .vlan import VlanAllocator

#: Header fields that OpenFlow 1.0-style matches can express directly.
_MATCHABLE_FIELDS = {
    "eth.src": "dl_src",
    "eth.dst": "dl_dst",
    "eth.type": "dl_type",
    "vlan.id": "dl_vlan",
    "ip.src": "nw_src",
    "ip.dst": "nw_dst",
    "ip.proto": "nw_proto",
    "tcp.src": "tp_src",
    "tcp.dst": "tp_dst",
    "udp.src": "tp_src",
    "udp.dst": "tp_dst",
}


def match_from_predicate(predicate: Predicate) -> Tuple[Tuple[str, str], ...]:
    """Extract an OpenFlow match from the positive atoms of a predicate.

    Negations and disjunctions cannot be expressed in a single OpenFlow
    match; they are conservatively ignored here (the classification is still
    refined by the VLAN tagging installed at the ingress), which matches the
    paper's use of VLAN tags to make forwarding robust to header rewriting.
    """
    fields: Dict[str, str] = {}
    for test in positive_field_tests(predicate):
        if test.field in _MATCHABLE_FIELDS:
            fields.setdefault(_MATCHABLE_FIELDS[test.field], str(test.value))
    return tuple(sorted(fields.items()))


def rules_for_sink_tree(
    topology: Topology,
    tree: SinkTree,
    vlans: VlanAllocator,
    ingress_switches: Sequence[str],
    previous: Optional[Tuple[Mapping[str, str], Sequence[OpenFlowRule]]] = None,
) -> List[OpenFlowRule]:
    """Forwarding rules implementing one sink tree.

    ``ingress_switches`` is ``topology.egress_switches()``: the same for
    every tree of one bundle.  ``previous`` is the ``(next_hop, rules)`` of
    an earlier call for a tree of the same root, hosts, tag and ingress
    switches: the rules of every switch whose next hop did not move are
    taken over from it, and only the rest are made anew.
    """
    tag = vlans.tag_for_tree(tree.root)
    macs = [(host, topology.node(host).mac or host) for host in tree.hosts]
    old_hop, old_rules = previous if previous is not None else ({}, ())
    old_transit = {rule.switch: rule for rule in old_rules[: len(old_hop)]}
    rules: List[OpenFlowRule] = []

    # Transit rules: match the tag, forward towards the root.
    for switch, next_hop in sorted(tree.next_hop.items()):
        if old_hop.get(switch) == next_hop:
            rules.append(old_transit[switch])
            continue
        rules.append(
            OpenFlowRule(
                switch=switch,
                match=(("dl_vlan", str(tag)),),
                actions=(f"output:{next_hop}",),
                priority=100,
            )
        )

    # Egress delivery rules: strip the tag and forward to the host by MAC.
    position = len(old_hop)
    if previous is not None:
        rules.extend(old_rules[position : position + len(macs)])
    else:
        for host, mac in macs:
            rules.append(
                OpenFlowRule(
                    switch=tree.root,
                    match=(("dl_vlan", str(tag)), ("dl_dst", mac)),
                    actions=("strip_vlan", f"output:{host}"),
                    priority=200,
                )
            )

    # Ingress tagging rules: at every edge switch, packets destined to the
    # tree's hosts are tagged as they enter the network.
    position += len(macs)
    for ingress in ingress_switches:
        if ingress == tree.root:
            continue
        first_hop = tree.next_hop.get(ingress, tree.root)
        if previous is not None and old_hop.get(ingress, tree.root) == first_hop:
            rules.extend(old_rules[position : position + len(macs)])
        else:
            for host, mac in macs:
                rules.append(
                    OpenFlowRule(
                        switch=ingress,
                        match=(("dl_dst", mac),),
                        actions=(f"push_vlan:{tag}", f"output:{first_hop}"),
                        priority=50,
                    )
                )
        position += len(macs)
    return rules


def rules_for_path(
    topology: Topology,
    assignment: PathAssignment,
    predicate: Predicate,
    vlans: VlanAllocator,
) -> List[OpenFlowRule]:
    """Forwarding rules pinning one statement's traffic to its selected path."""
    tag = vlans.tag_for_statement(assignment.statement_id)
    rules: List[OpenFlowRule] = []
    switch_hops = _switch_hops(topology, assignment)
    if not switch_hops:
        return rules
    classify_match = match_from_predicate(predicate)

    ingress_switch, first_next = switch_hops[0]
    rules.append(
        OpenFlowRule(
            switch=ingress_switch,
            match=classify_match,
            actions=(f"push_vlan:{tag}", f"output:{first_next}"),
            priority=300,
            statement_id=assignment.statement_id,
        )
    )
    for switch, next_hop in switch_hops[1:]:
        rules.append(
            OpenFlowRule(
                switch=switch,
                match=(("dl_vlan", str(tag)),),
                actions=(f"output:{next_hop}",),
                priority=300,
                statement_id=assignment.statement_id,
            )
        )
    # Egress: strip the tag and deliver to the final location of the path.
    egress_switch = switch_hops[-1][0] if switch_hops[-1][1] is None else switch_hops[-1][1]
    destination = assignment.path[-1]
    destination_mac = (
        topology.node(destination).mac
        if topology.has_node(destination) and topology.node(destination).mac
        else destination
    )
    rules.append(
        OpenFlowRule(
            switch=egress_switch if topology.node(egress_switch).is_switch else switch_hops[-1][0],
            match=(("dl_vlan", str(tag)), ("dl_dst", destination_mac)),
            actions=("strip_vlan", f"output:{destination}"),
            priority=300,
            statement_id=assignment.statement_id,
        )
    )
    return rules


def _switch_hops(
    topology: Topology, assignment: PathAssignment
) -> List[Tuple[str, Optional[str]]]:
    """(switch, next hop) pairs along the assignment's path.

    The next hop is the next distinct location after the switch on the path
    (a switch, middlebox, or the destination host); ``None`` marks the final
    switch.
    """
    path = [
        location
        for index, location in enumerate(assignment.path)
        if index == 0 or location != assignment.path[index - 1]
    ]
    hops: List[Tuple[str, Optional[str]]] = []
    for index, location in enumerate(path):
        if not topology.has_node(location) or not topology.node(location).is_switch:
            continue
        next_hop = path[index + 1] if index + 1 < len(path) else None
        hops.append((location, next_hop))
    return hops
