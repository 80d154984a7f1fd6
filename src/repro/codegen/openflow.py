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

Rules are built positionally, and the parts many rules of one tree or path
carry (the tagged match, the ``push_vlan`` action, a host's ``dl_dst``
match) are built once and shared: the records are immutable tuples, so
sharing changes neither their value nor their ``repr``.  Each location on a
path costs one topology lookup (:meth:`~repro.topology.graph.Topology.find`).
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

#: Builds a record from all of its fields at once, skipping the NamedTuple's
#: Python-level ``__new__`` (argument binding and defaults): the per-switch
#: loops of a sink tree make nearly every rule of a bundle through it.
_record = tuple.__new__

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

    The tree's tagged match, its ``push_vlan`` action and the per-host
    ``dl_dst`` matches are built once and shared by the rules that carry
    them, and each ingress switch's action pair once for all its hosts; the
    per-switch loops build their records with ``tuple.__new__``.
    """
    root = tree.root
    next_hops = tree.next_hop
    tag = vlans.tag_for_tree(root)
    tagged = ("dl_vlan", str(tag))
    transit_match = (tagged,)
    push = f"push_vlan:{tag}"
    macs = [(host, topology.node(host).mac or host) for host in tree.hosts]
    host_matches = [(("dl_dst", mac),) for _host, mac in macs]
    old_hop, old_rules = previous if previous is not None else ({}, ())
    old_transit = {rule.switch: rule for rule in old_rules[: len(old_hop)]}
    rules: List[OpenFlowRule] = []

    # Transit rules: match the tag, forward towards the root.
    for switch, next_hop in sorted(next_hops.items()):
        if old_hop.get(switch) == next_hop:
            rules.append(old_transit[switch])
        else:
            actions = (f"output:{next_hop}",)
            rules.append(_record(OpenFlowRule, (switch, transit_match, actions, 100, None)))

    # Egress delivery rules: strip the tag and forward to the host by MAC.
    position = len(old_hop)
    if previous is not None:
        rules.extend(old_rules[position : position + len(macs)])
    else:
        for host, mac in macs:
            rules.append(
                OpenFlowRule(
                    root, (tagged, ("dl_dst", mac)), ("strip_vlan", f"output:{host}"), 200
                )
            )

    # Ingress tagging rules: at every edge switch, packets destined to the
    # tree's hosts are tagged as they enter the network.
    position += len(macs)
    for ingress in ingress_switches:
        if ingress == root:
            continue
        first_hop = next_hops.get(ingress, root)
        if previous is not None and old_hop.get(ingress, root) == first_hop:
            rules.extend(old_rules[position : position + len(macs)])
        else:
            actions = (push, f"output:{first_hop}")
            rules.extend(
                [
                    _record(OpenFlowRule, (ingress, match, actions, 50, None))
                    for match in host_matches
                ]
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
    statement_id = assignment.statement_id
    tag = vlans.tag_for_statement(statement_id)
    switch_hops = _switch_hops(topology, assignment)
    if not switch_hops:
        return []
    tagged = ("dl_vlan", str(tag))
    transit_match = (tagged,)

    ingress_switch, first_next = switch_hops[0]
    rules = [
        OpenFlowRule(
            ingress_switch,
            match_from_predicate(predicate),
            (f"push_vlan:{tag}", f"output:{first_next}"),
            300,
            statement_id,
        )
    ]
    for switch, next_hop in switch_hops[1:]:
        rules.append(
            OpenFlowRule(switch, transit_match, (f"output:{next_hop}",), 300, statement_id)
        )
    # Egress: strip the tag and deliver to the final location of the path.
    last_switch, last_next = switch_hops[-1]
    egress_switch = last_switch if last_next is None else last_next
    destination = assignment.path[-1]
    destination_node = topology.find(destination)
    destination_mac = (
        destination_node.mac
        if destination_node is not None and destination_node.mac
        else destination
    )
    rules.append(
        OpenFlowRule(
            egress_switch if topology.node(egress_switch).is_switch else last_switch,
            (tagged, ("dl_dst", destination_mac)),
            ("strip_vlan", f"output:{destination}"),
            300,
            statement_id,
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
        node = topology.find(location)
        if node is None or not node.is_switch:
            continue
        next_hop = path[index + 1] if index + 1 < len(path) else None
        hops.append((location, next_hop))
    return hops
