"""The OpenFlow emitters as they were before they shared their match tuples.

:func:`rules_for_sink_tree` and :func:`rules_for_path` build every rule by
keyword, each with its own match and action tuples, and look every path
location up twice (``has_node`` then ``node``).
``tests/codegen/test_emitter_reference.py`` holds
:mod:`repro.codegen.openflow` to these, rule for rule, by ``==`` and by
``repr``.  The record type and the predicate match are the program's own:
what is compared is the emission, not the records.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.codegen.instructions import OpenFlowRule
from repro.codegen.openflow import match_from_predicate


def rules_for_sink_tree(
    topology,
    tree,
    vlans,
    ingress_switches: Sequence[str],
    previous: Optional[Tuple[Mapping[str, str], Sequence[OpenFlowRule]]] = None,
) -> List[OpenFlowRule]:
    tag = vlans.tag_for_tree(tree.root)
    macs = [(host, topology.node(host).mac or host) for host in tree.hosts]
    old_hop, old_rules = previous if previous is not None else ({}, ())
    old_transit = {rule.switch: rule for rule in old_rules[: len(old_hop)]}
    rules: List[OpenFlowRule] = []

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


def rules_for_path(topology, assignment, predicate, vlans) -> List[OpenFlowRule]:
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


def _switch_hops(topology, assignment) -> List[Tuple[str, Optional[str]]]:
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
