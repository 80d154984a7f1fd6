"""Code-generation orchestrator.

Walks the compilation outputs (path assignments, sink trees, rate
allocations) and emits the complete :class:`InstructionBundle` for the
network: OpenFlow rules, queue configurations, ``tc`` commands, ``iptables``
filters, and Click configurations.

A bundle is assembled from *fragments*: the rules of one sink tree, and
everything one statement contributes (its path rules, queues, ``tc``
commands and ``iptables`` drop).  The instructions are immutable
``NamedTuple`` records, so a fragment taken over holds the very records
of the previous bundle, and the sink trees' rules, nearly all of a
bundle, share each tree's match and action tuples
(:func:`~repro.codegen.openflow.rules_for_sink_tree`).  Each fragment is
kept on the bundle it went into (:attr:`InstructionBundle.fragments`)
beside the content it was generated from, and a
:meth:`CodeGenerator.generate` handed the previous
bundle of the same session takes over every fragment whose content still
matches instead of generating it again:

* a tree fragment is keyed on the tree's root, ``next_hop`` and hosts, its
  VLAN tag and the ingress switches, so a failure that leaves a tree's
  routes alone keeps its rules; where only ``next_hop`` differs, the rules
  of every switch whose entry did not move are taken over and only the
  moved entries are made anew;
* a statement fragment is keyed on its path assignment, predicate, rate
  allocation, source host, whether it is dropped, its VLAN tag and its
  queue identifiers.

VLAN tags and queue identifiers are still allocated on every call, trees
first and then statements in policy order, so the bundle is byte-identical
to a from-scratch ``generate`` of the same inputs; a delta that shifts
later tags regenerates exactly the fragments whose tag moved.  Rules read
the topology only for the kinds and MAC addresses of the locations their
key names, and :meth:`~repro.topology.graph.Topology.without` keeps the
same node objects, so a fragment holds across a session's failures and
recoveries; a previous bundle must come from the same pristine topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..core.allocation import PathAssignment, RateAllocation
from ..core.ast import Policy, Statement
from ..core.sink_tree import SinkTree
from ..topology.graph import Topology
from .click import click_for_assignments
from .instructions import (
    InstructionBundle,
    IptablesRule,
    OpenFlowRule,
    QueueConfig,
    TcCommand,
)
from .iptables import drop_rule_for_statement
from .openflow import rules_for_path, rules_for_sink_tree
from .queues import Port, QueueAllocator, queue_ports, queues_for_path
from .tc import tc_for_statement
from .vlan import VlanAllocator


class _TreeFragment(NamedTuple):
    """One sink tree's rules and the content they were generated from."""

    key: tuple
    rules: List[OpenFlowRule]


class _StatementFragment(NamedTuple):
    """One statement's instructions and the content they were generated from.

    ``key`` starts with the path assignment; ``ports`` are its
    :func:`~repro.codegen.queues.queue_ports` (``None`` unless the
    statement has queues), kept so that an unchanged path need not be
    walked again to allocate its queue identifiers.
    """

    key: tuple
    ports: Optional[Tuple[Port, ...]]
    openflow: List[OpenFlowRule]
    queues: List[QueueConfig]
    tc: List[TcCommand]
    iptables: List[IptablesRule]


@dataclass
class Fragments:
    """The pieces one bundle was assembled from: tree fragments by root,
    statement fragments by statement identifier."""

    trees: Dict[str, _TreeFragment] = field(default_factory=dict)
    statements: Dict[str, _StatementFragment] = field(default_factory=dict)


@dataclass
class CodeGenerator:
    """Generates device instructions from compilation outputs."""

    topology: Topology

    def generate(
        self,
        policy: Policy,
        paths: Mapping[str, PathAssignment],
        rates: Mapping[str, RateAllocation],
        sink_trees: Mapping[str, SinkTree],
        endpoints: Optional[Mapping[str, Tuple[Optional[str], Optional[str]]]] = None,
        infeasible_statements: Tuple[str, ...] = (),
        previous: Optional[InstructionBundle] = None,
    ) -> InstructionBundle:
        """Emit the full instruction bundle for one compiled policy.

        ``endpoints`` maps statement identifiers to their inferred
        (source host, destination host); it drives end-host ``tc`` and
        ``iptables`` placement.  ``infeasible_statements`` lists statements
        whose path language is empty — their traffic is dropped at the edge.
        ``previous`` is the bundle this session generated last: its
        fragments are reused where their content matches (see the module
        docstring); the result is the same without it.
        """
        topology = self.topology
        endpoints = endpoints or {}
        reuse = previous.fragments if previous is not None else None
        if reuse is None:
            reuse = Fragments()
        fragments = Fragments()
        bundle = InstructionBundle(fragments=fragments)
        vlans = VlanAllocator()
        queue_allocator = QueueAllocator()

        # Best-effort forwarding state: one set of rules per sink tree.
        ingress_switches = topology.egress_switches()
        for root in sorted(sink_trees):
            tree = sink_trees[root]
            key = (
                tree.root,
                tree.next_hop,
                tree.hosts,
                vlans.tag_for_tree(tree.root),
                ingress_switches,
            )
            tree_fragment = reuse.trees.get(root)
            if tree_fragment is None or tree_fragment.key != key:
                previous_rules = None
                if tree_fragment is not None and tree_fragment.key[2:] == key[2:]:
                    # Same hosts, tag and ingress switches: only the
                    # switches whose next hop moved need rules anew.
                    previous_rules = (tree_fragment.key[1], tree_fragment.rules)
                tree_fragment = _TreeFragment(
                    key,
                    rules_for_sink_tree(
                        topology, tree, vlans, ingress_switches, previous_rules
                    ),
                )
            fragments.trees[root] = tree_fragment
            bundle.openflow.extend(tree_fragment.rules)

        # Per-statement guaranteed / path-constrained forwarding state.
        dropped_statements = frozenset(infeasible_statements)
        for statement in policy.statements:
            identifier = statement.identifier
            assignment = paths.get(identifier)
            allocation = rates.get(identifier)
            routed = assignment is not None and len(assignment.path) > 1
            shaped = allocation is not None and (
                allocation.cap is not None or allocation.is_guaranteed
            )
            dropped = identifier in dropped_statements
            if not (routed or shaped or dropped):
                continue
            fragment = reuse.statements.get(identifier)
            tag = vlans.tag_for_statement(identifier) if routed else None
            ports = None
            queue_ids: Tuple[int, ...] = ()
            if routed and allocation is not None and allocation.is_guaranteed:
                if (
                    fragment is not None
                    and fragment.ports is not None
                    and fragment.key[0] == assignment
                ):
                    ports = fragment.ports
                else:
                    ports = queue_ports(topology, assignment)
                queue_ids = queue_allocator.queue_ids(ports)
            source_host = endpoints.get(identifier, (None, None))[0]
            key = (
                assignment,
                statement.predicate,
                allocation,
                source_host,
                dropped,
                tag,
                queue_ids,
            )
            if fragment is None or fragment.key != key:
                fragment = self._statement_fragment(
                    key, ports, statement, vlans, routed, shaped
                )
            fragments.statements[identifier] = fragment
            bundle.openflow.extend(fragment.openflow)
            bundle.queues.extend(fragment.queues)
            bundle.tc.extend(fragment.tc)
            bundle.iptables.extend(fragment.iptables)

        # Middlebox configurations for every placed packet-processing function.
        bundle.click.extend(click_for_assignments(paths))
        return bundle

    def _statement_fragment(
        self,
        key: tuple,
        ports: Optional[Tuple[Port, ...]],
        statement: Statement,
        vlans: VlanAllocator,
        routed: bool,
        shaped: bool,
    ) -> _StatementFragment:
        """Generate one statement's instructions from the content ``key``
        names (the tag is already allocated in ``vlans``)."""
        topology = self.topology
        assignment, predicate, allocation, source_host, dropped, _tag, queue_ids = key
        return _StatementFragment(
            key=key,
            ports=ports,
            openflow=(
                rules_for_path(topology, assignment, predicate, vlans) if routed else []
            ),
            queues=(
                queues_for_path(assignment, allocation, ports, queue_ids)
                if ports is not None
                else []
            ),
            tc=(
                tc_for_statement(topology, statement, allocation, source_host)
                if shaped
                else []
            ),
            iptables=(
                drop_rule_for_statement(topology, statement, source_host)
                if dropped
                else []
            ),
        )
