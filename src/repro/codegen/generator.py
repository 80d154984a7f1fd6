"""Code-generation orchestrator.

Walks the compilation outputs (path assignments, sink trees, rate
allocations) and emits the complete :class:`InstructionBundle` for the
network: OpenFlow rules, queue configurations, ``tc`` commands, ``iptables``
filters, and Click configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.allocation import PathAssignment, RateAllocation
from ..core.ast import Policy, Statement
from ..core.sink_tree import SinkTree, egress_switches
from ..topology.graph import Topology
from .click import click_for_assignments
from .instructions import InstructionBundle
from .iptables import drop_rule_for_statement
from .openflow import rules_for_path, rules_for_sink_tree
from .queues import QueueAllocator, queues_for_path
from .tc import tc_for_statement
from .vlan import VlanAllocator


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
    ) -> InstructionBundle:
        """Emit the full instruction bundle for one compiled policy.

        ``endpoints`` maps statement identifiers to their inferred
        (source host, destination host); it drives end-host ``tc`` and
        ``iptables`` placement.  ``infeasible_statements`` lists statements
        whose path language is empty — their traffic is dropped at the edge.
        """
        endpoints = endpoints or {}
        bundle = InstructionBundle()
        vlans = VlanAllocator()
        queue_allocator = QueueAllocator()

        # Best-effort forwarding state: one set of rules per sink tree.
        ingress_switches = egress_switches(self.topology)
        for root in sorted(sink_trees):
            bundle.openflow.extend(
                rules_for_sink_tree(
                    self.topology, sink_trees[root], vlans, ingress_switches
                )
            )

        # Per-statement guaranteed / path-constrained forwarding state.
        for statement in policy.statements:
            assignment = paths.get(statement.identifier)
            allocation = rates.get(statement.identifier)
            source_host = endpoints.get(statement.identifier, (None, None))[0]

            if assignment is not None and len(assignment.path) > 1:
                bundle.openflow.extend(
                    rules_for_path(self.topology, assignment, statement.predicate, vlans)
                )
                if allocation is not None and allocation.is_guaranteed:
                    bundle.queues.extend(
                        queues_for_path(
                            self.topology, assignment, allocation, queue_allocator
                        )
                    )

            if allocation is not None and (
                allocation.cap is not None or allocation.is_guaranteed
            ):
                bundle.tc.extend(
                    tc_for_statement(self.topology, statement, allocation, source_host)
                )

            if statement.identifier in infeasible_statements:
                bundle.iptables.extend(
                    drop_rule_for_statement(self.topology, statement, source_host)
                )

        # Middlebox configurations for every placed packet-processing function.
        bundle.click.extend(click_for_assignments(dict(paths)))
        return bundle

