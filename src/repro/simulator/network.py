"""Binding a topology and a compiled policy to the simulator.

:class:`SimulationNetwork` answers two questions for the simulator:

* what path does a flow between two hosts take?  (the compiled per-statement
  path when one exists, the compiled sink tree otherwise, or a shortest path
  as a last resort), and
* what bandwidth guarantee / cap applies to that flow?  (the statement whose
  predicate matches the flow's packets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.allocation import CompilationResult
from ..packet import Packet
from ..predicates.evaluator import matches
from ..topology.graph import Topology
from .flows import Flow, LinkKey


@dataclass
class SimulationNetwork:
    """A topology plus (optionally) the compiled policy governing it."""

    topology: Topology
    compilation: Optional[CompilationResult] = None

    def link_capacities(self) -> Dict[LinkKey, float]:
        """Capacity in bps of every physical link."""
        return {
            tuple(sorted((link.source, link.target))): link.capacity.bps_value
            for link in self.topology.links()
        }

    # -- routing -----------------------------------------------------------------

    def route(
        self,
        source_host: str,
        destination_host: str,
        statement_id: Optional[str] = None,
    ) -> Tuple[str, ...]:
        """The location path a flow takes from ``source_host`` to ``destination_host``."""
        if self.compilation is not None:
            if statement_id is not None:
                assignment = self.compilation.paths.get(statement_id)
                if assignment is not None and len(assignment.path) > 1:
                    return assignment.path
            egress = self.topology.attachment_switch(destination_host)
            tree = self.compilation.sink_trees.get(egress)
            if tree is not None:
                from ..core.sink_tree import host_path

                return tuple(host_path(self.topology, tree, source_host, destination_host))
        return tuple(self.topology.shortest_path(source_host, destination_host))

    # -- statement lookup -----------------------------------------------------------

    def classify(self, packet: Packet) -> Optional[str]:
        """The identifier of the policy statement matching ``packet`` (if compiled)."""
        if self.compilation is None:
            return None
        for statement in self.compilation.policy.statements:
            if matches(statement.predicate, packet):
                return statement.identifier
        return None

    def rate_limits(self, statement_id: Optional[str]) -> Tuple[float, float]:
        """(guarantee_bps, cap_bps) for a statement (0 / +inf when absent)."""
        if self.compilation is None or statement_id is None:
            return 0.0, math.inf
        allocation = self.compilation.rates.get(statement_id)
        if allocation is None:
            return 0.0, math.inf
        guarantee = allocation.guarantee.bps_value if allocation.guarantee else 0.0
        cap = allocation.cap.bps_value if allocation.cap else math.inf
        return guarantee, cap

    # -- flow construction -------------------------------------------------------------

    def build_flow(
        self,
        flow_id: str,
        source_host: str,
        destination_host: str,
        packet: Optional[Packet] = None,
        demand_bps: float = math.inf,
        size_bytes: Optional[float] = None,
        start_time: float = 0.0,
        responsive: bool = True,
    ) -> Flow:
        """Create a flow routed and rate-limited according to the compiled policy."""
        statement_id = self.classify(packet) if packet is not None else None
        path = self.route(source_host, destination_host, statement_id)
        guarantee, cap = self.rate_limits(statement_id)
        return Flow(
            flow_id=flow_id,
            path=path,
            demand_bps=demand_bps,
            size_bytes=size_bytes,
            guarantee_bps=guarantee,
            cap_bps=cap,
            statement_id=statement_id,
            start_time=start_time,
            responsive=responsive,
        )
