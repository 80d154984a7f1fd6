"""A Ring Paxos replication model (the experiment of §6.2, Figure 5).

The paper deploys two independent replicated key-value services, each
ordering commands with Ring Paxos.  One process of each service is
co-located on the same machine, so the two rings compete for that machine's
NIC — the bottleneck resource.  Figure 5 (a) shows that without Merlin the
two services split the bottleneck roughly equally; Figure 5 (b) shows that a
bandwidth guarantee protects Service 2's throughput without sacrificing
aggregate utilisation (work conservation lets Service 1 reclaim idle
bandwidth).

The model: each client contributes a fixed offered load to its service; a
service's achievable network demand is ``clients × per_client_load``; the
bottleneck link's bandwidth is shared between the two services according to
max-min fairness with the compiled guarantees/caps; and a service's
throughput is the minimum of its offered load and its bandwidth share
(scaled by a protocol efficiency factor that accounts for Ring Paxos
ordering overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...units import Bandwidth
from ..fairshare import allocate_rates
from ..flows import Flow
from ..network import SimulationNetwork
from ...packet import make_packet


@dataclass
class RingPaxosService:
    """One replicated service: a ring of processes ordering client commands."""

    name: str
    coordinator_host: str
    acceptor_host: str
    per_client_load: Bandwidth = Bandwidth.mbps(20)
    protocol_efficiency: float = 0.9
    tcp_port: int = 8600

    def offered_load(self, clients: int) -> Bandwidth:
        """The network demand generated by ``clients`` concurrent clients."""
        return self.per_client_load * clients


@dataclass
class RingPaxosExperiment:
    """Two services sharing a bottleneck machine, swept over client counts."""

    network: SimulationNetwork
    service1: RingPaxosService
    service2: RingPaxosService

    def throughput_at(
        self, clients1: int, clients2: int
    ) -> Dict[str, float]:
        """Throughput (Mbps) of each service and the aggregate for one client count."""
        flows: List[Flow] = []
        for service, clients in ((self.service1, clients1), (self.service2, clients2)):
            demand = service.offered_load(clients)
            packet = make_packet(
                eth_src=self.network.topology.node(service.coordinator_host).mac,
                eth_dst=self.network.topology.node(service.acceptor_host).mac,
                ip_src=self.network.topology.node(service.coordinator_host).ip,
                ip_dst=self.network.topology.node(service.acceptor_host).ip,
                ip_proto="tcp",
                tcp_dst=service.tcp_port,
            )
            flows.append(
                self.network.build_flow(
                    flow_id=service.name,
                    source_host=service.coordinator_host,
                    destination_host=service.acceptor_host,
                    packet=packet,
                    demand_bps=demand.bps_value,
                )
            )
        rates = allocate_rates(flows, self.network.link_capacities())
        result = {
            self.service1.name: rates[self.service1.name]
            / 1e6
            * self.service1.protocol_efficiency,
            self.service2.name: rates[self.service2.name]
            / 1e6
            * self.service2.protocol_efficiency,
        }
        result["aggregate"] = sum(result.values())
        return result

    def sweep(
        self, client_counts: Sequence[int], fixed_clients2: Optional[int] = None
    ) -> List[Dict[str, float]]:
        """Throughput curves over a sweep of client counts.

        When ``fixed_clients2`` is ``None`` both services scale with the
        sweep (the paper's setup); otherwise Service 2's client count stays
        fixed while Service 1 grows.
        """
        rows = []
        for clients in client_counts:
            clients2 = clients if fixed_clients2 is None else fixed_clients2
            row = {"clients": float(clients)}
            row.update(self.throughput_at(clients, clients2))
            rows.append(row)
        return rows
