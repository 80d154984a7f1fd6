"""Traffic source helpers.

Small factories that build :class:`~repro.simulator.flows.Flow` objects for
the traffic patterns used in the evaluation: constant-bit-rate UDP background
traffic (the ``iperf`` interference of the Hadoop experiment), elastic
transfers (Hadoop shuffle data), and request/response client load (Ring
Paxos clients).
"""

from __future__ import annotations

import math
from typing import Optional

from ..packet import Packet, make_packet
from .flows import Flow
from .network import SimulationNetwork


def constant_bit_rate_flow(
    network: SimulationNetwork,
    flow_id: str,
    source_host: str,
    destination_host: str,
    rate_bps: float,
    packet: Optional[Packet] = None,
    start_time: float = 0.0,
) -> Flow:
    """An open-ended flow sending at a constant rate (UDP-like background traffic)."""
    if packet is None:
        packet = _default_packet(network, source_host, destination_host, udp_dst=5001)
    return network.build_flow(
        flow_id=flow_id,
        source_host=source_host,
        destination_host=destination_host,
        packet=packet,
        demand_bps=rate_bps,
        size_bytes=None,
        start_time=start_time,
        responsive=False,
    )


def elastic_flow(
    network: SimulationNetwork,
    flow_id: str,
    source_host: str,
    destination_host: str,
    size_bytes: float,
    packet: Optional[Packet] = None,
    start_time: float = 0.0,
) -> Flow:
    """A finite transfer that uses whatever bandwidth it is allocated (TCP-like)."""
    if packet is None:
        packet = _default_packet(network, source_host, destination_host, tcp_dst=50010)
    return network.build_flow(
        flow_id=flow_id,
        source_host=source_host,
        destination_host=destination_host,
        packet=packet,
        demand_bps=math.inf,
        size_bytes=size_bytes,
        start_time=start_time,
    )


def _default_packet(
    network: SimulationNetwork,
    source_host: str,
    destination_host: str,
    tcp_dst: Optional[int] = None,
    udp_dst: Optional[int] = None,
) -> Packet:
    """A representative packet for classification purposes."""
    topology = network.topology
    source = topology.node(source_host)
    destination = topology.node(destination_host)
    return make_packet(
        eth_src=source.mac,
        eth_dst=destination.mac,
        ip_src=source.ip,
        ip_dst=destination.ip,
        ip_proto="tcp" if tcp_dst is not None else "udp",
        tcp_dst=tcp_dst,
        udp_dst=udp_dst,
    )
