"""Node and link element types for physical topologies."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..units import Bandwidth, LINE_RATE


class NodeKind(enum.Enum):
    """The role a network location plays.

    The compiler treats all locations uniformly when building the logical
    topology, but code generation targets differ: switches receive OpenFlow
    rules and queue configurations, middleboxes receive Click configurations,
    and hosts receive ``tc``/``iptables`` commands or interpreter programs.
    """

    HOST = "host"
    SWITCH = "switch"
    MIDDLEBOX = "middlebox"


@dataclass(frozen=True)
class Node:
    """A network location.

    ``mac`` and ``ip`` are optional addressing attributes used when expanding
    policy sugar (set literals of hosts) and when generating match rules.
    ``attached_switch`` records, for hosts and middleboxes, the switch they
    hang off — used by the sink-tree optimisation and code generation.
    """

    name: str
    kind: NodeKind
    mac: Optional[str] = None
    ip: Optional[str] = None
    attached_switch: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    @property
    def is_host(self) -> bool:
        return self.kind is NodeKind.HOST

    @property
    def is_switch(self) -> bool:
        return self.kind is NodeKind.SWITCH


@dataclass(frozen=True)
class Link:
    """An undirected physical link with a capacity.

    Capacities default to 1 Gbps, the NIC speed of the paper's testbed.  The
    MIP formulation uses the capacity of the *physical* link regardless of
    how many logical-topology edges map onto it.
    """

    source: str
    target: str
    capacity: Bandwidth = LINE_RATE
    latency_ms: float = 0.1

    def endpoints(self) -> frozenset:
        """The unordered pair of endpoint names."""
        return frozenset({self.source, self.target})
