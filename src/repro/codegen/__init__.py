"""Code generation for network devices (§3.4).

The compiler's final stage turns path assignments, sink trees, and bandwidth
allocations into the low-level instructions the paper's backends emit:

* **OpenFlow rules** for switches (forwarding along VLAN-tagged sink trees
  and per-statement guaranteed paths),
* **queue configurations** on switch ports for bandwidth guarantees,
* **tc commands** on end hosts for rate limits and guarantees,
* **iptables rules** on end hosts for traffic filtering,
* **Click configurations** for software middleboxes hosting packet-processing
  functions.

The instruction objects are counted exactly as Figure 4 counts them and can
also be rendered to textual configuration for inspection.
"""

from .instructions import (
    ClickConfig,
    InstructionBundle,
    IptablesRule,
    OpenFlowRule,
    QueueConfig,
    TcCommand,
)
from .generator import CodeGenerator
from .vlan import VlanAllocator

__all__ = [
    "ClickConfig",
    "InstructionBundle",
    "IptablesRule",
    "OpenFlowRule",
    "QueueConfig",
    "TcCommand",
    "CodeGenerator",
    "VlanAllocator",
]
