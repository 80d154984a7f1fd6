"""Flow-level network simulator.

The paper's application experiments (§6.2) run on a hardware testbed: real
switches enforce the queues and rate limiters Merlin generates, and Hadoop /
Ring Paxos measure end-to-end throughput.  Lacking that hardware, this
package provides a fluid (flow-level) simulator that enforces the same
bandwidth semantics on the compiled output:

* link bandwidth is shared max-min fairly among the flows crossing it,
* a flow with a Merlin guarantee always receives at least its guaranteed
  rate (when its demand asks for it),
* a flow with a Merlin cap never exceeds it,
* unused guaranteed bandwidth is available to other flows (work conservation,
  the property highlighted in Figure 5 (b)).

Applications (a Hadoop shuffle model and a Ring Paxos replication model)
drive the simulator to reproduce the paper's end-to-end results.
"""

from .engine import FlowSimulator
from .fairshare import allocate_rates
from .flows import Flow, FlowStats
from .network import SimulationNetwork
from .traffic import constant_bit_rate_flow, elastic_flow

__all__ = [
    "FlowSimulator",
    "allocate_rates",
    "Flow",
    "FlowStats",
    "SimulationNetwork",
    "constant_bit_rate_flow",
    "elastic_flow",
]
