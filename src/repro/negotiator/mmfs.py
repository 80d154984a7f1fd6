"""Max-min fair sharing (MMFS) bandwidth negotiation.

The second proof-of-concept allocation scheme of §4.3: tenants declare their
demands ahead of time and the negotiator satisfies them starting with the
smallest (progressive filling); remaining bandwidth is distributed among the
still-unsatisfied tenants.  Figure 10 (b) shows four hosts (two flows)
converging to the max-min fair allocation and re-adapting when demands
change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from ..units import Bandwidth
from .aimd import AimdTrace


def max_min_fair_share(
    capacity: Bandwidth, demands: Mapping[str, Bandwidth]
) -> Dict[str, Bandwidth]:
    """The classic water-filling max-min fair allocation.

    Demands are satisfied smallest-first; once a tenant's demand is met the
    leftover capacity is split among the rest.  Tenants with zero demand get
    nothing (their share is redistributed), and the allocation never exceeds
    a tenant's demand.
    """
    remaining = capacity.bps_value
    allocation: Dict[str, float] = {name: 0.0 for name in demands}
    pending = {name: rate.bps_value for name, rate in demands.items() if rate.bps_value > 0}
    while pending and remaining > 1e-9:
        fair_share = remaining / len(pending)
        satisfied = [name for name, demand in pending.items() if demand <= fair_share]
        if satisfied:
            for name in satisfied:
                allocation[name] = pending[name]
                remaining -= pending[name]
                del pending[name]
        else:
            for name in pending:
                allocation[name] = fair_share
            remaining = 0.0
            pending.clear()
    return {name: Bandwidth(value) for name, value in allocation.items()}


@dataclass
class MaxMinFairAllocator:
    """A negotiator applying max-min fair sharing to declared demands.

    ``step``/``run`` mirror the :class:`~repro.negotiator.aimd.AimdAllocator`
    interface so the adaptation benchmark can drive both schemes uniformly.
    """

    capacity: Bandwidth
    _demands: Dict[str, Bandwidth] = field(default_factory=dict)

    def declare_demand(self, tenant: str, demand: Bandwidth) -> None:
        """Record (or update) a tenant's declared demand."""
        self._demands[tenant] = demand

    def demands(self) -> Dict[str, Bandwidth]:
        return dict(self._demands)

    def allocate(self) -> Dict[str, Bandwidth]:
        """The max-min fair allocation for the current demands."""
        return max_min_fair_share(self.capacity, self._demands)

    def run(
        self,
        demand_schedule: Sequence[Mapping[str, Bandwidth]],
        step_seconds: float = 1.0,
    ) -> AimdTrace:
        """Apply a schedule of demand updates and trace the allocations.

        Each entry of ``demand_schedule`` is the demand map in force during
        that step (tenants absent from the map keep their previous demand).
        """
        trace = AimdTrace()
        for index, updates in enumerate(demand_schedule):
            for tenant, demand in updates.items():
                self.declare_demand(tenant, demand)
            trace.record(index * step_seconds, self.allocate())
        return trace
