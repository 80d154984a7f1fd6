"""Additive-increase multiplicative-decrease (AIMD) bandwidth negotiation.

One of the two proof-of-concept negotiator allocation schemes of §4.3 /
§6.3: each tenant repeatedly tries to increase its allocation by a fixed
additive step; when the sum of allocations exceeds the shared capacity the
offending tenants back off multiplicatively.  The resulting sawtooth
(Figure 10 (a)) is the classic TCP-like convergence-to-fairness dynamic, but
enforced by negotiators adjusting ``max`` clauses rather than by congestion
signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import SimulationError
from ..units import Bandwidth


@dataclass
class AimdTrace:
    """The time series produced by an AIMD run.

    Every tenant's series is kept aligned with ``times``: a tenant joining
    mid-run has its series front-padded with zeros (it held no allocation
    before it existed), and a tenant that leaves keeps accruing zeros.  This
    keeps :meth:`series` and :meth:`aggregate` index-aligned regardless of
    when tenants come and go.
    """

    times: List[float] = field(default_factory=list)
    allocations: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, time: float, rates: Mapping[str, Bandwidth]) -> None:
        self.times.append(time)
        steps = len(self.times)
        for tenant, rate in rates.items():
            series = self.allocations.get(tenant)
            if series is None:
                # A late joiner: zero allocation for the steps it missed.
                series = [0.0] * (steps - 1)
                self.allocations[tenant] = series
            series.append(rate.mbps_value)
        # Tenants absent from this snapshot (e.g. removed) hold nothing.
        for series in self.allocations.values():
            if len(series) < steps:
                series.extend([0.0] * (steps - len(series)))

    def series(self, tenant: str) -> List[float]:
        """The Mbps allocation series of one tenant (aligned with ``times``)."""
        return list(self.allocations.get(tenant, []))

    def aggregate(self) -> List[float]:
        """The sum of all tenants' allocations at each step (Mbps)."""
        if not self.allocations:
            return []
        length = len(self.times)
        return [
            sum(series[index] for series in self.allocations.values())
            for index in range(length)
        ]


@dataclass
class AimdAllocator:
    """AIMD negotiation among tenants sharing a capacity.

    ``additive_increase`` is the per-step increment; ``multiplicative_decrease``
    is the back-off factor applied when the total demand exceeds the shared
    capacity.  Tenants only grow while they have demand.
    """

    capacity: Bandwidth
    additive_increase: Bandwidth = Bandwidth.mbps(25)
    multiplicative_decrease: float = 0.5
    initial_allocation: Bandwidth = Bandwidth.mbps(10)

    def __post_init__(self) -> None:
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise SimulationError(
                "multiplicative_decrease must lie strictly between 0 and 1"
            )
        self._allocations: Dict[str, Bandwidth] = {}

    # -- tenant management -----------------------------------------------------

    def add_tenant(self, name: str, initial: Optional[Bandwidth] = None) -> None:
        if name in self._allocations:
            raise SimulationError(f"duplicate tenant {name!r}")
        self._allocations[name] = initial or self.initial_allocation

    def allocations(self) -> Dict[str, Bandwidth]:
        return dict(self._allocations)

    # -- the AIMD step -----------------------------------------------------------

    def step(self, demands: Optional[Mapping[str, Bandwidth]] = None) -> Dict[str, Bandwidth]:
        """Run one negotiation round and return the new allocations.

        ``demands`` optionally caps each tenant's desired rate; a tenant never
        grows beyond its demand.  The congestion test compares the *sum* of
        allocations against the shared capacity, mirroring a bottleneck link.
        """
        demands = demands or {}
        # Additive increase phase.
        for tenant in self._allocations:
            proposed = self._allocations[tenant] + self.additive_increase
            demand = demands.get(tenant)
            if demand is not None and proposed.bps_value > demand.bps_value:
                proposed = demand
            self._allocations[tenant] = proposed
        # Multiplicative decrease phase when over capacity.  The guard bounds
        # the loop when the capacity is (pathologically) zero.
        rounds = 0
        while self._total().bps_value > self.capacity.bps_value and rounds < 200:
            rounds += 1
            for tenant in self._allocations:
                self._allocations[tenant] = (
                    self._allocations[tenant] * self.multiplicative_decrease
                )
        return self.allocations()

    def run(
        self,
        steps: int,
        step_seconds: float = 1.0,
        demands: Optional[Mapping[str, Bandwidth]] = None,
    ) -> AimdTrace:
        """Run ``steps`` negotiation rounds and return the allocation trace."""
        trace = AimdTrace()
        trace.record(0.0, self.allocations())
        for index in range(1, steps + 1):
            self.step(demands)
            trace.record(index * step_seconds, self.allocations())
        return trace

    def _total(self) -> Bandwidth:
        return Bandwidth(sum(rate.bps_value for rate in self._allocations.values()))
