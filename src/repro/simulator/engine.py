"""The fluid simulation engine.

:meth:`FlowSimulator.run_until` is event-driven: between events (flow
arrivals, departures, demand changes) rates are constant, so the engine
jumps directly to the earliest of (a) the next scheduled event and (b) the
next transfer completion, crediting every flow with ``rate × elapsed``
bytes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Mapping, Tuple

from ..errors import SimulationError
from .fairshare import allocate_rates
from .flows import Flow, FlowStats
from .network import SimulationNetwork


class FlowSimulator:
    """A fluid, max-min-fair flow simulator bound to a simulation network."""

    def __init__(self, network: SimulationNetwork) -> None:
        self.network = network
        self.time = 0.0
        self._flows: Dict[str, Flow] = {}
        self._completed: Dict[str, Flow] = {}
        self._events: List[Tuple[float, int, Callable[["FlowSimulator"], None]]] = []
        self._event_counter = itertools.count()
        self._capacities = network.link_capacities()

    # -- flow and event management -------------------------------------------------

    def add_flow(self, flow: Flow) -> Flow:
        """Register a flow starting now (or at ``flow.start_time`` via an event)."""
        if flow.flow_id in self._flows or flow.flow_id in self._completed:
            raise SimulationError(f"duplicate flow id {flow.flow_id!r}")
        self._flows[flow.flow_id] = flow
        return flow

    def schedule(self, at_time: float, action: Callable[["FlowSimulator"], None]) -> None:
        """Schedule a callback (flow arrival, demand change, ...) at ``at_time``."""
        heapq.heappush(self._events, (at_time, next(self._event_counter), action))

    def current_rates(self) -> Dict[str, float]:
        """The instantaneous max-min fair rates of all active flows (bps)."""
        return allocate_rates(list(self._flows.values()), self._capacities)

    # -- event-driven execution ------------------------------------------------------

    def run_until(self, end_time: float, max_steps: int = 1_000_000) -> None:
        """Advance the simulation to ``end_time`` (processing events and completions)."""
        steps = 0
        while self.time < end_time - 1e-12:
            steps += 1
            if steps > max_steps:
                raise SimulationError("simulation exceeded the maximum number of steps")
            # Fire any events due now.
            while self._events and self._events[0][0] <= self.time + 1e-12:
                _, _, action = heapq.heappop(self._events)
                action(self)
            rates = self.current_rates()
            horizon = end_time
            if self._events:
                horizon = min(horizon, self._events[0][0])
            # Earliest completion under the current constant rates.
            for flow in self._flows.values():
                rate = rates.get(flow.flow_id, 0.0)
                if flow.is_finite and rate > 0.0:
                    finish = self.time + flow.remaining_bytes() * 8.0 / rate
                    horizon = min(horizon, finish)
            horizon = max(horizon, self.time)
            elapsed = horizon - self.time
            self._advance(rates, elapsed)
            self.time = horizon
            self._complete_finished()

    def _advance(self, rates: Mapping[str, float], elapsed: float) -> None:
        if elapsed <= 0.0:
            return
        for flow in self._flows.values():
            rate = rates.get(flow.flow_id, 0.0)
            flow.current_rate_bps = rate
            flow.bytes_sent += rate * elapsed / 8.0

    def _complete_finished(self) -> None:
        finished = [
            flow_id
            for flow_id, flow in self._flows.items()
            if flow.is_finite and flow.remaining_bytes() <= 1e-6
        ]
        for flow_id in finished:
            flow = self._flows.pop(flow_id)
            flow.completion_time = self.time
            self._completed[flow_id] = flow

    # -- reporting ---------------------------------------------------------------------

    def stats(self) -> List[FlowStats]:
        """Summary statistics for all flows seen by the simulator."""
        result = []
        for flow in itertools.chain(self._completed.values(), self._flows.values()):
            end = flow.completion_time if flow.completion_time is not None else self.time
            duration = max(1e-9, end - flow.start_time)
            result.append(
                FlowStats(
                    flow_id=flow.flow_id,
                    start_time=flow.start_time,
                    completion_time=flow.completion_time,
                    bytes_sent=flow.bytes_sent,
                    mean_rate_bps=flow.bytes_sent * 8.0 / duration,
                )
            )
        return result
