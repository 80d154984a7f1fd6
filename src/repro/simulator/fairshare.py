"""Max-min fair bandwidth allocation with guarantees and caps.

The allocator models how the generated configuration behaves on real
hardware: switch queues reserve the guaranteed rate for guaranteed traffic,
``tc`` limits cap traffic at the hosts, and whatever is left is shared by the
competing flows in a TCP-like max-min fair way.  The algorithm is progressive
filling in two phases:

1. every flow is granted its guarantee (clipped to its demand),
2. the remaining capacity on every link is distributed max-min fairly among
   all flows that still want more, so unused guaranteed bandwidth is
   reclaimed by best-effort traffic (work conservation).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from ..errors import SimulationError
from .flows import Flow, LinkKey

#: Convergence tolerance for the progressive-filling loop, in bits/second.
_EPSILON = 1e-3


def allocate_rates(
    flows: Sequence[Flow],
    link_capacities: Mapping[LinkKey, float],
) -> Dict[str, float]:
    """Compute the rate (bps) of every flow under max-min fair sharing.

    Raises :class:`SimulationError` if the guarantees alone exceed a link's
    capacity — the compiler's provisioning stage is supposed to prevent that
    from ever happening for admitted policies.
    """
    active = [flow for flow in flows if not flow.finished]
    rates: Dict[str, float] = {flow.flow_id: 0.0 for flow in active}
    if not active:
        return rates

    # Phase 1: grant guarantees (clipped to demand).
    residual: Dict[LinkKey, float] = dict(link_capacities)
    for flow in active:
        granted = min(flow.guarantee_bps, flow.effective_demand())
        rates[flow.flow_id] = granted
        for link in flow.links:
            if link not in residual:
                raise SimulationError(
                    f"flow {flow.flow_id!r} crosses unknown link {link!r}"
                )
            residual[link] -= granted
    for link, remaining in residual.items():
        if remaining < -_EPSILON:
            raise SimulationError(
                f"guarantees over-subscribe link {link!r} by {-remaining:.0f} bps; "
                "the compiled policy should have been rejected by provisioning"
            )
        residual[link] = max(0.0, remaining)

    # Phase 2: unresponsive (UDP-like) flows keep sending at their demand, so
    # they claim the remaining capacity before responsive flows share it.
    unresponsive = [flow for flow in active if not flow.responsive]
    responsive = [flow for flow in active if flow.responsive]
    _progressive_fill(unresponsive, rates, residual)

    # Phase 3: responsive (TCP-like) flows max-min share whatever is left.
    _progressive_fill(responsive, rates, residual)

    return rates


def _progressive_fill(
    flows: Sequence[Flow],
    rates: Dict[str, float],
    residual: Dict[LinkKey, float],
) -> None:
    """Max-min progressive filling of ``flows`` over the residual capacities.

    ``rates`` and ``residual`` are updated in place; each flow's rate never
    exceeds its effective demand (demand bounded by its cap).
    """
    wanting = {
        flow.flow_id: flow
        for flow in flows
        if rates[flow.flow_id] + _EPSILON < flow.effective_demand()
    }
    # Guard against infinite loops from numerical corner cases.
    for _ in range(10 * max(1, len(flows)) + len(residual) + 10):
        if not wanting:
            break
        # The bottleneck link determines the next uniform increment.
        increment = math.inf
        for link, remaining in residual.items():
            crossing = [
                flow for flow in wanting.values() if link in flow.links
            ]
            if crossing:
                increment = min(increment, remaining / len(crossing))
        # Flows may also be limited by their own demand/cap before any link fills.
        for flow in wanting.values():
            headroom = flow.effective_demand() - rates[flow.flow_id]
            increment = min(increment, headroom)
        if increment is math.inf or increment <= _EPSILON:
            increment = 0.0

        if increment > 0.0:
            for flow in wanting.values():
                rates[flow.flow_id] += increment
                for link in flow.links:
                    residual[link] -= increment

        # Freeze flows that hit their demand or a saturated link.
        saturated_links = {
            link for link, remaining in residual.items() if remaining <= _EPSILON
        }
        still_wanting = {}
        for flow_id, flow in wanting.items():
            if rates[flow_id] + _EPSILON >= flow.effective_demand():
                continue
            if any(link in saturated_links for link in flow.links):
                continue
            still_wanting[flow_id] = flow
        if len(still_wanting) == len(wanting) and increment == 0.0:
            break
        wanting = still_wanting
