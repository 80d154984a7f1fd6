"""Flow objects for the fluid simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


#: A link key: the unordered pair of endpoint names, sorted.
LinkKey = Tuple[str, str]


def path_links(path: Sequence[str]) -> List[LinkKey]:
    """The link keys traversed by a location path (consecutive duplicates skipped)."""
    links: List[LinkKey] = []
    for left, right in zip(path, path[1:]):
        if left != right:
            links.append(tuple(sorted((left, right))))
    return links


@dataclass
class Flow:
    """A unidirectional traffic flow in the fluid simulator.

    ``demand_bps`` is the rate the flow would send if unconstrained
    (``math.inf`` for elastic transfers that use whatever they get).
    ``size_bytes`` is the remaining transfer size for finite transfers
    (``None`` for open-ended flows such as UDP background traffic).
    ``guarantee_bps`` / ``cap_bps`` carry the Merlin allocation for the
    statement the flow falls under.
    """

    flow_id: str
    path: Tuple[str, ...]
    demand_bps: float = math.inf
    size_bytes: Optional[float] = None
    guarantee_bps: float = 0.0
    cap_bps: float = math.inf
    statement_id: Optional[str] = None
    start_time: float = 0.0
    #: Responsive flows (TCP-like) back off to their fair share; unresponsive
    #: flows (UDP-like constant-bit-rate sources) keep sending at their demand
    #: and therefore grab bandwidth before the responsive flows share what is
    #: left.  Merlin guarantees and caps still bound both kinds.
    responsive: bool = True

    def __post_init__(self) -> None:
        self.links: List[LinkKey] = path_links(self.path)
        self.current_rate_bps: float = 0.0
        self.bytes_sent: float = 0.0
        self.completion_time: Optional[float] = None

    @property
    def source(self) -> str:
        return self.path[0]

    @property
    def destination(self) -> str:
        return self.path[-1]

    @property
    def is_finite(self) -> bool:
        return self.size_bytes is not None

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    def remaining_bytes(self) -> float:
        if self.size_bytes is None:
            return math.inf
        return max(0.0, self.size_bytes - self.bytes_sent)

    def effective_demand(self) -> float:
        """The rate the flow wants right now, bounded by its cap."""
        return min(self.demand_bps, self.cap_bps)


@dataclass
class FlowStats:
    """Per-flow summary statistics collected by the simulator."""

    flow_id: str
    start_time: float
    completion_time: Optional[float]
    bytes_sent: float
    mean_rate_bps: float

    @property
    def duration(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time
