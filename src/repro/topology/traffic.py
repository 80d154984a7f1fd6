"""Traffic-class enumeration.

The scalability experiments (Figures 7 and 8) measure compilation time as a
function of the number of *traffic classes*, where "each traffic class
represents a unidirectional stream going from one host at the edge of the
network to another".  This module enumerates such classes from a topology and
selects the subset that receives bandwidth guarantees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..units import Bandwidth
from .graph import Topology


@dataclass(frozen=True)
class TrafficClass:
    """A unidirectional host-to-host traffic class.

    ``guarantee`` is the minimum bandwidth reserved for the class (``None``
    for best-effort classes); ``cap`` is an optional maximum rate.
    """

    source: str
    destination: str
    guarantee: Optional[Bandwidth] = None
    cap: Optional[Bandwidth] = None

    @property
    def is_guaranteed(self) -> bool:
        return self.guarantee is not None

    def identifier(self) -> str:
        """A policy-friendly statement identifier for this class."""
        return f"tc_{self.source}_{self.destination}"


def all_pairs_traffic(topology: Topology) -> List[TrafficClass]:
    """All ordered host pairs as best-effort traffic classes."""
    hosts = topology.host_names()
    return [
        TrafficClass(source=src, destination=dst)
        for src in hosts
        for dst in hosts
        if src != dst
    ]


def select_guaranteed(
    classes: Sequence[TrafficClass],
    fraction: float,
    guarantee: Bandwidth,
    cap: Optional[Bandwidth] = None,
    seed: int = 0,
) -> List[TrafficClass]:
    """Give a random ``fraction`` of the classes a bandwidth guarantee.

    Returns a new list in the original order where the selected classes carry
    ``guarantee`` (and optionally ``cap``); the rest stay best-effort.  This
    mirrors the "5% of the traffic classes with guaranteed bandwidth" setup
    of Figures 7 and 8 and the "10% of traffic classes" policy of Figure 4.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    rng = random.Random(seed)
    count = int(round(fraction * len(classes)))
    chosen = set(rng.sample(range(len(classes)), count)) if count else set()
    result: List[TrafficClass] = []
    for index, traffic_class in enumerate(classes):
        if index in chosen:
            result.append(
                TrafficClass(
                    source=traffic_class.source,
                    destination=traffic_class.destination,
                    guarantee=guarantee,
                    cap=cap,
                )
            )
        else:
            result.append(traffic_class)
    return result
