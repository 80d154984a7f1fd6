"""Click middlebox configuration generation.

Each packet-processing function placed on a middlebox (or host acting as
one) is realised as a Click configuration fragment.  The paper drives real
Click routers; here the configuration is an in-memory object with a faithful
textual rendering, which both the instruction counts of Figure 4 and the
simulator's middlebox model consume.
"""

from __future__ import annotations

from typing import List, Mapping

from ..core.allocation import PathAssignment
from .instructions import ClickConfig


def click_for_assignment(assignment: PathAssignment) -> List[ClickConfig]:
    """Click configurations for the functions placed along one path."""
    configs: List[ClickConfig] = []
    for function, location in sorted(assignment.function_placements.items()):
        configs.append(
            ClickConfig(
                location=location,
                function=function,
                statement_id=assignment.statement_id,
            )
        )
    return configs


def click_for_assignments(
    assignments: Mapping[str, PathAssignment]
) -> List[ClickConfig]:
    """Click configurations for every path assignment, deduplicated per placement.

    Several statements may place the same function on the same location;
    only one Click instance is configured for each (location, function) pair,
    mirroring how a single DPI box serves many traffic classes.
    """
    seen = set()
    configs: List[ClickConfig] = []
    for statement_id in sorted(assignments):
        for config in click_for_assignment(assignments[statement_id]):
            key = (config.location, config.function)
            if key in seen:
                continue
            seen.add(key)
            configs.append(config)
    return configs
