"""Switch queue configuration for bandwidth guarantees.

Bandwidth guarantees are enforced with per-port quality-of-service queues on
the switches along the guaranteed path: each switch-to-switch hop of the path
gets a queue whose minimum rate is the statement's guaranteed rate (and whose
maximum rate is the statement's cap, when one exists).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from ..core.allocation import PathAssignment, RateAllocation
from ..topology.graph import Topology
from .instructions import QueueConfig

#: A switch and the neighbour one of its ports faces.
Port = Tuple[str, str]


class QueueAllocator:
    """Assigns queue identifiers per (switch, port) pair, from 1 upwards."""

    def __init__(self) -> None:
        self._counters: Dict[Port, itertools.count] = {}

    def queue_ids(self, ports: Sequence[Port]) -> Tuple[int, ...]:
        """The next identifier of each port, in order."""
        ids = []
        for port in ports:
            counter = self._counters.get(port)
            if counter is None:
                counter = self._counters[port] = itertools.count(1)
            ids.append(next(counter))
        return tuple(ids)


def queue_ports(topology: Topology, assignment: PathAssignment) -> Tuple[Port, ...]:
    """The ports a guaranteed path needs a queue on: every hop of the path
    that leaves a switch, in path order."""
    ports = []
    for source, target in assignment.links():
        node = topology.find(source)
        if node is not None and node.is_switch:
            ports.append((source, target))
    return tuple(ports)


def queues_for_path(
    assignment: PathAssignment,
    allocation: RateAllocation,
    ports: Sequence[Port],
    queue_ids: Sequence[int],
) -> List[QueueConfig]:
    """Queue configurations for one guaranteed statement's path: one per
    :func:`queue_ports` port, under the identifier
    :meth:`QueueAllocator.queue_ids` gave it."""
    if allocation.guarantee is None:
        return []
    return [
        QueueConfig(
            switch=switch,
            port=port,
            queue_id=queue_id,
            min_rate=allocation.guarantee,
            max_rate=allocation.cap,
            statement_id=assignment.statement_id,
        )
        for (switch, port), queue_id in zip(ports, queue_ids)
    ]
