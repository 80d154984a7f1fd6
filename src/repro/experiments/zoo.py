"""Figure 6: all-pairs connectivity compilation on the Topology Zoo.

The paper compiles a pairwise-connectivity policy for each of the 262
Internet Topology Zoo networks and reports per-topology compilation time:
under 50 ms for most, under 600 ms for all but one, and about 4 s for the
largest (754-switch) topology.  The dataset itself is not redistributable
offline, so the driver uses the statistically matched synthetic ensemble
from :func:`repro.topology.generators.topology_zoo_ensemble`.

Because the interesting quantity is forwarding-state computation (not the
O(hosts²) policy enumeration), the driver runs the rateless compilation
path directly: sink trees for every egress switch over the switch-only
subgraph, which is exactly what the all-pairs policy compiles to.
"""

from __future__ import annotations

from typing import Dict, List

from .. import telemetry
from ..core.sink_tree import compute_sink_trees
from ..topology.generators import topology_zoo_ensemble


def run_topology_zoo_experiment(
    count: int = 262,
    seed: int = 0,
    max_switches: int = 754,
) -> List[Dict[str, object]]:
    """Compute connectivity for every topology of the synthetic Zoo ensemble.

    One row per member: its size, the number of sink trees computed beside
    the number of egress switches that each need one, and the duration of
    the span around the computation (``compute_sink_trees`` returns no
    statistics of its own).
    """
    rows: List[Dict[str, object]] = []
    for topology in topology_zoo_ensemble(
        count=count, seed=seed, max_switches=max_switches
    ):
        with telemetry.span("zoo_connectivity") as span:
            trees = compute_sink_trees(topology)
        compile_ms = span.duration * 1000.0
        rows.append(
            {
                "name": topology.name,
                "switches": topology.num_switches(),
                "hosts": topology.num_hosts(),
                "egress_switches": len(topology.egress_switches()),
                "sink_trees": len(trees),
                "compile_ms": compile_ms,
            }
        )
    return rows
