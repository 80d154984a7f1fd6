"""Figure 4: expressiveness — Merlin policy size vs emitted instruction counts.

For each of the five policies the driver compiles against the Stanford-like
campus topology and reports the number of OpenFlow rules, ``tc`` commands,
and queue configurations generated, next to the (paper-reported) number of
Merlin source lines.  The absolute counts depend on the rule-encoding model
of :mod:`repro.codegen`; the claim being reproduced is the *shape*: a
handful of Merlin lines expands to hundreds or thousands of device-level
instructions, and only bandwidth-bearing policies emit queues and ``tc``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.compiler import MerlinCompiler
from ..units import Bandwidth
from .policy_builders import (
    FIGURE4_PLACEMENTS,
    FIGURE4_POLICY_LOC,
    baseline_policy,
    bandwidth_policy,
    combination_policy,
    firewall_policy,
    monitoring_policy,
    stanford_with_middleboxes,
)


def run_expressiveness_experiment(
    subnets: int = 24,
    guarantee_fraction: float = 0.10,
    guarantee: Bandwidth = Bandwidth.mbps(1),
    policies: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Compile the five Figure 4 policies; one row (bar group) per policy."""
    topology = stanford_with_middleboxes(subnets=subnets)
    builders = {
        "baseline": lambda: baseline_policy(topology),
        "bandwidth": lambda: bandwidth_policy(
            topology, guarantee_fraction=guarantee_fraction, guarantee=guarantee
        ),
        "firewall": lambda: firewall_policy(topology),
        "monitoring": lambda: monitoring_policy(topology),
        "combination": lambda: combination_policy(
            topology, guarantee_fraction=guarantee_fraction, guarantee=guarantee
        ),
    }
    selected = policies or list(builders)
    compiler = MerlinCompiler(
        topology=topology,
        placements=FIGURE4_PLACEMENTS,
        overlap="trust",
        add_catch_all=False,
    )
    rows: List[Dict[str, object]] = []
    for name in selected:
        policy = builders[name]()
        result = compiler.compile(policy)
        rows.append(
            {
                "policy": name,
                "merlin_loc": FIGURE4_POLICY_LOC[name],
                **result.instructions.counts(),
                "total": result.instructions.total(),
            }
        )
    return rows
