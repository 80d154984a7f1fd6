"""Figures 7 and 8: compilation scaling on tree topologies.

The paper measures, for balanced trees and fat trees of increasing size,

* all-pairs connectivity with no guarantees (the "rateless" path: sink
  trees), and
* connectivity when 5% of the traffic classes receive bandwidth
  guarantees (LP construction plus LP solution).

Each point is one compile; its row is the topology's size beside the
compiler's own ``CompilationStatistics.as_row()``.  Construction and solve
time are separate columns (``lp_construction_ms`` vs ``lp_solve_ms``)
because they scale differently: construction is a one-pass indexed assembly
of the MIP (linear in the number of logical edges plus physical links),
while solving is the NP-hard part delegated to the MIP backend.
``mip_variables`` / ``mip_constraints`` record the model the solver was
given — the quantity the figure scripts assert on, since it repeats exactly
on any machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.allocation import CompilationResult
from ..core.compiler import MerlinCompiler
from ..topology.generators import balanced_tree, fat_tree
from ..topology.graph import Topology
from .policy_builders import all_pairs_policy


def compile_all_pairs(
    topology: Topology,
    guarantee_fraction: float = 0.0,
    max_classes: Optional[int] = None,
) -> CompilationResult:
    """Compile an all-pairs policy on ``topology``, the first
    ``max_classes`` classes of it, ``guarantee_fraction`` of them guaranteed."""
    policy = all_pairs_policy(
        topology, guarantee_fraction=guarantee_fraction, max_classes=max_classes
    )
    compiler = MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    return compiler.compile(policy)


def measure_compilation(
    topology: Topology,
    guarantee_fraction: float = 0.0,
    max_classes: Optional[int] = None,
) -> Dict[str, object]:
    """One row of the Figure 7 table (or one point of a Figure 8 curve)."""
    result = compile_all_pairs(topology, guarantee_fraction, max_classes)
    statistics = result.statistics
    return {
        "topology": topology.name,
        "traffic_classes": statistics.num_statements,
        "hosts": topology.num_hosts(),
        "switches": topology.num_switches(),
        "guaranteed": statistics.num_guaranteed_statements,
        **statistics.as_row(),
    }


def figure8_curves(
    kind: str = "fat-tree",
    sizes: Sequence[int] = (4, 6),
    guarantee_fraction: float = 0.05,
    max_classes: Optional[int] = None,
) -> Dict[str, List[Dict[str, object]]]:
    """The Figure 8 curves: best-effort vs 5%-guaranteed compilation.

    ``kind`` selects the topology family (``"fat-tree"`` or
    ``"balanced-tree"``); ``sizes`` are fat-tree arities or balanced-tree
    depths.  Returns two series keyed ``"best-effort"`` and ``"guaranteed"``.
    """
    best_effort: List[Dict[str, object]] = []
    guaranteed: List[Dict[str, object]] = []
    for size in sizes:
        if kind == "fat-tree":
            topology = fat_tree(size)
        elif kind == "balanced-tree":
            topology = balanced_tree(depth=size, fanout=3, hosts_per_leaf=2)
        else:
            raise ValueError(f"unknown topology kind {kind!r}")
        best_effort.append(measure_compilation(topology, 0.0, max_classes))
        guaranteed.append(
            measure_compilation(topology, guarantee_fraction, max_classes)
        )
    return {"best-effort": best_effort, "guaranteed": guaranteed}
