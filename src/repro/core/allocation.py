"""Result structures produced by the compiler.

These dataclasses carry the outcome of compilation from the provisioning and
code-generation stages back to callers: the forwarding path chosen for each
statement, where each packet-processing function was placed, the localized
bandwidth rates, the best-effort sink trees, the emitted instructions, and
timing statistics used by the scalability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..units import Bandwidth
from .ast import Policy
from .localization import LocalRates


@dataclass
class PathAssignment:
    """The forwarding path selected for one statement.

    ``path`` is the sequence of physical locations the statement's traffic
    traverses (hosts, switches, middleboxes).  ``function_placements`` maps
    each packet-processing function mentioned in the statement's path
    expression to the location chosen to run it.
    """

    statement_id: str
    path: Tuple[str, ...]
    function_placements: Dict[str, str] = field(default_factory=dict)
    guaranteed_rate: Optional[Bandwidth] = None

    def links(self) -> List[Tuple[str, str]]:
        """The physical links traversed, as (u, v) pairs in path order.

        Consecutive repeats (a location appearing twice in a row, which the
        logical topology allows for "stay and process" steps) produce no
        link.
        """
        hops: List[Tuple[str, str]] = []
        for left, right in zip(self.path, self.path[1:]):
            if left != right:
                hops.append((left, right))
        return hops

    def hop_count(self) -> int:
        return len(self.links())


@dataclass
class RateAllocation:
    """A statement's bandwidth allocation after localization and provisioning."""

    statement_id: str
    guarantee: Optional[Bandwidth] = None
    cap: Optional[Bandwidth] = None

    @property
    def is_guaranteed(self) -> bool:
        return self.guarantee is not None and self.guarantee.bps_value > 0

    @classmethod
    def from_local_rates(cls, rates: LocalRates) -> "RateAllocation":
        return cls(
            statement_id=rates.identifier, guarantee=rates.guarantee, cap=rates.cap
        )


@dataclass
class CompilationStatistics:
    """Timing and size statistics recorded during compilation.

    The field names follow the columns of Figure 7: LP construction time,
    LP solution time, and rateless (best-effort) solution time.  Additional
    counters record the sizes of the generated MIP and the solver's own
    diagnostics: ``solver_status`` distinguishes proven-optimal solves from
    time-limited ``"feasible"`` incumbents, whose remaining MIP gap is
    surfaced in ``mip_gap`` / ``mip_best_bound``.  ``num_partitions`` /
    ``dirty_partitions`` report how the provisioning MIP decomposed and how
    much of it an incremental recompile actually re-solved (for a full
    compile the two are equal).

    The slack-widening fields report the self-healing retries of the
    cost-bound footprint pruning: ``slack_retries`` counts widening rounds
    taken because pruning had excluded every surviving path from some
    component, and ``footprint_slack_used`` is the widest slack any
    component was ultimately solved at (``float('inf')`` encodes
    "untightened"; ``None`` means tightening never ran, e.g. a recompile
    with no guaranteed statements).  ``component_solve_seconds`` holds each
    final component's solver wall-time, in the provisioning result's
    component order, for per-component latency percentiles;
    ``component_backends`` names the backend that solved each component in
    the same order, and ``components_settled_by_relaxation`` counts those
    whose MIP the ``scipy`` backend settled with its LP relaxation, without
    branch-and-cut (a component's own ``relaxation_settled`` statistic says
    which way it went).
    """

    lp_construction_seconds: float = 0.0
    lp_solve_seconds: float = 0.0
    rateless_seconds: float = 0.0
    codegen_seconds: float = 0.0
    total_seconds: float = 0.0
    num_statements: int = 0
    num_guaranteed_statements: int = 0
    num_mip_variables: int = 0
    num_mip_constraints: int = 0
    solver_status: str = ""
    mip_nodes: float = 0.0
    mip_best_bound: Optional[float] = None
    mip_gap: Optional[float] = None
    num_partitions: int = 0
    dirty_partitions: int = 0
    slack_retries: int = 0
    footprint_slack_used: Optional[float] = None
    component_solve_seconds: Tuple[float, ...] = ()
    component_backends: Tuple[str, ...] = ()
    components_settled_by_relaxation: int = 0

    def record_provisioning(self, provisioning) -> None:
        """Copy solver diagnostics from a ``ProvisioningResult``."""
        self.solver_status = provisioning.solve_status
        statistics = provisioning.solve_statistics
        self.mip_nodes = float(statistics.get("nodes", 0.0))
        if "best_bound" in statistics:
            self.mip_best_bound = float(statistics["best_bound"])
        if "gap" in statistics:
            self.mip_gap = float(statistics["gap"])
        self.num_partitions = provisioning.num_partitions
        self.dirty_partitions = int(
            statistics.get("partitions_dirty", provisioning.num_partitions)
        )
        self.slack_retries = int(statistics.get("slack_retries", 0.0))
        if "footprint_slack_used" in statistics:
            self.footprint_slack_used = float(statistics["footprint_slack_used"])
        self.component_solve_seconds = tuple(
            solution.solve_seconds
            for solution in provisioning.partition_solutions
        )
        self.component_backends = tuple(
            str(solution.statistics.get("backend", ""))
            for solution in provisioning.partition_solutions
        )
        self.components_settled_by_relaxation = sum(
            solution.statistics.get("relaxation_settled") == 1.0
            for solution in provisioning.partition_solutions
        )

    def as_row(self) -> Dict[str, object]:
        """The statistics as a flat dictionary: one row of a figure table."""
        return {
            "lp_construction_ms": self.lp_construction_seconds * 1000.0,
            "lp_solve_ms": self.lp_solve_seconds * 1000.0,
            "rateless_ms": self.rateless_seconds * 1000.0,
            "codegen_ms": self.codegen_seconds * 1000.0,
            "total_ms": self.total_seconds * 1000.0,
            "statements": self.num_statements,
            "guaranteed_statements": self.num_guaranteed_statements,
            "mip_variables": self.num_mip_variables,
            "mip_constraints": self.num_mip_constraints,
            "solver_status": self.solver_status,
            "mip_nodes": self.mip_nodes,
            "mip_gap": self.mip_gap if self.mip_gap is not None else "",
            "partitions": self.num_partitions,
            "dirty_partitions": self.dirty_partitions,
            "slack_retries": self.slack_retries,
            "footprint_slack_used": (
                self.footprint_slack_used
                if self.footprint_slack_used is not None
                else ""
            ),
            "backends": ",".join(sorted(set(self.component_backends))),
        }


@dataclass
class CompilationResult:
    """Everything produced by compiling one policy against one topology."""

    policy: Policy
    paths: Dict[str, PathAssignment]
    rates: Dict[str, RateAllocation]
    sink_trees: Dict[str, "SinkTree"] = field(default_factory=dict)
    instructions: Optional["InstructionBundle"] = None
    statistics: CompilationStatistics = field(default_factory=CompilationStatistics)
    link_reservations: Dict[Tuple[str, str], Bandwidth] = field(default_factory=dict)

    def guaranteed_statements(self) -> List[str]:
        """Identifiers of statements that received a bandwidth guarantee."""
        return [
            identifier
            for identifier, allocation in sorted(self.rates.items())
            if allocation.is_guaranteed
        ]

    def max_link_utilization(self) -> float:
        """The largest fraction of any link's capacity that is reserved (r_max)."""
        return max(
            (fraction for fraction in self._reservation_fractions().values()),
            default=0.0,
        )

    def max_link_reservation(self) -> Bandwidth:
        """The largest absolute reservation on any link (R_max)."""
        return max(
            self.link_reservations.values(), default=Bandwidth(0.0), key=lambda b: b.bps_value
        )

    def _reservation_fractions(self) -> Dict[Tuple[str, str], float]:
        fractions: Dict[Tuple[str, str], float] = {}
        for link, reserved in self.link_reservations.items():
            capacity = self._link_capacities.get(link) if hasattr(self, "_link_capacities") else None
            if capacity is None or capacity.bps_value == 0:
                continue
            fractions[link] = reserved.bps_value / capacity.bps_value
        return fractions

    def attach_link_capacities(self, capacities: Mapping[Tuple[str, str], Bandwidth]) -> None:
        """Record physical link capacities so utilisation fractions can be reported."""
        self._link_capacities = dict(capacities)
