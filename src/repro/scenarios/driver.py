"""Replaying scenario streams against a live session, in simulator lockstep.

:func:`replay` is the harness the churn benchmarks and the acceptance
criterion run: compile a scenario population's base policy once, open the
compiler's :class:`~repro.core.session.ProvisioningSession`, and apply every
generated event as one transaction.  For each event it records the re-provisioning
latency, the self-healing slack-widening counters from
:class:`~repro.core.allocation.CompilationStatistics`, and — in lockstep —
the guaranteed-traffic availability measured by handing the updated
allocation to the fluid simulator on the session's *active* (degraded)
topology.  The simulator doubles as a consistency check: its max-min
allocator raises if the compiled guarantees oversubscribe any surviving
link, so a divergence between compiler and simulator views of the network
cannot pass silently.

Events the compiler legitimately rejects (e.g. a join whose path expression
is unsatisfiable while a failure is outstanding) roll the session back and
are recorded as ``"rejected"``; the stream continues.  The session becoming
*unusable* after a rejection is an invalidation — the failure mode the
widening ladder exists to prevent — and is counted separately (the churn
acceptance criterion asserts it stays zero).

After the stream, the final session allocation is verified against a fresh
session that compiles the final policy from scratch and applies the final
failure state as a single delta: identical paths and link reservations,
the transactional-equivalence guarantee extended across an arbitrary churn
history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import telemetry
from ..core.allocation import CompilationResult
from ..core.compiler import MerlinCompiler
from ..core.options import ProvisionOptions
from ..errors import MerlinError, SimulationError
from ..simulator.engine import FlowSimulator
from ..simulator.flows import Flow
from ..simulator.network import SimulationNetwork
from ..telemetry.metrics import format_percentiles, percentile
from .generator import Scenario


@dataclass(frozen=True)
class EventRecord:
    """What happened when one scenario event was applied to the session."""

    index: int
    time: float
    kind: str
    status: str  # "ok" or "rejected"
    latency_ms: float
    slack_retries: int = 0
    footprint_slack_used: Optional[float] = None
    dirty_partitions: int = 0
    partitions: int = 0
    availability: float = 1.0
    error: str = ""

    @property
    def widened(self) -> bool:
        """Did this event's re-provisioning need the slack-widening ladder?"""
        return self.status == "ok" and self.slack_retries > 0


@dataclass
class ReplayReport:
    """The outcome of replaying one scenario stream."""

    records: List[EventRecord] = field(default_factory=list)
    rollbacks: int = 0
    invalidations: int = 0
    simulator_inconsistencies: int = 0
    final_identical: Optional[bool] = None

    @property
    def applied(self) -> int:
        return sum(1 for record in self.records if record.status == "ok")

    @property
    def rejected(self) -> int:
        return sum(1 for record in self.records if record.status == "rejected")

    @property
    def widened_events(self) -> int:
        return sum(1 for record in self.records if record.widened)

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.records if r.status == "ok"]

    def availabilities(self) -> List[float]:
        return [r.availability for r in self.records if r.status == "ok"]

    def min_availability(self) -> float:
        values = self.availabilities()
        return min(values) if values else 1.0

    def mean_availability(self) -> float:
        values = self.availabilities()
        return sum(values) / len(values) if values else 1.0

    def summary(self) -> str:
        """A multi-line human-readable report (used by ``make bench-churn``)."""
        latencies = self.latencies_ms()
        lines = [
            f"events applied={self.applied} rejected={self.rejected} "
            f"rollbacks={self.rollbacks} invalidations={self.invalidations}",
            f"slack widening: {self.widened_events} events recovered "
            f"({sum(r.slack_retries for r in self.records)} retries total)",
            "re-provisioning latency: " + format_percentiles(latencies),
            (
                "availability: "
                f"min={self.min_availability():.4f} "
                f"mean={self.mean_availability():.4f}"
            ),
        ]
        if latencies:
            lines.append(
                f"latency max={percentile(latencies, 100.0):.2f}ms "
                f"over {len(latencies)} applied events"
            )
        if self.simulator_inconsistencies:
            lines.append(
                f"SIMULATOR INCONSISTENCIES: {self.simulator_inconsistencies}"
            )
        if self.final_identical is not None:
            lines.append(
                "final allocation identical to from-scratch compile: "
                + ("yes" if self.final_identical else "NO")
            )
        return "\n".join(lines)


def allocations_match(
    left: CompilationResult, right: CompilationResult, tolerance: float = 1e-6
) -> bool:
    """Same paths and the same link reservations, to ``tolerance`` bps."""
    paths_left = {identifier: tuple(a.path) for identifier, a in left.paths.items()}
    paths_right = {identifier: tuple(a.path) for identifier, a in right.paths.items()}
    if paths_left != paths_right:
        return False
    reservations_left = {
        key: value.bps_value for key, value in left.link_reservations.items()
    }
    reservations_right = {
        key: value.bps_value for key, value in right.link_reservations.items()
    }
    if set(reservations_left) != set(reservations_right):
        return False
    return all(
        abs(reservations_left[key] - reservations_right[key]) <= tolerance
        for key in reservations_left
    )


def _measure_availability(result: CompilationResult, topology) -> Tuple[float, bool]:
    """(fraction of guaranteed statements at full rate, simulator consistent?).

    Builds one flow per guaranteed statement sending exactly its guarantee
    and asks the fluid simulator for instantaneous max-min rates on the
    active topology.  The allocator raising ``SimulationError`` means the
    compiled reservations oversubscribe a link the simulator sees — a
    lockstep inconsistency, never expected.
    """
    flows: List[Flow] = []
    for identifier, allocation in sorted(result.rates.items()):
        if not allocation.is_guaranteed:
            continue
        assignment = result.paths.get(identifier)
        if assignment is None or len(assignment.path) < 2:
            continue
        guarantee = allocation.guarantee.bps_value
        flows.append(
            Flow(
                flow_id=identifier,
                path=assignment.path,
                demand_bps=guarantee,
                guarantee_bps=guarantee,
                statement_id=identifier,
            )
        )
    if not flows:
        return 1.0, True
    simulator = FlowSimulator(SimulationNetwork(topology, result))
    for flow in flows:
        simulator.add_flow(flow)
    try:
        rates = simulator.current_rates()
    except SimulationError:
        return 0.0, False
    satisfied = sum(
        1
        for flow in flows
        if rates.get(flow.flow_id, 0.0) >= flow.guarantee_bps * (1.0 - 1e-9)
    )
    return satisfied / len(flows), True


def replay(
    scenario: Scenario,
    compiler: Optional[MerlinCompiler] = None,
    options: Optional[ProvisionOptions] = None,
    check_simulator: bool = True,
    verify_final: bool = True,
) -> ReplayReport:
    """Replay a scenario's event stream against a live session.

    ``compiler`` defaults to a codegen-less compiler on the scenario
    population's topology and placements (``options`` configures its
    provisioning).  Raises only on programming errors; compilation failures
    are recorded per event, and a session invalidation (session unusable
    after rollback) is counted rather than raised so the report shows it.
    """
    population = scenario.population
    if compiler is None:
        compiler = MerlinCompiler(
            topology=population.topology,
            placements=population.placements,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
            options=options,
        )
    compiler.compile(population.policy)
    session = compiler.session()

    report = ReplayReport()
    last_result: Optional[CompilationResult] = None

    for event in scenario.events:
        # Per-event latency is the ``scenario_event`` span's duration —
        # deterministic under an injected telemetry clock, traced (with
        # the recompile transaction nested inside) when a recorder is on.
        error: Optional[MerlinError] = None
        with telemetry.span("scenario_event", kind=event.kind) as event_span:
            try:
                result = session.apply(event)
            except MerlinError as caught:
                error = caught
        latency_ms = event_span.duration * 1000.0
        telemetry.observe("event_latency_ms", latency_ms, kind=event.kind)
        if error is not None:
            telemetry.counter("events_rejected")
            report.rollbacks += 1
            if not compiler.has_session:
                report.invalidations += 1
            report.records.append(
                EventRecord(
                    index=event.index,
                    time=event.time,
                    kind=event.kind,
                    status="rejected",
                    latency_ms=latency_ms,
                    error=f"{type(error).__name__}: {error}",
                )
            )
            if not compiler.has_session:
                break  # the session is gone; nothing left to replay against
            continue
        telemetry.counter("events_applied")
        last_result = result
        statistics = result.statistics
        availability, consistent = 1.0, True
        if check_simulator:
            availability, consistent = _measure_availability(
                result, session.topology
            )
            if not consistent:
                report.simulator_inconsistencies += 1
        report.records.append(
            EventRecord(
                index=event.index,
                time=event.time,
                kind=event.kind,
                status="ok",
                latency_ms=latency_ms,
                slack_retries=statistics.slack_retries,
                footprint_slack_used=statistics.footprint_slack_used,
                dirty_partitions=statistics.dirty_partitions,
                partitions=statistics.num_partitions,
                availability=availability,
            )
        )

    if verify_final and last_result is not None and compiler.has_session:
        # A fresh session: compile the final policy from scratch on the
        # pristine topology, then apply the accumulated failure state as
        # one delta.  Equivalence between one delta on a fresh session and
        # the whole replayed history is the transactional-equivalence
        # guarantee extended across arbitrary churn.
        fresh = MerlinCompiler(
            topology=population.topology,
            placements=population.placements,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
            options=compiler.options,
        )
        from_scratch = fresh.compile(last_result.policy)
        if session.failed_links or session.failed_nodes:
            from ..incremental.delta import TopologyDelta

            from_scratch = fresh.recompile(
                TopologyDelta(
                    fail_links=tuple(sorted(session.failed_links)),
                    fail_nodes=tuple(sorted(session.failed_nodes)),
                )
            )
        report.final_identical = allocations_match(last_result, from_scratch)
    return report
