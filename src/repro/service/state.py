"""Immutable snapshots of control-plane state for the query API.

The daemon's worker mutates live compiler sessions; queries must never
hand a caller a reference into that mutable state (a snapshot taken
mid-batch would tear).  These frozen dataclasses are rebuilt at each batch
commit from the transaction's :class:`~repro.core.allocation.CompilationResult`,
so ``ControlPlane.query`` is a cheap dict copy of already-frozen values
and always reflects a *committed* revision — never a transaction that may
still roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.allocation import CompilationResult, CompilationStatistics

__all__ = [
    "BatchRecord",
    "GroupState",
    "StatementState",
    "TenantStats",
    "statement_states",
]


@dataclass(frozen=True)
class StatementState:
    """One statement's committed allocation: its path and localized rates."""

    identifier: str
    path: Tuple[str, ...]
    guarantee_bps: Optional[float] = None
    cap_bps: Optional[float] = None

    @property
    def is_guaranteed(self) -> bool:
        return self.guarantee_bps is not None and self.guarantee_bps > 0


@dataclass(frozen=True)
class BatchRecord:
    """What one committed recompile transaction contained.

    ``num_deltas`` > 1 with ``merged`` True is the observable proof that
    concurrently-submitted tenant deltas were batched into a single solve:
    ``statistics`` is the one :class:`CompilationStatistics` the whole
    batch produced.  ``execute_seconds`` is the duration of the batch's
    telemetry span (merge + solve + commit, on the control plane's clock);
    ``queue_wait_seconds`` holds each member ticket's wait between
    ``submit`` and the batch span opening, in submission order.
    """

    revision: int
    tenants: Tuple[str, ...]
    num_deltas: int
    num_changes: int
    merged: bool
    statistics: CompilationStatistics
    execute_seconds: float = 0.0
    queue_wait_seconds: Tuple[float, ...] = ()

    @property
    def backends(self) -> Tuple[str, ...]:
        """Which solver backend produced each component of the allocation.

        One name per component of the committed allocation, in the
        provisioning result's component order (see
        ``CompilationStatistics.component_backends``) — the components this
        batch re-solved *and* the ones it reused from the memo, which keep
        the backend that originally solved them.  How many were re-solved is
        ``statistics.dirty_partitions``; the tuple is empty only when the
        group has no guaranteed statement.
        """
        return tuple(self.statistics.component_backends)


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant accounting: submissions and how each one ended."""

    tenant: str
    submitted: int = 0
    committed: int = 0
    rejected: int = 0
    failed: int = 0


@dataclass(frozen=True)
class GroupState:
    """A committed-state snapshot of one tenant group's session."""

    group: str
    revision: int
    statements: Mapping[str, StatementState] = field(default_factory=dict)
    failed_links: frozenset = frozenset()
    failed_nodes: frozenset = frozenset()
    last_batch: Optional[BatchRecord] = None
    tenants: Mapping[str, TenantStats] = field(default_factory=dict)

    @property
    def num_statements(self) -> int:
        return len(self.statements)


def statement_states(result: CompilationResult) -> Dict[str, StatementState]:
    """Freeze a compilation result's allocations into query-safe state.

    Statements carried by a shared sink tree have no per-statement path
    assignment; they appear with an empty path and their rates.
    """
    states: Dict[str, StatementState] = {}
    for identifier, allocation in result.rates.items():
        assignment = result.paths.get(identifier)
        states[identifier] = StatementState(
            identifier=identifier,
            path=tuple(assignment.path) if assignment is not None else (),
            guarantee_bps=(
                allocation.guarantee.bps_value
                if allocation.guarantee is not None
                else None
            ),
            cap_bps=(
                allocation.cap.bps_value if allocation.cap is not None else None
            ),
        )
    return states
