"""Typed scenario events — the vocabulary of churn & failure streams.

Every event is a frozen dataclass carrying its position in the stream
(``index``), its simulated occurrence time in seconds (``time``), and the
payload needed to turn it into a delta.  ``to_delta()`` produces the
:class:`~repro.incremental.delta.PolicyDelta` or
:class:`~repro.incremental.delta.TopologyDelta` that
:meth:`~repro.core.session.ProvisioningSession.apply` consumes, so a driver
replays a stream with no event-type dispatch of its own.

``describe()`` renders one canonical line per event.  Those lines are the
determinism oracle: two runs of the generator with the same config must
describe byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..incremental.delta import (
    DeltaStatement,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
)


@dataclass(frozen=True)
class ScenarioEvent:
    """Base class: position and simulated time of one stream event."""

    index: int
    time: float

    kind: str = ""  # overridden as a class attribute by every subclass

    def to_delta(self):
        """The policy or topology delta this event applies."""
        raise NotImplementedError

    def describe(self) -> str:
        """One canonical line (the generator's determinism oracle)."""
        return f"[{self.index:04d} t={self.time:.3f}] {self.kind} {self._payload()}"

    def _payload(self) -> str:
        raise NotImplementedError


def _link_str(link: Tuple[str, str]) -> str:
    return f"{link[0]}~{link[1]}"


@dataclass(frozen=True)
class LinkFailure(ScenarioEvent):
    """A fabric link goes down."""

    link: Tuple[str, str] = ("", "")
    kind: str = "link-failure"

    def to_delta(self) -> TopologyDelta:
        return TopologyDelta(fail_links=(self.link,))

    def _payload(self) -> str:
        return _link_str(self.link)


@dataclass(frozen=True)
class LinkRecovery(ScenarioEvent):
    """A previously failed fabric link comes back."""

    link: Tuple[str, str] = ("", "")
    kind: str = "link-recovery"

    def to_delta(self) -> TopologyDelta:
        return TopologyDelta(recover_links=(self.link,))

    def _payload(self) -> str:
        return _link_str(self.link)


@dataclass(frozen=True)
class SwitchFailure(ScenarioEvent):
    """A switch goes down (taking all its incident links with it)."""

    switch: str = ""
    kind: str = "switch-failure"

    def to_delta(self) -> TopologyDelta:
        return TopologyDelta(fail_nodes=(self.switch,))

    def _payload(self) -> str:
        return self.switch


@dataclass(frozen=True)
class SwitchRecovery(ScenarioEvent):
    """A previously failed switch comes back."""

    switch: str = ""
    kind: str = "switch-recovery"

    def to_delta(self) -> TopologyDelta:
        return TopologyDelta(recover_nodes=(self.switch,))

    def _payload(self) -> str:
        return self.switch


@dataclass(frozen=True)
class TenantJoin(ScenarioEvent):
    """New guaranteed statements enter the policy (a tenant arrives)."""

    added: Tuple[DeltaStatement, ...] = ()
    kind: str = "tenant-join"

    def to_delta(self) -> PolicyDelta:
        return PolicyDelta(add=self.added)

    def _payload(self) -> str:
        parts = []
        for entry in self.added:
            guarantee = (
                f"{entry.guarantee.bps_value / 1e6:.3f}Mbps"
                if entry.guarantee is not None
                else "-"
            )
            parts.append(f"{entry.statement.identifier}@{guarantee}")
        return " ".join(parts)


@dataclass(frozen=True)
class TenantLeave(ScenarioEvent):
    """Previously joined statements leave the policy."""

    identifiers: Tuple[str, ...] = ()
    kind: str = "tenant-leave"

    def to_delta(self) -> PolicyDelta:
        return PolicyDelta(remove=self.identifiers)

    def _payload(self) -> str:
        return " ".join(self.identifiers)


@dataclass(frozen=True)
class RateRenegotiation(ScenarioEvent):
    """Existing statements renegotiate their guarantees (diurnal / flash)."""

    updates: Tuple[RateUpdate, ...] = ()
    kind: str = "renegotiation"

    def to_delta(self) -> PolicyDelta:
        return PolicyDelta(update_rates=self.updates)

    def _payload(self) -> str:
        parts = []
        for update in self.updates:
            guarantee = (
                f"{update.guarantee.bps_value / 1e6:.3f}Mbps"
                if update.guarantee is not None
                else "-"
            )
            parts.append(f"{update.identifier}={guarantee}")
        return " ".join(parts)


@dataclass(frozen=True)
class MiddleboxRewrite(ScenarioEvent):
    """A statement's middlebox chain changes (path rewrite, same identifier).

    Carried as the replacement statement with its current rates; the delta
    is the remove+add pair ``recompile`` expects for a changed statement.
    """

    identifier: str = ""
    replacement: Tuple[DeltaStatement, ...] = ()
    through: str = ""  # "dpi" when the chain is inserted, "plain" when removed
    kind: str = "middlebox-rewrite"

    def to_delta(self) -> PolicyDelta:
        return PolicyDelta(remove=(self.identifier,), add=self.replacement)

    def _payload(self) -> str:
        return f"{self.identifier}->{self.through}"
