"""Instruction types emitted by code generation.

Each record corresponds to one of the backends described in §3.4 and used
for the expressiveness measurement of Figure 4 (which reports counts of
OpenFlow rules, ``tc`` rules, and queue configurations).  Every instruction
can render itself to a textual form close to what the corresponding tool
would accept, which the examples print and the tests sanity-check.

Each record is a ``NamedTuple``, as :class:`repro.lexer.Token` is:
immutable, so fragments share them across a session's bundles, with the
``repr`` a frozen dataclass of the same fields would print, and built with
one tuple allocation (a generator emits thousands per compile).  A record
therefore also compares equal to a plain tuple of its values; bundles only
ever compare records of one kind, list by list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..units import Bandwidth


class OpenFlowRule(NamedTuple):
    """A forwarding rule installed on an OpenFlow switch."""

    switch: str
    match: Tuple[Tuple[str, str], ...]
    actions: Tuple[str, ...]
    priority: int = 100
    statement_id: Optional[str] = None

    def render(self) -> str:
        match_text = ",".join(f"{key}={value}" for key, value in self.match)
        action_text = ",".join(self.actions)
        return (
            f"ovs-ofctl add-flow {self.switch} "
            f"'priority={self.priority},{match_text},actions={action_text}'"
        )


class QueueConfig(NamedTuple):
    """A switch port queue configured for a bandwidth guarantee."""

    switch: str
    port: str
    queue_id: int
    min_rate: Bandwidth
    max_rate: Optional[Bandwidth] = None
    statement_id: Optional[str] = None

    def render(self) -> str:
        parts = [
            f"ovs-vsctl set port {self.switch}:{self.port} qos=@qos{self.queue_id}",
            f"queue {self.queue_id}: min-rate={int(self.min_rate.bps_value)}",
        ]
        if self.max_rate is not None:
            parts.append(f"max-rate={int(self.max_rate.bps_value)}")
        return " ".join(parts)


class TcCommand(NamedTuple):
    """A Linux ``tc`` traffic-control command on an end host."""

    host: str
    interface: str
    rate: Bandwidth
    kind: str  # "cap" or "guarantee"
    match: Tuple[Tuple[str, str], ...] = ()
    statement_id: Optional[str] = None

    def render(self) -> str:
        rate_text = f"{self.rate.mbps_value:.0f}mbit"
        selector = " ".join(f"match {key} {value}" for key, value in self.match)
        if self.kind == "cap":
            shaping = f"ceil {rate_text} rate {rate_text}"
        else:
            shaping = f"rate {rate_text}"
        return (
            f"tc class add dev {self.interface} parent 1: classid 1:10 htb {shaping} "
            f"# host={self.host} {selector}"
        ).rstrip()


class IptablesRule(NamedTuple):
    """A Linux ``iptables`` filtering rule on an end host."""

    host: str
    chain: str
    match: Tuple[Tuple[str, str], ...]
    action: str
    statement_id: Optional[str] = None

    def render(self) -> str:
        selector = " ".join(f"--{key} {value}" for key, value in self.match)
        return f"iptables -A {self.chain} {selector} -j {self.action} # host={self.host}"


class ClickConfig(NamedTuple):
    """A Click configuration fragment installing a packet function on a middlebox."""

    location: str
    function: str
    statement_id: Optional[str] = None

    def render(self) -> str:
        element = self.function.upper()
        return f"FromDevice(eth0) -> {element}() -> ToDevice(eth1);  // at {self.location}"


@dataclass
class InstructionBundle:
    """All instructions generated for one policy compilation."""

    openflow: List[OpenFlowRule] = field(default_factory=list)
    queues: List[QueueConfig] = field(default_factory=list)
    tc: List[TcCommand] = field(default_factory=list)
    iptables: List[IptablesRule] = field(default_factory=list)
    click: List[ClickConfig] = field(default_factory=list)
    #: The :class:`~repro.codegen.generator.Fragments` the generator
    #: assembled this bundle from, for the next ``generate`` of the same
    #: session to reuse; not part of the bundle's value (no ``repr``, no
    #: equality) and untouched by :meth:`merge`.
    fragments: Optional[object] = field(default=None, repr=False, compare=False)

    # -- counting (the Figure 4 metric) ---------------------------------------

    def counts(self) -> Dict[str, int]:
        """Instruction counts by category."""
        return {
            "openflow": len(self.openflow),
            "queues": len(self.queues),
            "tc": len(self.tc),
            "iptables": len(self.iptables),
            "click": len(self.click),
        }

    def total(self) -> int:
        """Total number of low-level instructions."""
        return sum(self.counts().values())

    def merge(self, other: "InstructionBundle") -> None:
        """Append all instructions from another bundle."""
        self.openflow.extend(other.openflow)
        self.queues.extend(other.queues)
        self.tc.extend(other.tc)
        self.iptables.extend(other.iptables)
        self.click.extend(other.click)

    def render(self) -> str:
        """Render every instruction as text (one per line)."""
        lines: List[str] = []
        for group in (self.openflow, self.queues, self.tc, self.iptables, self.click):
            lines.extend(item.render() for item in group)
        return "\n".join(lines)
