"""End-host ``tc`` command generation.

Rate limits (``max`` clauses) are enforced at the sending host with an HTB
class whose ceiling is the cap; guarantees additionally install an HTB class
with the guaranteed rate so host-local contention cannot starve the
guaranteed traffic before it reaches the network.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.allocation import RateAllocation
from ..core.ast import Statement
from ..predicates.ast import Predicate
from ..predicates.transform import positive_field_tests
from ..topology.graph import Topology
from .instructions import TcCommand

#: Predicate fields renderable as tc u32 selectors.
_TC_SELECTORS = {
    "ip.src": "ip src",
    "ip.dst": "ip dst",
    "ip.proto": "ip protocol",
    "tcp.src": "ip sport",
    "tcp.dst": "ip dport",
    "udp.src": "ip sport",
    "udp.dst": "ip dport",
}


def _selectors(predicate: Predicate) -> Tuple[Tuple[str, str], ...]:
    return tuple(
        (_TC_SELECTORS[test.field], str(test.value))
        for test in positive_field_tests(predicate)
        if test.field in _TC_SELECTORS
    )


def tc_for_statement(
    topology: Topology,
    statement: Statement,
    allocation: RateAllocation,
    source_host: Optional[str],
    interface: str = "eth0",
) -> List[TcCommand]:
    """``tc`` commands for one statement, installed at its source host."""
    node = topology.find(source_host) if source_host is not None else None
    if node is None or not node.is_host:
        return []
    commands: List[TcCommand] = []
    selectors = _selectors(statement.predicate)
    if allocation.cap is not None:
        commands.append(
            TcCommand(
                host=source_host,
                interface=interface,
                rate=allocation.cap,
                kind="cap",
                match=selectors,
                statement_id=statement.identifier,
            )
        )
    if allocation.guarantee is not None:
        commands.append(
            TcCommand(
                host=source_host,
                interface=interface,
                rate=allocation.guarantee,
                kind="guarantee",
                match=selectors,
                statement_id=statement.identifier,
            )
        )
    return commands
