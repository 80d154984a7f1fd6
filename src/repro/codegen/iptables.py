"""End-host ``iptables`` rule generation.

Traffic filtering is implemented at end hosts: statements whose path
expression denotes the empty language (no allowed path — i.e. "drop") become
DROP rules at the source host, and statements explicitly marked as filtered
can install ACCEPT rules that document the allowed traffic.  This mirrors the
paper's use of ``iptables`` for traffic filtering.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.ast import Statement
from ..predicates.ast import Predicate
from ..predicates.transform import positive_field_tests
from ..topology.graph import Topology
from .instructions import IptablesRule

_IPTABLES_SELECTORS = {
    "ip.src": "source",
    "ip.dst": "destination",
    "tcp.dst": "dport",
    "tcp.src": "sport",
    "udp.dst": "dport",
    "udp.src": "sport",
    "ip.proto": "protocol",
}


def _selectors(predicate: Predicate) -> Tuple[Tuple[str, str], ...]:
    return tuple(
        (_IPTABLES_SELECTORS[test.field], str(test.value))
        for test in positive_field_tests(predicate)
        if test.field in _IPTABLES_SELECTORS
    )


def drop_rule_for_statement(
    topology: Topology, statement: Statement, source_host: Optional[str]
) -> List[IptablesRule]:
    """A DROP rule at the source host for a statement with no allowed path."""
    if source_host is None or not topology.has_node(source_host):
        return []
    return [
        IptablesRule(
            host=source_host,
            chain="OUTPUT",
            match=_selectors(statement.predicate),
            action="DROP",
            statement_id=statement.identifier,
        )
    ]
