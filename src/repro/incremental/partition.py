"""Partitioning of provisioning statements into link-disjoint components.

The provisioning MIP couples statements only through the per-link
reservation rows (Equation 2): two statements interact iff their logical
topologies can map traffic onto a common physical link.  The connected
components of that "shares a link" relation therefore decompose the MIP
exactly — each component can be built and solved independently, and the
union of the component solutions is a solution of the whole program.

Components are computed with a union-find over each statement's *link
footprint* (the set of undirected physical links its logical topology uses,
:attr:`~repro.core.logical.LogicalTopology.footprint`).  The
result is canonical: statement identifiers and link keys inside a
:class:`PartitionSpec` are sorted, and the partition list is ordered by each
component's smallest statement identifier, so the same statement population
always produces the same specs — the property the incremental engine's
solution cache and the full-compile/incremental equivalence rely on.

Footprint tightening
--------------------
An unconstrained ``.*`` path expression touches every physical link, so one
such statement used to glue the whole MIP into a single component and erase
the partition parallelism.  The footprints partitioned here are therefore
those of each statement's *cost-bounded* product graph
(:func:`~repro.core.logical.prune_to_cost_bound`: edges on some
source-to-sink path of at most optimal-hops + slack physical links), cut
once per slack by :meth:`~repro.incremental.solve.StatementRecord.view`.
Crucially the tightened topology is also what the component MIPs are built
from, so the decomposition stays exact — a statement cannot reserve
bandwidth on a link its footprint excludes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..core.logical import LogicalTopology, prune_to_cost_bound

#: An undirected physical link, keyed as ``tuple(sorted((u, v)))``.
LinkKey = Tuple[str, str]


def tighten_logical_topologies(
    logical_topologies: Mapping[str, LogicalTopology],
    slack: Optional[int],
) -> Dict[str, LogicalTopology]:
    """Cost-bound every statement's logical topology for partitioning.

    ``slack`` is the number of extra physical hops allowed over each
    statement's optimum (``None`` disables tightening and returns the
    inputs unchanged).  Already-tight topologies are returned by reference,
    so memoized product graphs keep being shared.

    Nothing calls it: the engine cuts each view once per slack through
    ``StatementRecord.view``.  It stays while ``bench/trace.py`` names it as
    a target, whose harness test requires every target to resolve.
    """
    if slack is None:
        return dict(logical_topologies)
    return {
        identifier: prune_to_cost_bound(logical, slack)
        for identifier, logical in logical_topologies.items()
    }


@dataclass(frozen=True)
class PartitionSpec:
    """One link-disjoint component of the provisioning problem."""

    statement_ids: Tuple[str, ...]
    links: Tuple[LinkKey, ...]

    def __len__(self) -> int:
        return len(self.statement_ids)


class UnionFind:
    """A small union-find (disjoint-set) structure over hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}
        self._rank: Dict[object, int] = {}

    def add(self, item) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item):
        root = item
        while self._parent[root] is not root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] is not root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left, right) -> None:
        self.add(left)
        self.add(right)
        left_root, right_root = self.find(left), self.find(right)
        if left_root is right_root:
            return
        if self._rank[left_root] < self._rank[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        if self._rank[left_root] == self._rank[right_root]:
            self._rank[left_root] += 1


def partition_statements(
    footprints: Mapping[str, Iterable[LinkKey]],
) -> List[PartitionSpec]:
    """Group statements into link-disjoint components.

    ``footprints`` maps each statement identifier to the physical links its
    logical topology can use.  Statements with an empty footprint (paths
    that never leave a host) form singleton components with no links.
    """
    uf = UnionFind()
    link_sets: Dict[str, FrozenSet[LinkKey]] = {}
    first_owner: Dict[LinkKey, str] = {}
    for identifier in sorted(footprints):
        links = frozenset(footprints[identifier])
        link_sets[identifier] = links
        uf.add(identifier)
        for link in links:
            owner = first_owner.setdefault(link, identifier)
            if owner != identifier:
                uf.union(owner, identifier)

    members: Dict[object, List[str]] = {}
    for identifier in link_sets:
        members.setdefault(uf.find(identifier), []).append(identifier)

    specs = []
    for group in members.values():
        ids = tuple(sorted(group))
        links = sorted(set().union(*(link_sets[identifier] for identifier in ids)))
        specs.append(PartitionSpec(statement_ids=ids, links=tuple(links)))
    specs.sort(key=lambda spec: spec.statement_ids[0])
    return specs
