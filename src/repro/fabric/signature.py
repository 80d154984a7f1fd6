"""Canonical component signatures.

A partition component's *content* determines its model and therefore its
solution: the member statements' tightened logical topologies (edge lists
over physical links), their bandwidth terms, each member's slack rung, the
sorted link footprint with capacities, the path-selection heuristic, and
the solver backend with its limits.  Everything else — the tenant's
statement identifiers, the order statements were written in, the order
footprint links were discovered in — is presentation.

:func:`canonicalize_component` boils a component down to exactly that
content: each member is digested *without its identifier* and members are
ranked by digest, producing a signature that is invariant under tenant
renaming and statement permutation (and, trivially, footprint reordering —
links are sorted).  It is **not** invariant under physical-link renaming:
link names appear literally in capacities, footprints, and reservation
keys, so the cache only matches components on the same topology
naming.  The digest-rank order of the members is how a solution stored
by one component is re-addressed to another's identifiers: the member of
rank *k* on one side is the member of rank *k* on the other.

Two members with *identical* digests (interchangeable statements) keep
their relative sorted-identifier order on both sides, which maps them
position-wise — the same order the canonical model builder uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..core.localization import LocalRates
from ..core.logical import LogicalTopology, Vertex, edge_fields
from ..lp.backends import backend_name

__all__ = ["CanonicalComponent", "backend_fingerprint", "canonicalize_component"]

_JSON = dict(sort_keys=True, separators=(",", ":"))


def backend_fingerprint(solver) -> str:
    """What of the backend is solution-relevant: its name and limits.

    Different limits can produce different (time- or node-truncated)
    incumbents, so they key the cache alongside the registered name.
    Unregistered third-party instances fingerprint as their class name —
    distinct from every registered backend, never silently shared.
    """
    return json.dumps(
        [
            backend_name(solver),
            getattr(solver, "time_limit_seconds", None),
            getattr(solver, "max_nodes", None),
        ],
        **_JSON,
    )


def _member_digest(
    logical: LogicalTopology, rates: LocalRates, slack: Optional[int]
) -> str:
    """Digest one member's identifier-free content.

    The tightened edges are serialized in construction order — edge index
    *is* part of the content (it is the member's MIP column order) — each
    as its tail, its head and its :func:`edge_fields`, along with the
    endpoints, the bandwidth terms in bps, and the slack rung the member
    is tightened at.
    """
    body = [
        logical.source_location,
        logical.destination_location,
        [_edge_record(tail, head) for tail, head in logical.pairs],
        rates.guarantee.bps_value if rates.guarantee is not None else None,
        rates.cap.bps_value if rates.cap is not None else None,
        slack,
    ]
    serialized = json.dumps(body, **_JSON)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def _edge_record(tail: Vertex, head: Vertex) -> list:
    """One edge as :func:`_member_digest` serializes it."""
    location, link = edge_fields(tail, head)
    return [list(tail), list(head), location, list(link) if link else None]


@dataclass(frozen=True)
class CanonicalComponent:
    """A component's content signature and its members in rank order."""

    signature: str
    #: The requesting statement ids in member-digest rank order.
    members: Tuple[str, ...]


def canonicalize_component(
    spec,
    tightened: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    capacity_mbps: Mapping[Tuple[str, str], float],
    heuristic,
    solver,
    member_slacks: Sequence[Optional[int]],
) -> CanonicalComponent:
    """Compute a component's canonical signature and member rank order.

    ``spec`` is the :class:`~repro.incremental.partition.PartitionSpec`
    (sorted statement ids, sorted links); ``member_slacks`` aligns with
    ``spec.statement_ids``.  ``tightened`` must hold each member's logical
    topology *at its slack rung* — the one the model would be built from.
    """
    digests = [
        _member_digest(tightened[sid], rates[sid], slack)
        for sid, slack in zip(spec.statement_ids, member_slacks)
    ]
    order = sorted(range(len(digests)), key=lambda i: (digests[i], i))
    links = [[u, v, capacity_mbps[(u, v)]] for (u, v) in sorted(spec.links)]
    header = json.dumps(
        [
            heuristic.value,
            backend_fingerprint(solver),
            links,
            [digests[position] for position in order],
        ],
        **_JSON,
    )
    return CanonicalComponent(
        signature=hashlib.sha256(header.encode("utf-8")).hexdigest(),
        members=tuple(spec.statement_ids[position] for position in order),
    )
