"""Canonical component signatures and solution transport.

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
naming.  The digest-rank order also yields a bidirectional id mapping,
which is how :func:`encode_solution` stores a
:class:`~repro.incremental.solve.PartitionSolution` in tenant-neutral form
and :func:`decode_solution` re-addresses it to a different tenant's
identifiers on a hit.

Two members with *identical* digests (interchangeable statements) keep
their relative sorted-identifier order on both sides, which maps them
position-wise — the same order the canonical model builder uses.

Records are plain JSON-able dicts so the cache can spill them to disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.localization import LocalRates
from ..core.logical import LogicalTopology
from ..lp.backends import backend_name

__all__ = [
    "CanonicalComponent",
    "SIGNATURE_VERSION",
    "backend_fingerprint",
    "canonicalize_component",
    "decode_solution",
    "encode_infeasible",
    "encode_solution",
]

#: Bump when anything entering the signature or record shape changes, so a
#: stale spill file from an older layout can never satisfy a lookup.
SIGNATURE_VERSION = "merlin-component-v3"

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
            getattr(solver, "node_limit", None),
            getattr(solver, "max_nodes", None),
        ],
        **_JSON,
    )


def _member_digest(
    logical: LogicalTopology, rates: LocalRates, slack: Optional[int]
) -> str:
    """Digest one member's identifier-free content.

    The tightened edge list is serialized in construction order — edge
    index *is* part of the content (it is the member's MIP column order) —
    along with the endpoints, the bandwidth terms in bps, and the slack
    rung the member is tightened at.
    """
    body = [
        logical.source_location,
        logical.destination_location,
        [
            [
                list(edge.source),
                list(edge.target),
                edge.location,
                list(edge.physical_link) if edge.physical_link else None,
            ]
            for edge in logical.edges
        ],
        rates.guarantee.bps_value if rates.guarantee is not None else None,
        rates.cap.bps_value if rates.cap is not None else None,
        slack,
    ]
    serialized = json.dumps(body, **_JSON)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CanonicalComponent:
    """A component's content signature plus the id re-addressing maps."""

    signature: str
    #: Canonical member names in rank order (``c0000``, ``c0001``, ...).
    canonical_ids: Tuple[str, ...]
    #: Requesting statement id -> canonical name.
    to_canonical: Mapping[str, str]
    #: Canonical name -> requesting statement id.
    to_actual: Mapping[str, str]


def canonicalize_component(
    spec,
    tightened: Mapping[str, LogicalTopology],
    rates: Mapping[str, LocalRates],
    capacity_mbps: Mapping[Tuple[str, str], float],
    heuristic,
    solver,
    member_slacks: Sequence[Optional[int]],
) -> CanonicalComponent:
    """Compute a component's canonical signature and id mapping.

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
    canonical_ids = tuple(f"c{rank:04d}" for rank in range(len(order)))
    to_canonical = {
        spec.statement_ids[position]: canonical_ids[rank]
        for rank, position in enumerate(order)
    }
    links = [[u, v, capacity_mbps[(u, v)]] for (u, v) in sorted(spec.links)]
    header = json.dumps(
        [
            SIGNATURE_VERSION,
            heuristic.value,
            backend_fingerprint(solver),
            links,
            [digests[position] for position in order],
        ],
        **_JSON,
    )
    return CanonicalComponent(
        signature=hashlib.sha256(header.encode("utf-8")).hexdigest(),
        canonical_ids=canonical_ids,
        to_canonical=to_canonical,
        to_actual={c: sid for sid, c in to_canonical.items()},
    )


def encode_solution(solution, canon: CanonicalComponent) -> Dict[str, object]:
    """Store a solved component in tenant-neutral (canonical-id) form."""
    mapping = canon.to_canonical
    return {
        "version": SIGNATURE_VERSION,
        "status": solution.status,
        "objective": solution.objective,
        "location_paths": {
            mapping[sid]: list(path)
            for sid, path in solution.location_paths.items()
        },
        "fractions": [
            [u, v, value] for (u, v), value in sorted(solution.fractions.items())
        ],
        "statistics": dict(solution.statistics),
        "num_variables": solution.num_variables,
        "num_constraints": solution.num_constraints,
    }


def encode_infeasible() -> Dict[str, object]:
    """Store a proven-infeasible component (so re-sweeps skip the rung)."""
    return {"version": SIGNATURE_VERSION, "infeasible": True}


#: The keys :func:`decode_solution` reads.
_SOLUTION_KEYS = frozenset({
    "status", "objective", "location_paths", "fractions",
    "statistics", "num_variables", "num_constraints",
})


def record_is_readable(record: object) -> bool:
    """Whether ``record`` is one this layout's look-up can answer from.

    That is a dict of the current :data:`SIGNATURE_VERSION` that is either
    an infeasibility marker or holds every key :func:`decode_solution`
    reads.  The cache checks what a spill file offers with this before it
    believes it.
    """
    return (
        isinstance(record, dict)
        and record.get("version") == SIGNATURE_VERSION
        and (record.get("infeasible") is True or _SOLUTION_KEYS <= record.keys())
    )


def decode_solution(
    record: Mapping[str, object],
    canon: CanonicalComponent,
    spec,
    member_slacks: Sequence[Optional[int]],
):
    """Re-address a stored record to the requesting component's identifiers.

    The timing fields are zeroed (no solve happened here) and the
    statistics gain a ``component_cache_hit`` flag; model-size and solver
    diagnostics are kept verbatim so merged statistics match a cold
    compile's.
    """
    from ..incremental.solve import PartitionSolution

    inverse = dict(canon.to_actual)
    statistics = dict(record["statistics"])
    statistics["component_cache_hit"] = 1.0
    return PartitionSolution(
        spec=spec,
        location_paths={
            inverse[cid]: tuple(path)
            for cid, path in record["location_paths"].items()
        },
        fractions={(u, v): value for u, v, value in record["fractions"]},
        status=str(record["status"]),
        objective=record["objective"],
        statistics=statistics,
        num_variables=int(record["num_variables"]),
        num_constraints=int(record["num_constraints"]),
        construction_seconds=0.0,
        solve_seconds=0.0,
        member_slacks=tuple(member_slacks),
    )
