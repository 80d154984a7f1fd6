"""Policy deltas: the unit of work of incremental re-provisioning.

A :class:`PolicyDelta` describes how a statement population changes —
statements added (with their localized rates), statements removed, and
statements whose rates changed without touching predicate or path.
Deltas are consumed by :meth:`MerlinCompiler.recompile` and produced either
directly by callers or by :func:`policy_delta`, which diffs two policies
(the negotiator uses it to turn a verified refinement into the minimal
re-provisioning work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.ast import Policy, Statement
from ..core.localization import localize
from ..units import Bandwidth


@dataclass(frozen=True)
class DeltaStatement:
    """A statement entering the policy, with its localized rates."""

    statement: Statement
    guarantee: Optional[Bandwidth] = None
    cap: Optional[Bandwidth] = None


@dataclass(frozen=True)
class RateUpdate:
    """New localized rates for an existing statement (shape unchanged)."""

    identifier: str
    guarantee: Optional[Bandwidth] = None
    cap: Optional[Bandwidth] = None


@dataclass(frozen=True)
class PolicyDelta:
    """A set of statement-level changes applied atomically by ``recompile``.

    ``remove`` is applied first, then ``add``, then ``update_rates`` — so a
    statement whose predicate or path changed appears in both ``remove`` and
    ``add`` under the same identifier.
    """

    add: Tuple[DeltaStatement, ...] = ()
    remove: Tuple[str, ...] = ()
    update_rates: Tuple[RateUpdate, ...] = ()

    def is_empty(self) -> bool:
        return not (self.add or self.remove or self.update_rates)

    def num_changes(self) -> int:
        return len(self.add) + len(self.remove) + len(self.update_rates)

    def touched_identifiers(self) -> frozenset:
        """Every statement identifier this delta adds, removes, or updates."""
        return frozenset(
            [entry.statement.identifier for entry in self.add]
            + list(self.remove)
            + [update.identifier for update in self.update_rates]
        )

    def __str__(self) -> str:
        return (
            f"PolicyDelta(+{len(self.add)} -{len(self.remove)} "
            f"~{len(self.update_rates)})"
        )


@dataclass(frozen=True)
class TopologyDelta:
    """A set of topology changes applied atomically by ``recompile``.

    Link keys are undirected (u, v) name pairs and are normalized to sorted
    order on construction.  Failures and recoveries are *absolute* edits to
    the session's failed-element sets: failing an already-failed element or
    recovering a healthy one is refused, so replaying a stream
    of deltas is unambiguous.  Applied by
    :meth:`MerlinCompiler.recompile` / :meth:`ProvisioningSession.apply`, which
    derive the new active topology, rebuild only the product graphs whose pristine
    footprint touches the changed elements, and re-solve only the MIP
    components those statements belong to.
    """

    fail_links: Tuple[Tuple[str, str], ...] = ()
    recover_links: Tuple[Tuple[str, str], ...] = ()
    fail_nodes: Tuple[str, ...] = ()
    recover_nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "fail_links",
            tuple(tuple(sorted(link)) for link in self.fail_links),
        )
        object.__setattr__(
            self,
            "recover_links",
            tuple(tuple(sorted(link)) for link in self.recover_links),
        )
        object.__setattr__(self, "fail_nodes", tuple(self.fail_nodes))
        object.__setattr__(self, "recover_nodes", tuple(self.recover_nodes))

    def is_empty(self) -> bool:
        return not (
            self.fail_links
            or self.recover_links
            or self.fail_nodes
            or self.recover_nodes
        )

    def num_changes(self) -> int:
        return (
            len(self.fail_links)
            + len(self.recover_links)
            + len(self.fail_nodes)
            + len(self.recover_nodes)
        )

    def __str__(self) -> str:
        return (
            f"TopologyDelta(-L{len(self.fail_links)} +L{len(self.recover_links)} "
            f"-N{len(self.fail_nodes)} +N{len(self.recover_nodes)})"
        )


def same_rate(left: Optional[Bandwidth], right: Optional[Bandwidth]) -> bool:
    """Value equality over optional bandwidths (``None`` only equals ``None``).

    Shared by the policy diff below and the negotiator's delegated-delta
    rewrite, which must agree on what counts as "the tenant changed this
    rate".
    """
    if left is None or right is None:
        return left is None and right is None
    return left.bps_value == right.bps_value


def policy_delta(old: Policy, new: Policy) -> PolicyDelta:
    """Diff two policies into the minimal statement-level delta.

    Statements are matched by identifier.  A matched statement whose
    predicate or path expression changed becomes a remove + add pair (its
    forwarding state must be re-provisioned); one whose localized rates
    changed becomes a rate update (reservation rows only — the cheap
    adaptation of §4.3); identical statements produce no work at all.
    """
    old_rates = localize(old)
    new_rates = localize(new)
    old_by_id: Dict[str, Statement] = {s.identifier: s for s in old.statements}
    new_by_id: Dict[str, Statement] = {s.identifier: s for s in new.statements}

    removed: List[str] = [
        identifier for identifier in old_by_id if identifier not in new_by_id
    ]
    added: List[DeltaStatement] = []
    updates: List[RateUpdate] = []
    for identifier, statement in new_by_id.items():
        rates = new_rates[identifier]
        if identifier not in old_by_id:
            added.append(
                DeltaStatement(statement, guarantee=rates.guarantee, cap=rates.cap)
            )
            continue
        previous = old_by_id[identifier]
        if (
            previous.predicate != statement.predicate
            or previous.path != statement.path
        ):
            removed.append(identifier)
            added.append(
                DeltaStatement(statement, guarantee=rates.guarantee, cap=rates.cap)
            )
            continue
        before = old_rates[identifier]
        if not same_rate(before.guarantee, rates.guarantee) or not same_rate(
            before.cap, rates.cap
        ):
            updates.append(
                RateUpdate(identifier, guarantee=rates.guarantee, cap=rates.cap)
            )
    return PolicyDelta(
        add=tuple(added), remove=tuple(removed), update_rates=tuple(updates)
    )


def merge_policy_deltas(deltas) -> PolicyDelta:
    """Merge independent :class:`PolicyDelta`\\ s into one transaction.

    The control-plane daemon batches concurrently-submitted tenant deltas
    into a single recompile; the merge is sound only when the deltas are
    *disjoint* — no statement identifier is touched (added, removed, or
    rate-updated) by more than one of them — because ``recompile`` applies
    all removes, then all adds, then all updates, which reorders operations
    across deltas sharing an identifier.  Raises :class:`ValueError` on
    any overlap; callers fall back to applying the offenders separately.
    """
    add: List[DeltaStatement] = []
    remove: List[str] = []
    updates: List[RateUpdate] = []
    touched: set = set()
    for delta in deltas:
        mine = delta.touched_identifiers()
        overlap = touched & mine
        if overlap:
            raise ValueError(
                "cannot merge deltas touching the same statements: "
                + ", ".join(sorted(overlap))
            )
        touched |= mine
        add.extend(delta.add)
        remove.extend(delta.remove)
        updates.extend(delta.update_rates)
    return PolicyDelta(
        add=tuple(add), remove=tuple(remove), update_rates=tuple(updates)
    )
