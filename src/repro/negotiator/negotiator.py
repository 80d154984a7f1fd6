"""The negotiator hierarchy (§4).

Negotiators form a tree overlaying the network: each negotiator is
responsible for the network elements in its subtree, parents impose policies
on children, children may refine their delegated policies as long as the
refinement implies the parent policy, and siblings may renegotiate bandwidth
cooperatively as long as the parent's constraints still hold.  Bandwidth
re-allocation never requires recompiling the global policy, which is what
makes run-time adaptation cheap (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..errors import DelegationError
from ..predicates.ast import Predicate
from ..predicates.sat import equivalent
from ..regex.ast import Regex
from ..units import Bandwidth
from ..core.ast import (
    BandwidthTerm,
    FMax,
    Policy,
    Statement,
    formula_and,
    formula_clauses,
)
from .delegation import delegate
from .verification import VerificationReport, verify_refinement


@dataclass
class Negotiator:
    """A node of the negotiator tree.

    ``policy`` is the policy this negotiator currently enforces for its
    subtree.  The root negotiator holds the administrator's global policy;
    children hold delegated projections, possibly refined by their tenants.

    A negotiator may be attached to a :class:`~repro.core.compiler.
    MerlinCompiler` (typically at the root, after the global policy was
    compiled): verified refinements that change paths or guarantees then
    trigger *incremental* re-provisioning through the compiler's
    ``recompile`` fast path, while pure cap re-allocations — the common
    adaptation of §4.3 — still touch no forwarding state at all.  The most
    recent re-provisioning outcome is kept in ``last_reprovision``.
    """

    name: str
    policy: Policy
    parent: Optional["Negotiator"] = None
    children: Dict[str, "Negotiator"] = field(default_factory=dict)
    compiler: Optional[object] = None
    last_reprovision: Optional[object] = field(default=None, repr=False)

    # -- delegation -------------------------------------------------------------

    def delegate_to(
        self,
        child_name: str,
        scope_predicate: Predicate,
        scope_path: Optional[Regex] = None,
    ) -> "Negotiator":
        """Create a child negotiator holding the projection of this policy."""
        if child_name in self.children:
            raise DelegationError(f"child negotiator {child_name!r} already exists")
        child_policy = delegate(self.policy, scope_predicate, scope_path)
        child = Negotiator(name=child_name, policy=child_policy, parent=self)
        self.children[child_name] = child
        return child

    # -- refinement -------------------------------------------------------------

    def propose(self, refined: Policy) -> VerificationReport:
        """A tenant proposes a refined policy for this negotiator's subtree.

        The refinement is verified against the *current* policy; when valid
        it is adopted (and will constrain any further refinements).  If a
        compiler with an active session is attached to this negotiator or an
        ancestor, the adopted refinement is re-provisioned incrementally:
        only statements whose path or guarantee actually changed generate
        work (see :func:`repro.incremental.delta.policy_delta`).  If
        re-provisioning fails (e.g. the network lacks capacity), the
        refinement is withdrawn and the provisioning error propagates.
        Withdrawal is a pure rollback: ``recompile`` is transactional, so
        the compiler session already restored itself to the pre-delta
        state; the negotiator only reverts its own ``policy``.  The session
        stays active, and the next proposal is re-provisioned normally.
        """
        previous = self.policy
        report = verify_refinement(self.policy, refined)
        if report.valid:
            self.policy = refined
            try:
                self._reprovision(previous, refined)
            except Exception:
                self.policy = previous
                raise
        return report

    def _reprovision(self, previous: Policy, adopted: Policy) -> None:
        """Push an adopted refinement through the incremental compiler path.

        A no-op when no ancestor carries a compiler session or when the
        refinement changes nothing the provisioner cares about (the paper's
        cheap-adaptation case).  Re-provisioning failures propagate: the
        refinement was verified against the *policy*, but the network may
        still lack capacity for it.  :meth:`propose` withdraws the
        refinement on failure; the compiler session rolled back inside
        ``recompile`` and remains usable, so no re-seeding is needed.
        """
        holder = self._compiler_holder()
        if holder is None:
            return
        compiler = holder.compiler
        if not getattr(compiler, "has_session", False):
            return
        from ..incremental.delta import policy_delta

        delta = policy_delta(previous, adopted)
        if delta.is_empty():
            return
        if holder is not self:
            delta = self._globalize_delta(compiler, previous, delta)
        result = compiler.session().apply(delta)
        self.last_reprovision = result
        if holder is not self:
            holder.last_reprovision = result

    def _globalize_delta(self, compiler, previous: Policy, delta):
        """Rewrite a delegated negotiator's delta against the global session.

        Delegation narrows each statement's predicate to the tenant scope
        (see :func:`~repro.negotiator.delegation.delegate`) while keeping
        identifiers, so a delta diffed from this negotiator's own policies
        would splice scope-narrowed predicates into the ancestor's compiler
        session — silently dropping out-of-scope traffic from network-wide
        provisioning.  Path and rate refinements instead apply to the
        session's statement with its *global* predicate kept; changes that
        cannot be expressed against the wider statement — a tenant-side
        predicate refinement, or removal of a statement the session covers
        more broadly — are refused with :class:`DelegationError` (the
        operator must recompile the root policy to apply them).

        The same projection problem applies to rates: delegation drops
        bandwidth clauses whose identifiers do not all survive the scope,
        so this negotiator's localization of a re-added statement may see
        ``guarantee=None`` where the global session holds a reservation.
        Rates the tenant did not change therefore keep the session's
        values; rates the tenant *did* change (a genuine rate refinement)
        pass through.
        """
        from ..core.localization import localize
        from ..incremental.delta import PolicyDelta, RateUpdate, same_rate

        previous_rates = localize(previous)
        previous_by_id = {s.identifier: s for s in previous.statements}

        def merged_rates(identifier, guarantee, cap):
            """Per-field merge of tenant rates with the session's.

            A field the tenant left at its own previous (delegated) value
            keeps the session's value — the tenant's localization may have
            lost clauses delegation dropped; a field the tenant changed is
            a genuine rate refinement and passes through.
            """
            record = compiler.session_record(identifier)
            if record is None:
                return guarantee, cap
            before_rates = previous_rates[identifier]
            if same_rate(guarantee, before_rates.guarantee):
                guarantee = record.rates.guarantee
            if same_rate(cap, before_rates.cap):
                cap = record.rates.cap
            return guarantee, cap

        add = []
        for entry in delta.add:
            statement = entry.statement
            identifier = statement.identifier
            record = compiler.session_record(identifier)
            if record is None:
                # Genuinely new inside this scope: the tenant's predicate is
                # the statement's only definition, so it enters unchanged.
                add.append(entry)
                continue
            before = previous_by_id.get(identifier)
            if before is None or not equivalent(
                before.predicate, statement.predicate
            ):
                raise DelegationError(
                    f"cannot incrementally re-provision statement "
                    f"{identifier!r}: a delegated refinement changed its "
                    "predicate, which cannot be applied to the global "
                    "session's wider statement; recompile the root policy"
                )
            guarantee, cap = merged_rates(identifier, entry.guarantee, entry.cap)
            add.append(
                replace(
                    entry,
                    statement=Statement(
                        identifier=identifier,
                        predicate=record.statement.predicate,
                        path=statement.path,
                    ),
                    guarantee=guarantee,
                    cap=cap,
                )
            )
        re_added = {entry.statement.identifier for entry in add}
        for identifier in delta.remove:
            if identifier in re_added:
                continue
            record = compiler.session_record(identifier)
            before = previous_by_id.get(identifier)
            if record is not None and (
                before is None
                or not equivalent(record.statement.predicate, before.predicate)
            ):
                raise DelegationError(
                    f"cannot incrementally remove statement {identifier!r}: "
                    "the global session covers more traffic than this "
                    "negotiator's delegated projection; recompile the root "
                    "policy"
                )
        updates = []
        for update in delta.update_rates:
            guarantee, cap = merged_rates(
                update.identifier, update.guarantee, update.cap
            )
            updates.append(
                RateUpdate(update.identifier, guarantee=guarantee, cap=cap)
            )
        return PolicyDelta(
            add=tuple(add), remove=delta.remove, update_rates=tuple(updates)
        )

    def _compiler_holder(self) -> Optional["Negotiator"]:
        node: Optional[Negotiator] = self
        while node is not None:
            if node.compiler is not None:
                return node
            node = node.parent
        return None

    # -- bandwidth renegotiation ---------------------------------------------------

    def total_cap(self) -> Bandwidth:
        """The sum of all ``max`` allocations in this negotiator's policy."""
        total = Bandwidth(0.0)
        for clause in formula_clauses(self.policy.formula):
            if isinstance(clause, FMax):
                total = total + clause.rate
        return total

    def reallocate_caps(self, new_caps: Dict[str, Bandwidth]) -> VerificationReport:
        """Redistribute ``max`` allocations across this policy's statements.

        The new per-statement caps replace the existing ``max`` clauses; the
        resulting policy is verified against the parent's policy (or against
        the current policy when this is the root), so a reallocation that
        exceeds the delegated budget is rejected.  Bandwidth re-allocation
        does not touch predicates or path expressions, so no recompilation of
        forwarding state is needed.
        """
        kept = [
            clause
            for clause in formula_clauses(self.policy.formula)
            if not isinstance(clause, FMax)
        ]
        new_clauses = [
            FMax(BandwidthTerm(identifiers=(identifier,)), rate)
            for identifier, rate in sorted(new_caps.items())
        ]
        candidate = self.policy.with_formula(formula_and(*kept, *new_clauses))
        reference = self.parent.policy if self.parent is not None else self.policy
        report = verify_refinement(reference, candidate)
        if report.valid:
            self.policy = candidate
        return report

    # -- tree queries ---------------------------------------------------------------

    def root(self) -> "Negotiator":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:
        return (
            f"Negotiator({self.name!r}, statements={len(self.policy.statements)}, "
            f"children={sorted(self.children)})"
        )
