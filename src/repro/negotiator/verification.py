"""Verification of tenant policy refinements (§4.2).

A tenant's modification of a delegated policy is valid only if it makes the
policy *more restrictive*.  Verification performs a pairwise comparison of
the statements of the original and refined policies:

1. **Coverage** — every packet matched by an original statement must still be
   matched by some refined statement (the partition-totality requirement of
   §4.1), and refined statements must not claim packets outside the original
   statement they refine.
2. **Path inclusion** — for every pair of original/refined statements with
   overlapping predicates, the refined path language must be included in the
   original path language.
3. **Bandwidth implication** — for each original ``max``/``min`` clause, the
   sum of the refined allocations over the overlapping statements must not
   exceed the original allocation.

The paper discharges (1) and (3) with the Z3 SMT solver and (2) with the
Dprle library; here they are decided with the library's own predicate
satisfiability checker and automata-based language inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..collector import collector_paused
from ..predicates.sat import covers, find_overlapping_between
from ..regex.ast import Regex
from ..regex.operations import counterexample
from ..units import Bandwidth
from ..core.ast import FMax, FMin, Policy, Statement, formula_clauses


@dataclass
class Violation:
    """One reason a refinement was rejected."""

    kind: str
    message: str
    original_statement: Optional[str] = None
    refined_statement: Optional[str] = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class VerificationReport:
    """The outcome of verifying a refined policy against its parent."""

    valid: bool
    violations: List[Violation] = field(default_factory=list)
    checked_pairs: int = 0
    checked_clauses: int = 0

    def __bool__(self) -> bool:
        return self.valid


@collector_paused
def verify_refinement(original: Policy, refined: Policy) -> VerificationReport:
    """Check that ``refined`` is a valid refinement of ``original``.

    Statements the tenant did not touch (identical predicate and path) are
    recognised up front and skip the expensive pairwise checks — they
    trivially refine themselves.  Only the changed statements pay for
    satisfiability and language-inclusion reasoning, which keeps verification
    time linear in the size of the *change* rather than of the whole policy
    (the behaviour Figure 9 measures).  The verdict runs with the cyclic
    garbage collector paused (:func:`~repro.collector.collector_paused`).
    """
    violations: List[Violation] = []
    checked_pairs = 0

    # Index original statements by (predicate, path) to spot untouched ones.
    original_by_shape = {
        (statement.predicate, statement.path): statement
        for statement in original.statements
    }
    unchanged_partner: Dict[str, str] = {}
    changed_refined = []
    for candidate in refined.statements:
        partner = original_by_shape.get((candidate.predicate, candidate.path))
        if partner is not None:
            unchanged_partner[candidate.identifier] = partner.identifier
        else:
            changed_refined.append(candidate)
    covered_originals = set(unchanged_partner.values())

    # Which changed statements overlap which original ones: decided once,
    # through the forced-equality index, and shared by the coverage, path
    # inclusion and bandwidth checks below.
    overlapping = find_overlapping_between(
        [statement.predicate for statement in original.statements],
        [candidate.predicate for candidate in changed_refined],
    )
    changed_by_original: List[List[Statement]] = [[] for _ in original.statements]
    for position, changed in overlapping:
        changed_by_original[position].append(changed_refined[changed])

    # --- predicate coverage and containment -------------------------------
    for position, statement in enumerate(original.statements):
        if statement.identifier in covered_originals:
            continue
        matching = changed_by_original[position]
        if not matching:
            violations.append(
                Violation(
                    kind="coverage",
                    message=(
                        f"no refined statement matches traffic of original "
                        f"statement {statement.identifier!r}"
                    ),
                    original_statement=statement.identifier,
                )
            )
            continue
        if not covers(statement.predicate, [m.predicate for m in matching]):
            violations.append(
                Violation(
                    kind="coverage",
                    message=(
                        f"refined statements do not cover all packets of original "
                        f"statement {statement.identifier!r}"
                    ),
                    original_statement=statement.identifier,
                )
            )

    if changed_refined:
        original_predicates = [s.predicate for s in original.statements]
        for candidate in changed_refined:
            if not covers(candidate.predicate, original_predicates):
                violations.append(
                    Violation(
                        kind="scope",
                        message=(
                            f"refined statement {candidate.identifier!r} matches packets "
                            "outside the delegated policy"
                        ),
                        refined_statement=candidate.identifier,
                    )
                )

    # --- path-language inclusion on overlapping pairs ----------------------
    # One question per distinct (refined path, original path) pair: the
    # witness (or its absence) answers every statement pair of that shape.
    witnesses: Dict[Tuple[Regex, Regex], Optional[Tuple[str, ...]]] = {}
    for position, statement in enumerate(original.statements):
        for candidate in changed_by_original[position]:
            checked_pairs += 1
            shape = (candidate.path, statement.path)
            if shape not in witnesses:
                witnesses[shape] = counterexample(*shape)
            witness = witnesses[shape]
            if witness is not None:
                witness_text = (
                    f" (e.g. path {' '.join(witness)})" if witness else ""
                )
                violations.append(
                    Violation(
                        kind="path",
                        message=(
                            f"refined statement {candidate.identifier!r} allows paths "
                            f"not allowed by original statement "
                            f"{statement.identifier!r}{witness_text}"
                        ),
                        original_statement=statement.identifier,
                        refined_statement=candidate.identifier,
                    )
                )

    # --- bandwidth implication ----------------------------------------------
    checked_clauses = 0
    original_caps, original_guarantees = _clause_tables(original)
    refined_caps, refined_guarantees = _clause_tables(refined)
    overlap_map: Dict[str, set] = {
        statement.identifier: {candidate.identifier for candidate in matching}
        for statement, matching in zip(original.statements, changed_by_original)
    }
    # Untouched refined statements map straight onto their identical original.
    for refined_id, original_id in unchanged_partner.items():
        overlap_map[original_id].add(refined_id)

    for kind, original_table, refined_table in (
        ("max", original_caps, refined_caps),
        ("min", original_guarantees, refined_guarantees),
    ):
        # Index refined clauses by the identifiers they mention so that each
        # original clause only touches the clauses related to it (linear in
        # the policy size instead of quadratic).
        clauses_by_identifier: Dict[str, List[int]] = {}
        for position, (refined_identifiers, _) in enumerate(refined_table):
            for identifier in refined_identifiers:
                clauses_by_identifier.setdefault(identifier, []).append(position)
        for identifiers, original_rate in original_table:
            checked_clauses += 1
            related = set()
            for identifier in identifiers:
                related |= overlap_map.get(identifier, set())
            related_clause_positions = set()
            for identifier in related:
                related_clause_positions.update(clauses_by_identifier.get(identifier, ()))
            refined_total = Bandwidth(
                sum(
                    refined_table[position][1].bps_value
                    for position in related_clause_positions
                )
            )
            if refined_total.bps_value > original_rate.bps_value + 1.0:
                violations.append(
                    Violation(
                        kind="bandwidth",
                        message=(
                            f"sum of refined {kind} allocations "
                            f"({refined_total.human()}) exceeds the original "
                            f"{kind}({' + '.join(identifiers)}, {original_rate.human()})"
                        ),
                    )
                )

    return VerificationReport(
        valid=not violations,
        violations=violations,
        checked_pairs=checked_pairs,
        checked_clauses=checked_clauses,
    )


def _clause_tables(policy: Policy):
    """Split a policy's formula into (caps, guarantees) clause tables."""
    caps: List[Tuple[Tuple[str, ...], Bandwidth]] = []
    guarantees: List[Tuple[Tuple[str, ...], Bandwidth]] = []
    for clause in formula_clauses(policy.formula):
        if isinstance(clause, FMax):
            caps.append((clause.term.identifiers, clause.rate))
        elif isinstance(clause, FMin):
            guarantees.append((clause.term.identifiers, clause.rate))
    return caps, guarantees
