"""Policy pre-processing (§2.1).

The core language requires that a policy's statements "have disjoint
predicates and together match all packets"; the paper notes these
requirements are "enforced by a simple pre-processor".  This module provides
that pre-processor:

* **Disjointness** — overlapping statements are either rejected or, in
  ``priority`` mode, rewritten so that each statement matches only the
  packets not claimed by an earlier statement (first-match-wins semantics).
* **Totality** — a catch-all statement matching the remaining packets with an
  unconstrained path (``.*``) and no bandwidth clause is appended when the
  statements do not already cover all packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import PolicyError
from ..predicates.ast import TRUE, Predicate, PTrue, pred_and, pred_not, pred_or
from ..predicates.sat import find_overlapping_pairs, is_satisfiable
from ..regex.ast import any_path
from .ast import Policy, Statement

#: Identifier used for the generated catch-all statement.
DEFAULT_STATEMENT_ID = "default"


@dataclass
class PreprocessResult:
    """The pre-processed policy plus a description of what changed."""

    policy: Policy
    rewritten_statements: Tuple[str, ...] = ()
    added_default: bool = False


def preprocess(
    policy: Policy,
    overlap: str = "reject",
    add_catch_all: bool = True,
) -> PreprocessResult:
    """Enforce disjointness and totality on a policy.

    ``overlap`` selects how overlapping predicates are handled: ``"reject"``
    raises :class:`PolicyError`; ``"priority"`` subtracts each statement's
    predecessors from its predicate so that earlier statements win;
    ``"trust"`` skips the disjointness check: the caller vouches that the
    statements are disjoint (machine-generated policies such as all-pairs
    connectivity are, by construction).  It is a statement about the
    input, not a performance setting: statements that pin their endpoints
    are told apart by the forced-equality index of
    :mod:`repro.predicates.sat` without a satisfiability search, and only
    the pairs the index cannot separate (no forced field in common) cost
    one search each.
    """
    statements = list(policy.statements)
    rewritten: List[str] = []

    if overlap not in ("reject", "priority", "trust"):
        raise PolicyError(f"unknown overlap mode {overlap!r}")
    if overlap != "trust":
        pairs = find_overlapping_pairs(
            [statement.predicate for statement in statements]
        )
        if pairs:
            if overlap == "reject":
                conflicts = ", ".join(
                    f"({statements[i].identifier}, {statements[j].identifier})"
                    for i, j in pairs
                )
                raise PolicyError(
                    f"statements have overlapping predicates: {conflicts}; "
                    "re-run with overlap='priority' to apply first-match-wins rewriting"
                )
            statements, rewritten = _apply_priority(statements)

    added_default = False
    if add_catch_all:
        # The catch-all's predicate is the negation of everything already
        # matched.  Deciding whether that remainder is satisfiable exactly
        # would require expanding a conjunction of negated conjunctions
        # (exponential in the number of statements), so the pre-processor only
        # skips the catch-all in the trivially-total case where some statement
        # already matches all packets; otherwise an (at worst dead) catch-all
        # statement is appended, which is harmless.
        already_total = any(
            isinstance(statement.predicate, PTrue) for statement in statements
        )
        if not already_total:
            remainder = (
                pred_and(*[pred_not(statement.predicate) for statement in statements])
                if statements
                else TRUE
            )
            if any(s.identifier == DEFAULT_STATEMENT_ID for s in statements):
                raise PolicyError(
                    f"cannot add catch-all: identifier {DEFAULT_STATEMENT_ID!r} already used"
                )
            statements.append(
                Statement(
                    identifier=DEFAULT_STATEMENT_ID,
                    predicate=remainder,
                    path=any_path(),
                )
            )
            added_default = True

    processed = Policy(statements=tuple(statements), formula=policy.formula)
    return PreprocessResult(
        policy=processed,
        rewritten_statements=tuple(rewritten),
        added_default=added_default,
    )


def _apply_priority(
    statements: Sequence[Statement],
) -> Tuple[List[Statement], List[str]]:
    """First-match-wins rewriting: subtract earlier predicates from later ones."""
    result: List[Statement] = []
    rewritten: List[str] = []
    earlier: List[Predicate] = []
    for statement in statements:
        if earlier:
            narrowed = pred_and(
                statement.predicate, pred_not(pred_or(*earlier))
            )
        else:
            narrowed = statement.predicate
        if narrowed is not statement.predicate:
            rewritten.append(statement.identifier)
        if not is_satisfiable(narrowed):
            raise PolicyError(
                f"statement {statement.identifier!r} is completely shadowed by "
                "earlier statements"
            )
        result.append(
            Statement(
                identifier=statement.identifier,
                predicate=narrowed,
                path=statement.path,
            )
        )
        earlier.append(statement.predicate)
    return result, rewritten
