"""Policy delegation (§4, §5).

"To delegate a policy, Merlin simply intersects the predicates and regular
expressions in each statement [of] the original policy to project out the
policy for the sub-network."  A tenant's scope is described by a predicate
(which packets the tenant controls) and, optionally, a path expression
restricting where the tenant's traffic may go.  Statements whose projection
is empty are dropped from the delegated policy; bandwidth clauses are
projected onto the surviving statement identifiers.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import DelegationError
from ..predicates.ast import Predicate, pred_and
from ..predicates.sat import is_satisfiable
from ..regex.ast import Regex
from ..regex.operations import intersection_empty
from ..core.ast import Policy, Statement, formula_and, formula_clauses


def delegate(
    policy: Policy,
    scope_predicate: Predicate,
    scope_path: Optional[Regex] = None,
) -> Policy:
    """Project ``policy`` onto a tenant scope.

    Each statement's predicate is intersected with ``scope_predicate``;
    statements whose intersection is unsatisfiable are dropped.  When a
    ``scope_path`` is given, statements whose path language does not
    intersect it are also dropped (their traffic cannot exist inside the
    tenant's part of the network).  The formula keeps only the clauses whose
    identifiers all survive the projection.
    """
    surviving: List[Statement] = []
    for statement in policy.statements:
        narrowed = pred_and(statement.predicate, scope_predicate)
        if not is_satisfiable(narrowed):
            continue
        if scope_path is not None and intersection_empty(statement.path, scope_path):
            continue
        surviving.append(
            Statement(
                identifier=statement.identifier,
                predicate=narrowed,
                path=statement.path,
            )
        )
    if not surviving:
        raise DelegationError(
            "delegation scope does not overlap any statement of the policy"
        )
    survivors = {statement.identifier for statement in surviving}
    clauses = [
        clause
        for clause in formula_clauses(policy.formula)
        if clause.identifiers() and clause.identifiers() <= survivors
    ]
    return Policy(statements=tuple(surviving), formula=formula_and(*clauses))
