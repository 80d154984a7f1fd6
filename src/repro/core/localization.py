"""Localization of bandwidth formulas (§3.1).

Aggregate Presburger terms such as ``max(x + y, 50MB/s)`` would require
distributed state to enforce exactly.  Merlin therefore rewrites each
aggregate clause into per-statement *local* clauses that collectively imply
the original: the rate is divided equally among the identifiers (the
running example's ``max(x + y, 50MB/s)`` becomes ``max(x, 25MB/s) and
max(y, 25MB/s)``).  The negotiators of §4 later adjust these static splits
at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import PolicyError
from ..units import Bandwidth
from .ast import (
    BandwidthTerm,
    FAnd,
    FMax,
    FMin,
    FNot,
    FOr,
    Formula,
    FTrue,
    Policy,
    formula_and,
    formula_clauses,
)


@dataclass
class LocalRates:
    """The localized bandwidth constraints of a single statement.

    ``guarantee`` is the statement's minimum reserved rate (``r_i_min`` in
    the MIP; ``None`` means best-effort).  ``cap`` is the statement's maximum
    rate (``None`` means it may burst to line rate).
    """

    identifier: str
    guarantee: Optional[Bandwidth] = None
    cap: Optional[Bandwidth] = None

    @property
    def is_guaranteed(self) -> bool:
        return self.guarantee is not None and self.guarantee.bps_value > 0

    def merge_cap(self, rate: Bandwidth) -> None:
        """Keep the most restrictive (smallest) cap."""
        if self.cap is None or rate < self.cap:
            self.cap = rate

    def merge_guarantee(self, rate: Bandwidth) -> None:
        """Keep the strongest (largest) guarantee."""
        if self.guarantee is None or rate > self.guarantee:
            self.guarantee = rate


def localize(policy: Policy) -> Dict[str, LocalRates]:
    """Localize the policy formula into per-statement rates, splitting
    every aggregate clause equally among its distinct identifiers (§3.1).

    Only conjunctions of ``max``/``min`` clauses can be enforced locally;
    ``or`` and ``!`` at the top level are rejected, mirroring the fragment
    the paper's compiler supports.
    """
    rates: Dict[str, LocalRates] = {
        statement.identifier: LocalRates(identifier=statement.identifier)
        for statement in policy.statements
    }
    for clause in formula_clauses(policy.formula):
        _localize_clause(clause, rates)
    return rates


def _localize_clause(clause: Formula, rates: Dict[str, LocalRates]) -> None:
    if isinstance(clause, FTrue):
        return
    if isinstance(clause, (FOr, FNot)):
        raise PolicyError(
            "bandwidth formulas with top-level 'or' or '!' cannot be localized; "
            "only conjunctions of max/min clauses are enforceable"
        )
    if isinstance(clause, FAnd):
        _localize_clause(clause.left, rates)
        _localize_clause(clause.right, rates)
        return
    if not isinstance(clause, (FMax, FMin)):
        raise PolicyError(f"unknown formula clause: {clause!r}")

    # ``x + x`` names one statement once.
    identifiers = list(dict.fromkeys(clause.term.identifiers))
    unknown = [name for name in identifiers if name not in rates]
    if unknown:
        raise PolicyError(
            f"formula references undefined statement identifiers: {unknown}"
        )
    if not identifiers:
        raise PolicyError(f"bandwidth clause {clause} names no statement")
    local_rate = clause.rate.split(len(identifiers))
    for identifier in identifiers:
        if isinstance(clause, FMax):
            rates[identifier].merge_cap(local_rate)
        else:
            rates[identifier].merge_guarantee(local_rate)


def local_clauses(local: LocalRates) -> Tuple[Formula, ...]:
    """One statement's localized clauses: a ``max`` for its cap and a
    ``min`` for its guarantee, each over the statement alone."""
    if local.cap is None and local.guarantee is None:
        return ()
    term = BandwidthTerm(identifiers=(local.identifier,))
    clauses: List[Formula] = []
    if local.cap is not None:
        clauses.append(FMax(term, local.cap))
    if local.guarantee is not None:
        clauses.append(FMin(term, local.guarantee))
    return tuple(clauses)


def localized_formula(clauses: Mapping[str, Sequence[Formula]]) -> Formula:
    """Rebuild a (localized) formula from each statement's
    :func:`local_clauses`, keyed by statement identifier.

    The result is the conjunction of every statement's clauses in
    identifier order, which by construction implies the original global
    formula.  Used when re-emitting recompiled and delegated policies.
    """
    return formula_and(
        *[clause for identifier in sorted(clauses) for clause in clauses[identifier]]
    )
