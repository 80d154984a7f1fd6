"""Packet-classification predicates.

Merlin statements classify packets with logical predicates built from header
field tests (``tcp.dst = 80``), conjunction, disjunction, and negation.  This
package provides:

* the predicate abstract syntax (:mod:`repro.predicates.ast`),
* a catalogue of supported header fields (:mod:`repro.predicates.fields`),
* a concrete-syntax parser (:mod:`repro.predicates.parser`),
* evaluation against packets (:mod:`repro.predicates.evaluator`),
* a satisfiability/disjointness/implication decision procedure
  (:mod:`repro.predicates.sat`) used by the pre-processor and the negotiator
  verification machinery (the paper uses Z3 for this), and
* the field tests a device match can express
  (:mod:`repro.predicates.transform`).
"""

from .ast import (
    And,
    FieldTest,
    Not,
    Or,
    PFalse,
    Predicate,
    PTrue,
    pred_and,
    pred_not,
    pred_or,
)
from .evaluator import matches
from .fields import FIELD_CATALOG, FieldSpec, normalize_value
from .parser import parse_predicate
from .sat import (
    equivalent,
    implies,
    is_disjoint,
    is_partition,
    is_satisfiable,
    pairwise_disjoint,
)

__all__ = [
    "And",
    "FieldTest",
    "Not",
    "Or",
    "PFalse",
    "PTrue",
    "Predicate",
    "pred_and",
    "pred_not",
    "pred_or",
    "matches",
    "FIELD_CATALOG",
    "FieldSpec",
    "normalize_value",
    "parse_predicate",
    "equivalent",
    "implies",
    "is_disjoint",
    "is_partition",
    "is_satisfiable",
    "pairwise_disjoint",
]
