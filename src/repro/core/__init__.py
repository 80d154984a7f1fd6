"""The Merlin policy language and compiler — the paper's primary contribution.

The public entry points are:

* :func:`repro.core.parser.parse_policy` — parse Merlin policy source
  (including the set/``foreach`` syntactic sugar) into a :class:`Policy`,
* :class:`repro.core.compiler.MerlinCompiler` / :func:`compile_policy` —
  compile a policy against a topology and a function-placement mapping into
  paths, bandwidth allocations, and per-device instructions,
* the AST types in :mod:`repro.core.ast` for building policies
  programmatically.
"""

from .ast import (
    FAnd,
    FNot,
    FOr,
    Formula,
    FMax,
    FMin,
    FTrue,
    BandwidthTerm,
    Policy,
    Statement,
)
from .allocation import CompilationResult, PathAssignment, RateAllocation
from .compiler import MerlinCompiler, compile_policy
from .localization import LocalRates, localize
from .logical import LogicalTopology, build_logical_topology
from .options import DEFAULT_FOOTPRINT_SLACK, MAX_WIDENED_SLACK, ProvisionOptions
from .parser import parse_policy
from .preprocessor import preprocess
from .provisioning import PathSelectionHeuristic
from .session import ProvisioningSession
from .sink_tree import SinkTree, compute_sink_tree, compute_sink_trees

__all__ = [
    "FAnd",
    "FNot",
    "FOr",
    "Formula",
    "FMax",
    "FMin",
    "FTrue",
    "BandwidthTerm",
    "Policy",
    "Statement",
    "CompilationResult",
    "PathAssignment",
    "RateAllocation",
    "MerlinCompiler",
    "compile_policy",
    "DEFAULT_FOOTPRINT_SLACK",
    "MAX_WIDENED_SLACK",
    "ProvisionOptions",
    "ProvisioningSession",
    "LocalRates",
    "localize",
    "LogicalTopology",
    "build_logical_topology",
    "parse_policy",
    "preprocess",
    "PathSelectionHeuristic",
    "SinkTree",
    "compute_sink_tree",
    "compute_sink_trees",
]
