"""Incremental re-provisioning: delta compilation with partitioned solves.

The paper's adaptation story (§4.3, Figure 10) is that run-time bandwidth
re-allocation is cheap because it avoids global recompilation.  This package
extends that property to changes that *do* need new paths: instead of
rebuilding and re-solving the whole provisioning MIP, an
:class:`IncrementalProvisioner` keeps a transactional, lazily-materialized
session of per-statement bookkeeping, partitions the statements into
link-disjoint components over cost-bound-tightened footprints, and
re-solves only the components a delta touched — in parallel, each from its
canonical model alone.  See ``README.md`` in this directory for the
session lifecycle (lazy materialization, checkpoints, commit/rollback,
partition invariants).

Layout:

* :mod:`repro.incremental.partition` — union-find decomposition of the MIP
  along shared physical links, plus footprint tightening,
* :mod:`repro.incremental.solve` — canonical component model construction,
  (optionally pooled) solving, and solution merging,
* :mod:`repro.incremental.engine` — the lazily-materialized engine every
  compile and every delta is provisioned by,
* :mod:`repro.incremental.delta` — :class:`PolicyDelta` and policy diffing
  for :meth:`MerlinCompiler.recompile` and the negotiator hierarchy,
* :mod:`repro.incremental.journal` — the undo journal behind O(1)
  checkpoints / O(delta) rollbacks (see the README's journal lifecycle
  section).
"""

from .delta import (
    DeltaStatement,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
    merge_policy_deltas,
    policy_delta,
)
from .engine import IncrementalProvisioner
from .journal import JournalError, JournalMark, UndoJournal
from .partition import (
    LinkKey,
    PartitionSpec,
    UnionFind,
    partition_statements,
    tighten_logical_topologies,
)
from .solve import (
    INFEASIBLE_COMPONENT,
    PartitionSolution,
    WideningOutcome,
    build_partition_model,
    merge_partition_solutions,
    solve_components_with_widening,
)

__all__ = [
    "DeltaStatement",
    "PolicyDelta",
    "RateUpdate",
    "TopologyDelta",
    "merge_policy_deltas",
    "policy_delta",
    "IncrementalProvisioner",
    "JournalError",
    "JournalMark",
    "UndoJournal",
    "tighten_logical_topologies",
    "LinkKey",
    "PartitionSpec",
    "UnionFind",
    "partition_statements",
    "INFEASIBLE_COMPONENT",
    "PartitionSolution",
    "WideningOutcome",
    "build_partition_model",
    "merge_partition_solutions",
    "solve_components_with_widening",
]
