"""The incremental re-provisioning engine (delta compilation).

:class:`IncrementalProvisioner` owns the *session state* of a changing
statement population — per-statement metadata only, never a live MIP:

* :meth:`add_statement` records a statement's (cost-bound-tightened) logical
  topology, rates, link footprint, and a fresh revision number,
* :meth:`remove_statement` forgets them (and prunes the statement's
  incumbent values),
* :meth:`update_rates` rewrites the statement's rates and bumps its
  revision.

All three are pure bookkeeping: O(statement) dictionary updates, no model
splicing, no pass over live constraint rows.  The fully-spliced global
model — historically maintained eagerly, putting O(total logical edges)
splice work on every session setup and removal — is now *lazily
materialized*: only :meth:`solve_live` (and the ``live_model`` /
``num_live_*`` introspection properties) builds it, on demand, from the
same bookkeeping dicts, via the exact canonical constructor
(:func:`~repro.core.provisioning.build_model_for_links`) the component
models use.  ``live_materializations`` counts those builds so tests can assert
the delta path never pays for one.

:meth:`resolve` re-provisions: the active statements are partitioned into
link-disjoint components (union-find over *tightened* logical link
footprints), components whose membership and rates are unchanged since the
previous solve re-use their cached
:class:`~repro.incremental.solve.PartitionSolution` verbatim, and only the
*dirty* components are rebuilt (in canonical order) and re-solved —
concurrently in a process pool when several are dirty, each warm-started
from the previous incumbent projected onto its surviving variables.  A
full compile is the same thing with every component dirty:
``MerlinCompiler.compile`` and ``core.provisioning.provision`` add their
statements to a fresh engine and resolve once, so a delta history and a
from-scratch run meet in the same canonical component models by
construction.  With ``options.partition`` off, :meth:`resolve` instead
solves the one monolithic untightened model every time
(:func:`~repro.core.provisioning.solve_monolithic`).

Warm-started re-solves pick the same optima as cold ones: provisioning
models declare their tiebreaker epsilon as ``objective_resolution`` and the
branch-and-bound backend scales its pruning gap below it, so a seeded
incumbent can never shadow the marginally-cheaper-tiebreaker tie a cold
solve would return.

Transactions
------------
Transactions are an **undo journal**, not a shadow copy: every mutator
(:meth:`add_statement` / :meth:`remove_statement` / :meth:`update_rates` /
:meth:`replace_logical` / :meth:`set_topology`) records inverse operations
for exactly the entries it touches, so :meth:`checkpoint` is O(1) — it
marks a journal position (plus a bounded snapshot of the LRU solution
cache, see below) — :meth:`restore` replays O(delta) undo entries, and
:meth:`release` (commit) truncates the journal.  The transaction property
tests capture the same fields by copying them
(``tests/incremental/test_journal.py::_engine_state``) and assert the
journal restores state byte-identical to the copies.

The one piece *not* journaled is the component-solution cache.  Revision
numbers are re-issued after a rollback, so a solution cached inside a
failed transaction could later collide with an identical-looking
signature from a different population — the cache must be restored
*exactly*, including LRU order.  Since it is bounded by
``options.cache_limit`` (default 512) independent of population size,
each checkpoint snapshots it outright: O(cache_limit), not
O(population).

:meth:`MerlinCompiler.recompile` wraps every delta in one transaction, so
a delta that fails *after* validation — an infeasible solve, a
code-generation error — rolls the session back to its precise pre-delta
state instead of invalidating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..core.ast import Statement
from ..core.localization import LocalRates
from ..core.logical import (
    LogicalTopology,
    build_logical_topology,
    infer_endpoints,
    prune_to_cost_bound,
)
from ..core.options import ProvisionOptions
from ..core.provisioning import (
    PathSelectionHeuristic,
    ProvisioningModel,
    ProvisioningResult,
    build_model_for_links,
    solve_monolithic,
)
from ..errors import ProvisioningError
from ..topology.graph import Topology
from ..units import Bandwidth
from .journal import JournalMark, UndoJournal
from .partition import PartitionSpec
from .solve import (
    INFEASIBLE_COMPONENT,
    merge_partition_solutions,
    record_widening_statistics,
    solve_components_with_widening,
    topology_capacities_mbps,
)

#: A partition's cache key: heuristic, each member's (id, revision), and
#: each member's footprint slack (the same members at a different widening
#: level are a different model).
Signature = Tuple[str, Tuple[Tuple[str, int], ...], Tuple[Optional[int], ...]]


@dataclass(frozen=True)
class EngineMark:
    """An O(1) transaction token: a journal position + cache snapshot.

    ``mark`` names the undo-journal position to rewind to; ``cache`` is
    the bounded (``cache_limit``-capped, population-independent) snapshot
    of the component-solution cache, restored outright on rollback —
    see the module docstring for why the cache cannot be journaled.
    """

    mark: JournalMark
    cache: Dict[Signature, object]


class IncrementalProvisioner:
    """A lazily-materialized provisioning session: add/remove/update + resolve.

    Everything about *how* to solve comes from ``options`` (``None`` means
    the :class:`~repro.core.options.ProvisionOptions` defaults):
    ``max_workers`` > 1 enables the process pool for multi-component
    re-solves (0, the default, solves dirty components in-process, the
    right choice for the common single-component delta);
    ``footprint_slack`` is the cost-bound tightening applied to each
    statement's logical topology (extra physical hops over its optimum;
    ``None`` disables tightening); ``fabric`` and ``component_cache`` are
    owned by the caller (typically the control plane) — the engine only
    routes work through them.
    """

    def __init__(
        self,
        topology: Topology,
        placements: Optional[Mapping[str, Iterable[str]]] = None,
        heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
        options: Optional[ProvisionOptions] = None,
    ) -> None:
        options = options if options is not None else ProvisionOptions()
        self.topology = topology
        self.placements = dict(placements or {})
        self.heuristic = heuristic
        self.options = options
        self.solver = options.backend()
        self.footprint_slack = options.footprint_slack

        #: Session-persistent cost-bound tightening memo, shaped
        #: ``{sid: {slack: (base, tightened, footprint)}}`` and handed to
        #: every ``solve_components_with_widening`` call so tightening work
        #: survives across recompiles instead of being rebuilt per delta.
        #: Deliberately unjournaled: entries self-invalidate by identity
        #: against the *current* untightened topology (a rollback that
        #: restores an older ``_logical_full`` object simply misses), so a
        #: stale entry can cost a recompute but never a wrong footprint.
        #: Mutators that reshape a statement drop its entries outright to
        #: bound memory (O(1) per-sid pop, keyed by statement).
        self._tighten_cache: Dict[str, Dict[Optional[int], tuple]] = {}

        self._capacity_mbps = topology_capacities_mbps(topology)
        self._statements: Dict[str, Statement] = {}
        #: Tightened (cost-bounded) logical topologies — what partitioning,
        #: the component models, and the lazy live model are all built from.
        self._logical: Dict[str, LogicalTopology] = {}
        #: The *untightened* product graphs, kept alongside: slack widening
        #: re-tightens from these at wider bounds, and incumbent pruning on
        #: removal must cover the widest variable range ever emitted.
        self._logical_full: Dict[str, LogicalTopology] = {}
        self._rates: Dict[str, LocalRates] = {}
        # Per-statement link footprint, computed once at add time: logical
        # topologies are immutable, and re-walking every statement's edges
        # on each resolve would put O(total logical edges) back on the
        # latency path this engine exists to shrink.
        self._footprints: Dict[str, frozenset] = {}
        self._revisions: Dict[str, int] = {}
        self._next_revision = 1

        self._cache: Dict[Signature, object] = {}
        self._last_values: Dict[str, float] = {}

        #: The undo journal behind O(1) checkpoints; mutators record
        #: inverse operations here whenever a transaction is open.
        self._journal = UndoJournal()

        # --- the lazily-materialized live model --------------------------------
        self._live: Optional[ProvisioningModel] = None
        self._live_signature: Optional[Signature] = None
        #: How many times the spliced global model was actually built; the
        #: delta path must never increment it (counter/spy for tests).
        self.live_materializations = 0

    # -- introspection -----------------------------------------------------------

    def statement_ids(self) -> List[str]:
        return list(self._statements)

    def has_statement(self, identifier: str) -> bool:
        return identifier in self._statements

    def rates_for(self, identifier: str) -> LocalRates:
        return self._rates[identifier]

    def logical_for(self, identifier: str) -> LogicalTopology:
        """The statement's *tightened* logical topology (the MIP's view)."""
        return self._logical[identifier]

    @property
    def live_model(self):
        """The spliced global model, materialized on demand (and memoized
        until the next delta)."""
        return self._materialize_live().model

    def num_live_variables(self) -> int:
        return self._materialize_live().model.num_variables()

    def num_live_constraints(self) -> int:
        return self._materialize_live().model.num_constraints()

    # -- transactions -------------------------------------------------------------

    def checkpoint(self) -> EngineMark:
        """Open a transaction: O(1) journal mark + bounded cache snapshot.

        Rolling back via :meth:`restore` replays only the undo entries the
        transaction recorded (O(delta)); committing via :meth:`release`
        truncates them.  Marks are stacked: rolling back to an earlier
        mark invalidates later ones.
        """
        return EngineMark(mark=self._journal.mark(), cache=dict(self._cache))

    def restore(self, saved: EngineMark) -> None:
        """Reinstate a :meth:`checkpoint` exactly.

        Replays the undo journal back to the mark and reinstates the cache
        snapshot — O(changes since the checkpoint), not O(population).
        """
        self._journal.rollback(saved.mark)
        self._cache = dict(saved.cache)
        # Drop the memoized live model: rollback rewinds the revision
        # counter, so a post-rollback delta re-issues revision numbers and
        # a model materialized *inside* the failed transaction could
        # otherwise collide with the new population's signature.
        self._live = None
        self._live_signature = None

    def release(self, saved: EngineMark) -> None:
        """Commit a transaction opened by :meth:`checkpoint`.

        Drops the journal mark and truncates undo entries no outstanding
        mark can reach.
        """
        self._journal.release(saved.mark)

    # -- delta operations ---------------------------------------------------------

    def add_statement(
        self,
        statement: Statement,
        guarantee: Bandwidth,
        cap: Optional[Bandwidth] = None,
        logical: Optional[LogicalTopology] = None,
    ) -> None:
        """Enter a guaranteed statement into the session (bookkeeping only).

        ``logical`` may be supplied when the caller already built the
        statement's product graph (the compiler's memoized pipeline does);
        otherwise it is constructed here from the statement's inferred
        endpoints.  Either way it is tightened to its cost-bounded subgraph
        before being stored.  No model is built or spliced.
        """
        identifier = statement.identifier
        if identifier in self._statements:
            raise ProvisioningError(
                f"statement {identifier!r} is already provisioned; remove it "
                "first or use update_rates"
            )
        if guarantee is None or guarantee.bps_value <= 0:
            raise ProvisioningError(
                f"statement {identifier!r} needs a positive bandwidth "
                "guarantee to enter the provisioning MIP"
            )
        if logical is None:
            source, destination = infer_endpoints(statement, self.topology)
            if source is None or destination is None:
                raise ProvisioningError(
                    f"statement {identifier!r} requests a bandwidth guarantee "
                    "but its source/destination hosts cannot be determined"
                )
            logical = build_logical_topology(
                statement,
                self.topology,
                self.placements,
                source=source,
                destination=destination,
            )
        if logical.num_edges() == 0:
            raise ProvisioningError(
                f"statement {identifier!r} has no feasible path satisfying "
                "its path expression"
            )
        full = logical
        if self.footprint_slack is not None:
            logical = prune_to_cost_bound(logical, self.footprint_slack)

        journal = self._journal
        journal.set_item(self._statements, identifier, statement)
        journal.set_item(self._logical, identifier, logical)
        journal.set_item(self._logical_full, identifier, full)
        journal.set_item(
            self._footprints, identifier, frozenset(logical.physical_links_used())
        )
        journal.set_item(
            self._rates,
            identifier,
            LocalRates(identifier=identifier, guarantee=guarantee, cap=cap),
        )
        journal.set_item(self._revisions, identifier, self._bump_revision())

    def remove_statement(self, identifier: str) -> None:
        """Forget a statement (bookkeeping only — no rows to splice out)."""
        if identifier not in self._statements:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        self._prune_incumbents(identifier)
        self._tighten_cache.pop(identifier, None)
        journal = self._journal
        journal.del_item(self._statements, identifier)
        journal.del_item(self._logical, identifier)
        journal.del_item(self._logical_full, identifier)
        journal.del_item(self._footprints, identifier)
        journal.del_item(self._rates, identifier)
        journal.del_item(self._revisions, identifier)

    def _prune_incumbents(self, identifier: str) -> None:
        """Drop a statement's incumbent values (on removal or reshaping).

        A later re-add under the same identifier reuses variable names, and
        a projection built from a different logical topology must not
        masquerade as a warm start (pruning also keeps the incumbent map
        from growing without bound).  Variable names are deterministic —
        x__{id}__{edge index}, the format splice_statement_rows emits; its
        docstring cross-references this dependency — so the pruning costs
        O(statement edges), not a pass over the whole model.  The range is
        the *untightened* edge count: widened component models emit
        variables beyond the base-tightened range.
        """
        for index in range(self._logical_full[identifier].num_edges()):
            self._journal.del_item(self._last_values, f"x__{identifier}__{index}")

    def replace_logical(self, identifier: str, logical: LogicalTopology) -> None:
        """Swap a statement's (untightened) product graph for a new one.

        The compiler's topology-delta path calls this for every statement
        whose product graph changed on the new active topology: the
        tightened view and link footprint are recomputed, the statement's
        revision is bumped (invalidating cached component solutions that
        could route over vanished links), and stale incumbents over the old
        edge indexing are pruned.
        """
        if identifier not in self._statements:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        if logical.num_edges() == 0:
            raise ProvisioningError(
                f"statement {identifier!r} has no feasible path satisfying "
                "its path expression"
            )
        self._prune_incumbents(identifier)
        self._tighten_cache.pop(identifier, None)
        journal = self._journal
        journal.set_item(self._logical_full, identifier, logical)
        tightened = (
            logical
            if self.footprint_slack is None
            else prune_to_cost_bound(logical, self.footprint_slack)
        )
        journal.set_item(self._logical, identifier, tightened)
        journal.set_item(
            self._footprints, identifier, frozenset(tightened.physical_links_used())
        )
        journal.set_item(self._revisions, identifier, self._bump_revision())

    def set_topology(self, topology: Topology) -> None:
        """Point the engine at a new (e.g. degraded) physical topology.

        Only the capacity map and the memoized live model depend on it
        directly; per-statement logical topologies must be re-supplied by
        the caller via :meth:`replace_logical` where they changed.
        """
        self._journal.set_attr(self, "topology", topology)
        self._journal.set_attr(
            self, "_capacity_mbps", topology_capacities_mbps(topology)
        )
        self._live = None
        self._live_signature = None

    def update_rates(
        self,
        identifier: str,
        guarantee: Bandwidth,
        cap: Optional[Bandwidth] = None,
    ) -> None:
        """Rewrite a statement's rates (bookkeeping only)."""
        if identifier not in self._statements:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        if guarantee is None or guarantee.bps_value <= 0:
            raise ProvisioningError(
                f"statement {identifier!r} needs a positive guarantee; remove "
                "it instead to make it best-effort"
            )
        previous = self._rates[identifier].guarantee
        self._journal.set_item(
            self._rates,
            identifier,
            LocalRates(identifier=identifier, guarantee=guarantee, cap=cap),
        )
        if previous is not None and previous.bps_value == guarantee.bps_value:
            # Cap-only change: the cap never enters the provisioning MIP, so
            # the statement's partition stays clean (its cached solution and
            # the memoized live model remain valid).
            return
        self._journal.set_item(self._revisions, identifier, self._bump_revision())

    def _bump_revision(self) -> int:
        revision = self._next_revision
        self._journal.set_attr(self, "_next_revision", revision + 1)
        return revision

    # -- solving -------------------------------------------------------------------

    def _signature_for(
        self,
        statement_ids: Tuple[str, ...],
        member_slacks: Tuple[Optional[int], ...],
    ) -> Signature:
        return (
            self.heuristic.value,
            tuple((sid, self._revisions[sid]) for sid in statement_ids),
            member_slacks,
        )

    def resolve(self) -> ProvisioningResult:
        """Re-provision the active statements, re-solving only dirty components.

        The returned :class:`ProvisioningResult` is identical to what a
        fresh engine holding the same statements would produce;
        ``solve_statistics`` reports ``partitions_dirty`` /
        ``partitions_reused``.  With ``options.partition`` off there is
        nothing to reuse: the monolithic untightened model is solved
        whole, statements in session order.
        """
        if not self._statements:
            return ProvisioningResult(
                paths={},
                link_reservations={},
                max_utilization=0.0,
                max_reservation=Bandwidth(0.0),
                lp_construction_seconds=0.0,
                lp_solve_seconds=0.0,
                num_variables=0,
                num_constraints=0,
            )
        if not self.options.partition:
            return solve_monolithic(
                list(self._statements.values()),
                self._logical_full,
                self._rates,
                self.topology,
                self.placements,
                self.heuristic,
                self.solver,
            )

        def lookup(spec: PartitionSpec, slacks: Tuple[Optional[int], ...]):
            found = self._cache.get(
                self._signature_for(spec.statement_ids, slacks)
            )
            if found is None:
                telemetry.counter("component_cache_misses")
            elif found is INFEASIBLE_COMPONENT:
                telemetry.counter("component_cache_infeasible_hits")
            else:
                telemetry.counter("component_cache_hits")
            return found

        warm_values = (
            self._last_values if self.options.warm_start != "off" else None
        )
        with telemetry.span(
            "resolve", statements=len(self._statements)
        ) as resolve_span:
            outcome = solve_components_with_widening(
                self._statements,
                self._logical_full,
                self._rates,
                self._capacity_mbps,
                self.heuristic,
                solver=self.solver,
                max_workers=self.options.max_workers,
                footprint_slack=self.footprint_slack,
                widen=self.options.widen_slack,
                base_tightened=self._logical,
                warm_values=warm_values,
                lookup=lookup,
                tighten_cache=self._tighten_cache,
                component_cache=self.options.component_cache,
                fabric=self.options.fabric,
            )
            resolve_span.annotate(
                partitions=len(outcome.specs), dirty=outcome.solver_calls
            )

            result = merge_partition_solutions(
                outcome.solutions,
                self._statements,
                self._rates,
                self.topology,
                self.placements,
                outcome.construction_seconds,
                outcome.solve_seconds,
                heuristic=self.heuristic,
            )
        result.solve_statistics["partitions_dirty"] = float(outcome.solver_calls)
        result.solve_statistics["partitions_reused"] = float(
            len(outcome.specs) - len(outcome.fresh)
        )
        # The merge sums work diagnostics over every component it was
        # handed, cached ones included; report only the work THIS resolve
        # performed (reused components were solved by an earlier call).
        result.solve_statistics["solve_cpu_seconds"] = float(
            outcome.solve_cpu_seconds
        )
        if outcome.nodes is not None:
            result.solve_statistics["nodes"] = float(outcome.nodes)
        else:
            result.solve_statistics.pop("nodes", None)
        record_widening_statistics(result, outcome, self.footprint_slack)

        # Retain previous entries (bounded, LRU): oscillating deltas — add
        # then revert, AIMD up/down — bring back signatures solved a resolve
        # or two ago, and those must be cache hits, not re-solves.  Markers
        # for rungs proven infeasible on the way up the ladder are cached
        # too, so the next resolve of the same population skips them.
        for spec, solution in zip(outcome.specs, outcome.solutions):
            slacks = solution.member_slacks or tuple(
                self.footprint_slack for _ in spec.statement_ids
            )
            signature = self._signature_for(spec.statement_ids, slacks)
            self._cache.pop(signature, None)
            self._cache[signature] = solution
        for key in outcome.infeasible_keys:
            self._cache[self._signature_for(*key)] = INFEASIBLE_COMPONENT
        while len(self._cache) > self.options.cache_limit:
            self._cache.pop(next(iter(self._cache)))
        # Content-cache adoptions carry incumbent values this session has
        # never seen; they seed warm starts exactly like fresh solves.
        for solution in (*outcome.fresh, *outcome.adopted):
            self._journal.update_items(self._last_values, solution.values_by_name)
        return result

    # -- the live model as a (lazily built) solvable artifact ------------------------

    def _population_signature(self) -> Signature:
        return (
            self.heuristic.value,
            tuple(sorted(self._revisions.items())),
        )

    def _materialize_live(self) -> ProvisioningModel:
        """Build (or reuse) the fully-spliced global model.

        Constructed from the same bookkeeping dicts ``resolve()`` reads,
        through the same canonical constructor the component models use, so it
        is coefficient-identical to a from-scratch
        :func:`~repro.core.provisioning.build_provisioning_model` of the
        current statements over the whole topology.  Memoized on the
        population signature: repeated solves without intervening deltas
        reuse the build, any delta invalidates it implicitly, and
        :meth:`restore` drops it explicitly (revision numbers are re-issued
        after a rollback, so signatures alone could not be trusted).
        """
        signature = self._population_signature()
        if self._live is None or self._live_signature != signature:
            self.live_materializations += 1
            self._live = build_model_for_links(
                list(self._statements.values()),
                self._logical,
                self._rates,
                list(self._capacity_mbps.items()),
                heuristic=self.heuristic,
            )
            self._live_signature = signature
        return self._live

    def solve_live(self, solver=None):
        """Solve the lazily-built global model directly (no partitioning,
        no cache).

        Exists as a correctness escape hatch and as the splice-equivalence
        oracle for the test suite; :meth:`resolve` is the fast path.  This
        is the only place the spliced model's construction cost is paid.
        """
        return self._materialize_live().model.solve(solver or self.solver)
