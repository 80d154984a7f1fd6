"""The incremental re-provisioning engine (delta compilation).

:class:`IncrementalProvisioner` owns the *session state* of a changing
statement population — one :class:`~repro.incremental.solve.StatementRecord`
per statement of the compiled policy, best-effort and guaranteed alike, in
one dict (:attr:`IncrementalProvisioner.records`), never a live MIP.  The
compiler keeps no per-statement state of its own: it hands each mutator
the record fields it derives (endpoints, footprint, best-effort path) and
reads the records back in stamp order.

* :meth:`add_statement` enters a statement; a guaranteed one brings its
  product graph and gets a fresh token,
* :meth:`remove_statement` drops the record,
* :meth:`update_rates` swaps in a record with the new rates — under a new
  token when the guarantee changed; a promotion brings a product graph, a
  demotion drops it,
* :meth:`replace_logical` swaps in a statement's product graph (or
  best-effort path) on a new topology.

Each is pure bookkeeping: one journaled write to the dict, no model
splicing, no pass over live constraint rows.  No model outlives a solve:
the only models ever built are the component models of a
:meth:`resolve`, each from the records of its members — the records that
carry a token — through the one canonical constructor
(:func:`~repro.core.provisioning.build_model_for_links`).

:meth:`resolve` re-provisions: the active statements are partitioned into
link-disjoint components (union-find over *tightened* logical link
footprints), components whose members are unchanged since an earlier solve
re-use their memoized
:class:`~repro.incremental.solve.PartitionSolution` verbatim, and only the
*dirty* components are rebuilt (in canonical order) and re-solved, one
after another in the calling process, each from its model alone: no
incumbent is carried from one solve to the next, so an exactly tied
optimum is decided by the model and never by what the session solved
before.  A full compile is the same thing with every component dirty:
``MerlinCompiler.compile`` adds its statements to a fresh engine and
resolves once, so a delta history and a from-scratch run meet in the same
canonical component models by construction.  With ``options.partition``
off the same loop runs over one component — every statement, untightened,
over every link, in the same canonical order — so the answer is as
independent of the session's history as any other component's, and
memoized the same way.

Transactions
------------
A transaction is one mark in the engine's **undo journal**
(:attr:`IncrementalProvisioner.journal`, which the compiler's session
writes its own state through as well): every mutator
(:meth:`add_statement` / :meth:`remove_statement` / :meth:`update_rates` /
:meth:`replace_logical` / :meth:`set_topology`) records the inverse of the
one record it swaps, so ``journal.mark()`` marks a journal position and
copies nothing, ``journal.rollback(mark)`` replays O(delta) undo entries,
and ``journal.release(mark)`` (commit) truncates the journal.  The
transaction property tests capture the same fields by copying them
(``tests/incremental/test_journal.py::_engine_state``) and assert the
journal restores state byte-identical to the copies.

The solution memo needs no rollback.  Its keys are made of record tokens,
and the counter they come from is the one piece of engine state a rollback
does not rewind: a token is never issued twice, so an entry written inside
a failed transaction describes records that no longer exist and can simply
never be asked for again, while every entry about the reinstated records
is still true.  The tightened views need none either — they hang off the
record, so the journal puts them back with it.

:meth:`MerlinCompiler.recompile` wraps every delta in one transaction, so
a delta that fails — refused by a mutator half-way through, an infeasible
solve, a code-generation error — rolls the session back to its precise
pre-delta state instead of invalidating it.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, Mapping, Optional

from .. import telemetry
from ..core.ast import Statement
from ..core.localization import LocalRates
from ..core.logical import LogicalTopology
from ..core.options import ProvisionOptions
from ..core.provisioning import (
    _MBPS,
    PathSelectionHeuristic,
    ProvisioningResult,
)
from ..errors import ProvisioningError
from ..topology.graph import Topology
from ..units import Bandwidth
from .journal import UndoJournal
from .partition import LinkKey
from .solve import (
    MemoKey,
    PartitionSolution,
    StatementRecord,
    View,
    merge_partition_solutions,
    solve_components_with_widening,
    topology_capacities_mbps,
)


class IncrementalProvisioner:
    """A provisioning session of per-statement records: add/remove/update + resolve.

    Everything about *how* to solve comes from ``options`` (``None`` means
    the :class:`~repro.core.options.ProvisionOptions` defaults):
    ``footprint_slack`` is the cost-bound tightening applied to each
    statement's logical topology (extra physical hops over its optimum;
    ``None`` disables tightening); ``component_cache`` is owned by the
    caller (typically the control plane) — the engine only looks up and
    stores through it.  Every dirty component is solved in this process.
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
        #: The names of the topology the engine was made on.  They decide
        #: which path-expression symbols are functions for good: a
        #: degraded topology handed to :meth:`set_topology` lacks the
        #: failed elements, whose names stay locations (they match nothing).
        self.locations = frozenset(topology.locations())
        self.placements = dict(placements or {})
        self.heuristic = heuristic
        self.options = options
        self.solver = options.backend()
        # Tightening exists to keep components apart; with partitioning
        # off there is one component whatever the footprints, so the MIP
        # sees every statement's whole product graph.
        self.footprint_slack = options.footprint_slack if options.partition else None

        self._capacity_mbps = topology_capacities_mbps(topology)
        #: The per-statement state of the session, all of it: one
        #: :class:`StatementRecord` per statement, best-effort ones
        #: included, keyed by identifier and swapped whole through the
        #: journal by the mutators below.
        self.records: Dict[str, StatementRecord] = {}
        #: Insertion stamps and record tokens, drawn from one counter.
        #: Never rewound, not even by a rollback: that is what lets the
        #: memo below outlive any transaction unharmed, and a stamp spent
        #: inside a failed transaction leaves the surviving order as it was.
        self._serials = itertools.count(1)
        #: Component solutions (and proven-infeasible rungs) by member
        #: tokens; read, written and bounded by the solve loop.
        self._memo: Dict[MemoKey, object] = {}
        #: What the last merge derived from each of its component solutions
        #: (paths, reservations), rewritten by every merge.  No rollback:
        #: a part is reused only while its content matches.
        self._merged: Dict[PartitionSolution, object] = {}

        #: The undo journal behind O(1) checkpoints; mutators record
        #: inverse operations here whenever a transaction is open.
        self.journal = UndoJournal()

    # -- delta operations ---------------------------------------------------------
    #
    # Each mutator is one journaled write to ``records`` (bookkeeping only:
    # no model is built or spliced).  ``fields`` are the record fields the
    # compiler derives (endpoints, generated, footprint, best_effort,
    # infeasible), stored as given.

    def _record(self, identifier: str) -> StatementRecord:
        record = self.records.get(identifier)
        if record is None:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        return record

    def _put(self, record: StatementRecord) -> None:
        self.journal.set_item(self.records, record.identifier, record)

    def _token(
        self, rates: LocalRates, logical: Optional[LogicalTopology]
    ) -> Optional[int]:
        """A fresh token for a record entering the MIP with ``logical``
        (``None`` for a best-effort record), once the engine has checked
        that it can: a guarantee needs a product graph with a path, and a
        product graph needs a positive guarantee."""
        identifier = rates.identifier
        if logical is None and not rates.is_guaranteed:
            return None
        if logical is None:
            problem = "needs its product graph to enter the provisioning MIP"
        elif not rates.is_guaranteed:
            problem = (
                "needs a positive bandwidth guarantee to enter the "
                "provisioning MIP"
            )
        elif logical.num_edges() == 0:
            problem = "has no feasible path satisfying its path expression"
        else:
            return next(self._serials)
        raise ProvisioningError(f"statement {identifier!r} {problem}")

    def add_statement(
        self,
        statement: Statement,
        guarantee: Optional[Bandwidth],
        cap: Optional[Bandwidth] = None,
        logical: Optional[LogicalTopology] = None,
        **fields,
    ) -> None:
        """Enter a statement: a guaranteed one with the product graph its
        caller built (cut to its cost-bounded views when a resolve first
        asks for them), a best-effort one with none."""
        identifier = statement.identifier
        if identifier in self.records:
            raise ProvisioningError(
                f"statement {identifier!r} is already in the session; remove "
                "it first or use update_rates"
            )
        rates = LocalRates(identifier=identifier, guarantee=guarantee, cap=cap)
        self._put(
            StatementRecord(
                statement,
                rates,
                next(self._serials),
                logical=logical,
                token=self._token(rates, logical),
                **fields,
            )
        )

    def remove_statement(self, identifier: str) -> None:
        """Forget a statement."""
        self._record(identifier)
        self.journal.del_item(self.records, identifier)

    def update_rates(
        self,
        identifier: str,
        guarantee: Optional[Bandwidth],
        cap: Optional[Bandwidth] = None,
        logical: Optional[LogicalTopology] = None,
        **fields,
    ) -> None:
        """Rewrite a statement's rates.

        A guaranteed statement keeps its product graph and views, and its
        token unless the guarantee changed: the cap never enters the
        provisioning MIP, so a cap-only change leaves its component clean.
        A promoted statement hands over its product graph in ``logical``
        and starts without views; a demoted one leaves the MIP, dropping
        its graph, token and views.
        """
        previous = self._record(identifier)
        rates = LocalRates(identifier=identifier, guarantee=guarantee, cap=cap)
        views: Dict[Optional[int], View] = {}
        if previous.token is None or not rates.is_guaranteed:
            token = self._token(rates, logical)
        else:
            logical, views = previous.logical, previous.views
            token = (
                previous.token
                if previous.rates.guarantee.bps_value == guarantee.bps_value
                else next(self._serials)
            )
        self._put(
            dataclasses.replace(
                previous,
                rates=rates,
                logical=logical,
                token=token,
                views=views,
                **fields,
            )
        )

    def replace_logical(
        self,
        identifier: str,
        logical: Optional[LogicalTopology] = None,
        **fields,
    ) -> None:
        """Swap a statement's product graph for one on a new topology.

        The compiler's topology-delta path calls this for every guaranteed
        statement whose product graph changed on the new active topology,
        and for every best-effort statement it searched again (``fields``
        then hold the new path).  A guaranteed record starts without views
        and under a fresh token (no memoized component solution, which
        could route over vanished links, names it).
        """
        previous = self._record(identifier)
        self._put(
            dataclasses.replace(
                previous,
                logical=logical,
                token=self._token(previous.rates, logical),
                views={},
                **fields,
            )
        )

    def set_topology(
        self, topology: Topology, links: Iterable[LinkKey]
    ) -> None:
        """Point the engine at a new (e.g. degraded) physical topology.

        ``links`` are the sorted name pairs of every link whose presence or
        capacity may differ from the current topology's: the capacity
        table is patched on those keys only.  Only the capacity map
        depends on the topology directly; per-statement logical
        topologies must be re-supplied by the caller via
        :meth:`replace_logical` where they changed.
        """
        capacities = topology.link_capacities()
        table = self._capacity_mbps
        journal = self.journal
        resized = False
        for key in links:
            capacity = capacities.get(key)
            if capacity is None:
                journal.del_item(table, key)
                continue
            mbps = capacity.bps_value / _MBPS
            known = table.get(key)
            if known != mbps:
                resized = resized or known is not None
                journal.set_item(table, key, mbps)
        if resized:
            # A memoized solution is a fact about its members' records and
            # the capacities of the links they can reach.  A link that
            # vanishes or returns changes the records of the statements
            # that can reach it; a link that merely changes capacity
            # changes no record, so every entry is suspect.  The rebind is
            # journaled: a rollback brings the old capacities back and the
            # memo that was true of them.
            journal.set_attr(self, "_memo", {})
        journal.set_attr(self, "topology", topology)

    # -- solving -------------------------------------------------------------------

    def resolve(self) -> ProvisioningResult:
        """Re-provision the guaranteed statements — the records that carry
        a token — re-solving only dirty components.

        The returned :class:`ProvisioningResult` is identical to what a
        fresh engine holding the same statements would produce;
        ``solve_statistics`` reports ``partitions_dirty`` /
        ``partitions_reused``.  With ``options.partition`` off the
        population is one untightened component.
        """
        records = {
            identifier: record
            for identifier, record in self.records.items()
            if record.token is not None
        }
        if not records:
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
        with telemetry.span("resolve", statements=len(records)) as resolve_span:
            outcome = solve_components_with_widening(
                records,
                self._capacity_mbps,
                self.heuristic,
                self._memo,
                solver=self.solver,
                footprint_slack=self.footprint_slack,
                partition=self.options.partition,
                component_cache=self.options.component_cache,
            )
            resolve_span.annotate(
                partitions=len(outcome.specs), dirty=outcome.solver_calls
            )

            result = merge_partition_solutions(
                outcome.solutions,
                records,
                self.topology,
                self.placements,
                self.locations,
                outcome.construction_seconds,
                outcome.solve_seconds,
                heuristic=self.heuristic,
                merged=self._merged,
            )
        result.solve_statistics["partitions_dirty"] = float(outcome.solver_calls)
        result.solve_statistics["partitions_reused"] = float(
            len(outcome.specs) - len(outcome.fresh)
        )
        # The merge sums node counts over every component it was handed,
        # memoized ones included; report only the nodes THIS resolve
        # searched (reused components were solved by an earlier call).
        if outcome.nodes is not None:
            result.solve_statistics["nodes"] = float(outcome.nodes)
        else:
            result.solve_statistics.pop("nodes", None)
        result.solve_statistics["slack_retries"] = float(outcome.slack_retries)
        result.solve_statistics["footprint_slack_used"] = outcome.slack_used(
            self.footprint_slack
        )
        return result
