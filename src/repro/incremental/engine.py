"""The incremental re-provisioning engine (delta compilation).

:class:`IncrementalProvisioner` owns the *session state* of a changing
statement population — one :class:`~repro.incremental.solve.StatementRecord`
per statement, never a live MIP:

* :meth:`add_statement` records a statement's product graph and rates
  under a fresh token,
* :meth:`remove_statement` drops the record,
* :meth:`update_rates` swaps in a record with the new rates — under a new
  token when the guarantee changed.

All three are pure bookkeeping: one dictionary entry, no model splicing,
no pass over live constraint rows.  No model outlives a solve: the only
models ever built are the component models of a :meth:`resolve`, each
from the records of its members through the one canonical constructor
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
and the token counter is the one piece of engine state a rollback does not
rewind: a token is never issued twice, so an entry written inside a failed
transaction describes records that no longer exist and can simply never
be asked for again, while every entry about the reinstated records is
still true.  The tightened views need none either — they hang off the
record, so the journal puts them back with it.

:meth:`MerlinCompiler.recompile` wraps every delta in one transaction, so
a delta that fails — refused by a mutator half-way through, an infeasible
solve, a code-generation error — rolls the session back to its precise
pre-delta state instead of invalidating it.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Mapping, Optional

from .. import telemetry
from ..core.ast import Statement
from ..core.localization import LocalRates
from ..core.logical import (
    LogicalTopology,
    build_logical_topology,
    infer_endpoints,
)
from ..core.options import ProvisionOptions
from ..core.provisioning import (
    PathSelectionHeuristic,
    ProvisioningResult,
)
from ..errors import ProvisioningError
from ..topology.graph import Topology
from ..units import Bandwidth
from .journal import UndoJournal
from .solve import (
    MemoKey,
    StatementRecord,
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
        self.placements = dict(placements or {})
        self.heuristic = heuristic
        self.options = options
        self.solver = options.backend()
        # Tightening exists to keep components apart; with partitioning
        # off there is one component whatever the footprints, so the MIP
        # sees every statement's whole product graph.
        self.footprint_slack = options.footprint_slack if options.partition else None

        self._capacity_mbps = topology_capacities_mbps(topology)
        #: The per-statement state, all of it: mutators swap whole records
        #: through the journal and nothing else is kept per statement.
        self._records: Dict[str, StatementRecord] = {}
        #: Record tokens.  Never rewound, not even by a rollback: that is
        #: what lets the memo below outlive any transaction unharmed.
        self._tokens = itertools.count(1)
        #: Component solutions (and proven-infeasible rungs) by member
        #: tokens; read, written and bounded by the solve loop.
        self._memo: Dict[MemoKey, object] = {}

        #: The undo journal behind O(1) checkpoints; mutators record
        #: inverse operations here whenever a transaction is open.
        self.journal = UndoJournal()

    # -- introspection -----------------------------------------------------------

    def statement_ids(self) -> List[str]:
        return list(self._records)

    def has_statement(self, identifier: str) -> bool:
        return identifier in self._records

    def untightened_for(self, identifier: str) -> LogicalTopology:
        """The statement's whole product graph, as it was entered."""
        return self._records[identifier].logical

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
        statement's product graph (the compiler always does);
        otherwise it is constructed here from the statement's inferred
        endpoints.  No model is built or spliced, and the graph is cut to
        its cost-bounded view when a resolve first asks for it.
        """
        identifier = statement.identifier
        if identifier in self._records:
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
        self.journal.set_item(
            self._records,
            identifier,
            StatementRecord(
                statement=statement,
                logical=logical,
                rates=LocalRates(identifier=identifier, guarantee=guarantee, cap=cap),
                token=next(self._tokens),
            ),
        )

    def remove_statement(self, identifier: str) -> None:
        """Forget a statement (bookkeeping only — no rows to splice out)."""
        if identifier not in self._records:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        self.journal.del_item(self._records, identifier)

    def replace_logical(self, identifier: str, logical: LogicalTopology) -> None:
        """Swap a statement's (untightened) product graph for a new one.

        The compiler's topology-delta path calls this for every statement
        whose product graph changed on the new active topology: the new
        record starts without views and under a fresh token (no memoized
        component solution, which could route over vanished links, names
        it).
        """
        if identifier not in self._records:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        if logical.num_edges() == 0:
            raise ProvisioningError(
                f"statement {identifier!r} has no feasible path satisfying "
                "its path expression"
            )
        previous = self._records[identifier]
        self.journal.set_item(
            self._records,
            identifier,
            StatementRecord(
                statement=previous.statement,
                logical=logical,
                rates=previous.rates,
                token=next(self._tokens),
            ),
        )

    def set_topology(self, topology: Topology) -> None:
        """Point the engine at a new (e.g. degraded) physical topology.

        Only the capacity map depends on it directly; per-statement logical
        topologies must be re-supplied by the caller via
        :meth:`replace_logical` where they changed.
        """
        capacities = topology_capacities_mbps(topology)
        journal = self.journal
        if any(
            capacities.get(key, mbps) != mbps
            for key, mbps in self._capacity_mbps.items()
        ):
            # A memoized solution is a fact about its members' records and
            # the capacities of the links they can reach.  A link that
            # vanishes or returns changes the records of the statements
            # that can reach it; a link that merely changes capacity
            # changes no record, so every entry is suspect.  The rebind is
            # journaled: a rollback brings the old capacities back and the
            # memo that was true of them.
            journal.set_attr(self, "_memo", {})
        journal.set_attr(self, "topology", topology)
        journal.set_attr(self, "_capacity_mbps", capacities)

    def update_rates(
        self,
        identifier: str,
        guarantee: Bandwidth,
        cap: Optional[Bandwidth] = None,
    ) -> None:
        """Rewrite a statement's rates (bookkeeping only)."""
        if identifier not in self._records:
            raise ProvisioningError(f"unknown statement {identifier!r}")
        if guarantee is None or guarantee.bps_value <= 0:
            raise ProvisioningError(
                f"statement {identifier!r} needs a positive guarantee; remove "
                "it instead to make it best-effort"
            )
        previous = self._records[identifier]
        rates = LocalRates(identifier=identifier, guarantee=guarantee, cap=cap)
        # A cap-only change keeps the token: the cap never enters the
        # provisioning MIP, so the statement's partition stays clean.
        token = (
            previous.token
            if previous.rates.guarantee.bps_value == guarantee.bps_value
            else next(self._tokens)
        )
        self.journal.set_item(
            self._records,
            identifier,
            dataclasses.replace(previous, rates=rates, token=token),
        )

    # -- solving -------------------------------------------------------------------

    def resolve(self) -> ProvisioningResult:
        """Re-provision the active statements, re-solving only dirty components.

        The returned :class:`ProvisioningResult` is identical to what a
        fresh engine holding the same statements would produce;
        ``solve_statistics`` reports ``partitions_dirty`` /
        ``partitions_reused``.  With ``options.partition`` off the
        population is one untightened component.
        """
        records = self._records
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
                outcome.construction_seconds,
                outcome.solve_seconds,
                heuristic=self.heuristic,
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
