"""The Merlin compiler (§3): localize, provision, and generate code.

:class:`MerlinCompiler` performs the three essential tasks described in the
paper: translating global policies into locally-enforceable ones
(localization), determining forwarding paths / function placements /
bandwidth allocations (provisioning via the MIP for guaranteed traffic and
sink trees or product-graph BFS for best-effort traffic), and generating
low-level instructions for switches, middleboxes, and end hosts.

There is one provisioning pipeline, and it is the *session*: the
:class:`~repro.incremental.engine.IncrementalProvisioner` holding one
:class:`~repro.incremental.solve.StatementRecord` per statement of the
compiled policy (statement, localized rates, endpoints, best-effort path;
a guaranteed statement's product graph and token) and the component
solutions, plus what the statements share (the active topology, the sink
trees, the walk cache).  The compiler keeps no per-statement state beside
the engine's records: it derives each record's fields and hands them to
the engine's four mutators, one journaled write each.
:meth:`MerlinCompiler.compile` pre-processes and localizes the whole policy,
opens an empty session, enters every statement through the same mutators a
delta uses, and returns what the shared finalize (resolve the engine,
generate code, package the result) returns.
:meth:`MerlinCompiler.recompile` applies a
:class:`~repro.incremental.delta.PolicyDelta` or
:class:`~repro.incremental.delta.TopologyDelta` to that session inside a
transaction and ends in the same finalize, which re-solves only the
link-disjoint MIP components the delta touched.  The mutators are the only
judges of a delta: one that cannot be applied is refused where the
offending change is made, and the transaction's rollback undoes whatever
was applied before it.  A recompiled session therefore equals a
from-scratch ``compile()`` of the updated policy by construction, at a
small fraction of the latency — the Figure-10b re-provisioning benchmark
measures the ratio.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from .. import telemetry
from ..codegen.generator import CodeGenerator
from ..collector import collector_paused
from ..errors import PolicyError, ProvisioningError
from ..predicates.ast import TRUE, PTrue, pred_and, pred_not, pred_or
from ..predicates.sat import find_overlapping_between, is_satisfiable
from ..regex.ast import Dot, Regex, Star, any_path
from ..topology.graph import Topology
from .allocation import (
    CompilationResult,
    CompilationStatistics,
    PathAssignment,
)
from .ast import Policy, Statement
from .localization import LocalRates, localize, localized_formula
from .logical import (
    ProductWalk,
    build_logical_topology,
    infer_endpoints,
    search_logical_topology,
    walk_product,
)
from .options import ProvisionOptions
from ..incremental.delta import TopologyDelta
from ..incremental.engine import IncrementalProvisioner
from ..incremental.journal import UndoJournal
from ..incremental.solve import StatementRecord
from .parser import parse_policy
from .preprocessor import DEFAULT_STATEMENT_ID, preprocess
from .provisioning import PathSelectionHeuristic, _assign_functions
from .sink_tree import compute_sink_trees, update_sink_trees


def _is_unconstrained_path(path: Regex) -> bool:
    """Whether a path expression is the universal ``.*`` (no constraint)."""
    return isinstance(path, Star) and isinstance(path.operand, Dot)


@dataclass
class _CompilerSession:
    """The live state of the compiled policy: what every compile fills and
    every recompile edits.

    The statements themselves live in the engine, one
    :class:`~repro.incremental.solve.StatementRecord` each
    (``engine.records``); the session holds what is shared by all of them.
    Transactions are undo-journal based (see
    ``repro.incremental.journal``): every mutation the pipeline performs on
    the session flows through :attr:`journal` — the engine's own — so one
    mark covers both, taking it is O(1), and a rollback replays only the
    entries the transaction touched, the session's and the engine's in the
    order they happened.  The ``logical_cache`` of path-expression walks is
    deliberately not rolled back: it is a pure content-addressed memo (key
    determines value), so stale-free by construction; the topology-delta
    path *rebinds* it (journaled), it is never required to match a
    never-failed session entry-for-entry.
    """

    #: The provisioning engine holding every statement's record; created
    #: with the session, before the first statement enters.
    engine: IncrementalProvisioner
    #: The topology the session currently compiles against: the compiler's
    #: pristine topology minus the failed elements below.  Every logical
    #: build, endpoint inference, sink tree, and generated instruction
    #: uses this, so session results stay identical to a from-scratch
    #: compile on the degraded network.
    active_topology: Topology
    #: The unpinned :class:`~repro.core.logical.ProductWalk` of each path
    #: expression a constrained best-effort statement has searched on the
    #: active topology; every such statement with that expression
    #: restricts it to its endpoints.  Guaranteed statements build their
    #: own product graph and keep nothing here.
    logical_cache: Dict[Regex, ProductWalk] = field(default_factory=dict)
    sink_trees: Dict = field(default_factory=dict)
    failed_links: frozenset = frozenset()
    failed_nodes: frozenset = frozenset()
    #: The last committed CompilationResult — what an empty/no-op delta
    #: returns without opening a transaction or touching the solver.
    last_result: Optional[CompilationResult] = None

    @property
    def journal(self) -> UndoJournal:
        return self.engine.journal

    def ordered(self) -> List[StatementRecord]:
        """The engine's records in insertion order (rollback-stable)."""
        return sorted(self.engine.records.values(), key=attrgetter("stamp"))

    def user_record(self, identifier: str) -> Optional[StatementRecord]:
        """The record of a statement a delta may name.

        The generated catch-all is not one: removing it would silently
        no-op (the refresh recreates it) and its rates are not the
        user's to set, so it is as unknown as any other absent identifier.
        """
        record = self.engine.records.get(identifier)
        return None if record is None or record.generated else record


@dataclass
class MerlinCompiler:
    """Compiles Merlin policies against a physical topology.

    ``placements`` maps packet-processing function names (``"dpi"``,
    ``"nat"``, ...) to the locations able to host them — the auxiliary input
    described in §3.2.  ``heuristic`` selects the path-selection objective,
    ``overlap`` selects how the pre-processor treats overlapping statement
    predicates, and ``generate_code`` can be disabled for pure provisioning
    benchmarks.

    Provisioning knobs — solver backend and limits, partitioning,
    footprint slack, and ``options.component_cache`` (the cross-session
    content-addressed solution cache of :mod:`repro.fabric`) — live in a
    single :class:`~repro.core.options.ProvisionOptions` passed as
    ``options`` (``None`` means the defaults: no content cache).  Every
    component is solved in the calling process.
    Each :meth:`compile` hands it to the session's engine, which every
    later :meth:`recompile` of that session solves through: one
    configuration, one undo journal and one solution memo per session.
    """

    topology: Topology
    placements: Mapping[str, Iterable[str]] = field(default_factory=dict)
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO
    overlap: str = "reject"
    add_catch_all: bool = True
    generate_code: bool = True
    options: Optional[ProvisionOptions] = None
    _session: Optional[_CompilerSession] = field(
        default=None, init=False, repr=False, compare=False
    )

    @collector_paused
    def compile(self, policy: Union[str, Policy]) -> CompilationResult:
        """Compile a policy (source text or AST) into a :class:`CompilationResult`.

        With a telemetry recorder active (``repro.telemetry``), the
        compile emits one trace: a root ``compile`` span with
        ``logical_construction`` / ``rateless`` (one per run of guaranteed /
        best-effort statements in policy order), ``resolve`` with its
        per-round ``partition`` and per-component ``component_solve``
        (solved in this process, backend name attached), and
        ``codegen`` children.  The reported ``statistics.total_seconds``
        *is* the root span's duration.  The compile runs with the cyclic
        garbage collector paused (:func:`~repro.collector.collector_paused`).
        """
        with telemetry.span("compile") as compile_span:
            result = self._compile(policy, compile_span)
        result.statistics.total_seconds = compile_span.duration
        return result

    def _compile(self, policy: Union[str, Policy], compile_span) -> CompilationResult:
        # A failed compile must not leave the previous compile's session
        # behind: recompile() against a policy the caller has since replaced
        # would silently mix the two.  The new session is published only
        # once it has produced its result.
        self._session = None
        if isinstance(policy, str):
            policy = parse_policy(policy, topology=self.topology)

        preprocess_result = preprocess(
            policy, overlap=self.overlap, add_catch_all=self.add_catch_all
        )
        preprocessed = preprocess_result.policy
        local_rates = localize(preprocessed)

        session = _CompilerSession(
            engine=IncrementalProvisioner(
                self.topology,
                self.placements,
                heuristic=self.heuristic,
                options=self.options,
            ),
            active_topology=self.topology,
        )
        # Statements enter in policy order (the insertion stamps drive
        # VLAN/queue allocation); the guaranteed / best-effort split is
        # only how the time is booked (§3.2 vs §3.3, Figure 7's columns).
        seconds = {True: 0.0, False: 0.0}
        for is_guaranteed, run in itertools.groupby(
            preprocessed.statements,
            key=lambda statement: local_rates[statement.identifier].is_guaranteed,
        ):
            run = tuple(run)
            with telemetry.span(
                "logical_construction" if is_guaranteed else "rateless",
                statements=len(run),
            ) as run_span:
                for statement in run:
                    self._add_statement(
                        session,
                        statement,
                        local_rates[statement.identifier],
                        generated=preprocess_result.added_default
                        and statement.identifier == DEFAULT_STATEMENT_ID,
                    )
            seconds[is_guaranteed] += run_span.duration
        with telemetry.span("rateless") as sink_tree_span:
            self._refresh_sink_trees(session)
        seconds[False] += sink_tree_span.duration

        result = self._finalize(
            session,
            rateless_seconds=seconds[False],
            logical_seconds=seconds[True],
            policy=preprocessed,
        )
        compile_span.annotate(
            statements=result.statistics.num_statements,
            guaranteed=result.statistics.num_guaranteed_statements,
        )
        self._session = session
        return result

    # -- the incremental fast path ------------------------------------------------

    @collector_paused
    def recompile(self, delta) -> CompilationResult:
        """Apply a policy or topology delta incrementally.

        Accepts a :class:`~repro.incremental.delta.PolicyDelta` (statement
        membership / rate changes, :meth:`_apply_policy_delta`) or a
        :class:`~repro.incremental.delta.TopologyDelta` (link and node
        failures / recoveries, :meth:`_apply_topology_delta`).
        Requires a prior :meth:`compile` (which opened the session);
        re-solves only the link-disjoint MIP components the delta touches
        and returns a full :class:`CompilationResult` for the updated
        policy whose paths, rates, link reservations, and instructions are
        identical to a from-scratch compile.  The result's ``policy.formula``
        is the *localized* (per-statement) form reconstructed from the
        session's rates: deltas describe statement-level rate changes, so
        aggregate multi-identifier clauses of the originally compiled
        formula are not preserved through recompiles.

        Every recompile is a *transaction*, and this is the only place one
        is opened: the delta applies under an undo-journal mark of the
        session (and its engine) — O(1) to open, O(delta) to roll back —
        commits on successful solve + code generation, and rolls back on
        **any** failure.  There is no validation pass ahead of the apply:
        the rollback is exact, so a mutator may refuse half-way through a
        delta (unknown identifiers, overlap violations, unprovisionable
        guarantees, failing what is already failed), and a refused delta,
        an infeasible solve and a code-generation error all take the same
        way out — the session stays usable and byte-equivalent to one that
        never saw the delta, ``transactions_rolled_back`` counts it, and
        the error propagates (e.g. :class:`ProvisioningError` for
        infeasibility).  A delta with several faults reports the first in
        application order.  ``has_session`` stays True; the next recompile
        works normally.  Like :meth:`compile`, it runs with the cyclic
        garbage collector paused.
        """
        session = self._session
        if session is None:
            raise ProvisioningError(
                "recompile() requires a prior compile(); no session is active"
            )
        if delta.is_empty():
            # No-op delta: nothing to apply, solve, or regenerate — and
            # nothing to protect, so no transaction is opened and the undo
            # journal stays empty.  Control planes polling with empty
            # deltas (or coalescing batches down to nothing) pay nothing.
            return self._noop_result(session)
        is_topology = isinstance(delta, TopologyDelta)
        apply = self._apply_topology_delta if is_topology else self._apply_policy_delta
        with telemetry.span(
            "recompile",
            kind="topology" if is_topology else "policy",
            changes=delta.num_changes(),
        ) as recompile_span:
            journal = session.journal
            saved = journal.mark()
            telemetry.gauge("journal_depth", len(journal))
            try:
                with telemetry.span("rateless") as rateless_span:
                    apply(session, delta)
                result = self._finalize(session, rateless_span.duration)
            except Exception:
                # Part or all of the delta was applied to the session/engine
                # when the failure surfaced (a refusal by a mutator, an
                # infeasible solve, a code-generation error).  Roll back to
                # the mark: the session is restored to its exact pre-delta
                # state — statement population, rates, sink trees, failed
                # sets, active topology, engine records — so it keeps matching
                # the last result the caller successfully received, and the
                # next recompile() proceeds normally.
                # Callers that withdraw on error (the negotiator) need only
                # revert their own policy.
                recompile_span.annotate(rolled_back=True)
                telemetry.counter("transactions_rolled_back")
                journal.rollback(saved)
                raise
            else:
                telemetry.counter("transactions_committed")
            finally:
                # Commit (or, after a rollback, retire the still-live mark):
                # drops the mark and truncates the undo journal.
                journal.release(saved)
        result.statistics.total_seconds = recompile_span.duration
        return result

    def _apply_policy_delta(self, session, delta) -> None:
        """Apply a :class:`~repro.incremental.delta.PolicyDelta`: removes,
        then adds, then rate updates.

        Pre-processing is applied incrementally to keep the session equal
        to a from-scratch compile: added statements pass the session's
        overlap discipline against the statements present when they enter
        — the session's minus this delta's removes plus its earlier adds
        (``"reject"`` checks them, ``"priority"`` subtracts all existing
        predicates — appended statements are lowest-priority; removals
        under ``"priority"`` are refused because earlier-statement
        subtraction is baked into later predicates), and the generated
        catch-all statement's remainder predicate is recomputed whenever
        the statement population changes.
        """
        for identifier in delta.remove:
            self._remove_statement(session, identifier)
        for added in delta.add:
            statement = self._preprocess_added(session, added.statement)
            self._add_statement(
                session,
                statement,
                LocalRates(
                    identifier=statement.identifier,
                    guarantee=added.guarantee,
                    cap=added.cap,
                ),
            )
        for update in delta.update_rates:
            self._update_rates(session, update)
        if delta.remove or delta.add:
            self._refresh_catch_all(session)
        self._refresh_sink_trees(session)

    def _noop_result(self, session) -> CompilationResult:
        """Re-package the committed state for an empty delta.

        The allocation payload (policy, paths, rates, instructions) is the
        last committed result's, shared structurally — nothing was solved
        or regenerated, and the statistics say so: zero timings, zero
        dirty partitions, no widening retries.  Population-shape counters
        (statement counts, partition count, MIP size) still describe the
        committed state.
        """
        last = session.last_result
        statistics = dataclasses.replace(
            last.statistics,
            lp_construction_seconds=0.0,
            lp_solve_seconds=0.0,
            rateless_seconds=0.0,
            codegen_seconds=0.0,
            total_seconds=0.0,
            dirty_partitions=0,
            slack_retries=0,
            component_solve_seconds=(),
        )
        result = CompilationResult(
            policy=last.policy,
            paths=last.paths,
            rates=last.rates,
            sink_trees=last.sink_trees,
            instructions=last.instructions,
            statistics=statistics,
            link_reservations=last.link_reservations,
        )
        result.attach_link_capacities(session.active_topology.link_capacities())
        return result

    def _apply_topology_delta(self, session, delta) -> None:
        """Apply a :class:`~repro.incremental.delta.TopologyDelta`.

        The session tracks the cumulative failed-element sets; each delta
        edits them, derives the new *active* topology from the pristine one,
        and rebuilds only the statements whose pristine untightened product
        footprint touches a changed link (the product construction is
        monotone in the topology, so an untouched footprint proves the
        statement's product graph — and therefore its component model —
        is unchanged).  Rebuilt statements whose edge set actually changed
        get a new engine record; the shared resolve then re-solves
        exactly the affected components, widening footprint slack where a
        failure pruned away every surviving path.

        Failures and recoveries are absolute edits: failing an
        already-failed element (including twice within one delta) or
        recovering a healthy one is an error, so replaying an event stream
        is unambiguous.  Unknown links/nodes raise
        :class:`~repro.errors.TopologyError` from the pristine-topology
        lookups.  Within one delta, failures apply before recoveries.
        """
        failed_links = set(session.failed_links)
        for source, target in delta.fail_links:
            self.topology.link(source, target)
            if (source, target) in failed_links:
                raise ProvisioningError(
                    f"link {source!r}-{target!r} is already failed"
                )
            failed_links.add((source, target))
        for source, target in delta.recover_links:
            if (source, target) not in failed_links:
                raise ProvisioningError(
                    f"cannot recover link {source!r}-{target!r}: it is not failed"
                )
            failed_links.discard((source, target))
        failed_nodes = set(session.failed_nodes)
        for name in delta.fail_nodes:
            node = self.topology.node(name)
            if node.is_host:
                raise ProvisioningError(
                    f"cannot fail host {name!r}: only switches and "
                    "middleboxes can fail"
                )
            if name in failed_nodes:
                raise ProvisioningError(f"node {name!r} is already failed")
            failed_nodes.add(name)
        for name in delta.recover_nodes:
            if name not in failed_nodes:
                raise ProvisioningError(
                    f"cannot recover node {name!r}: it is not failed"
                )
            failed_nodes.discard(name)

        previous = session.active_topology
        active = (
            self.topology.without(links=failed_links, nodes=failed_nodes)
            if failed_links or failed_nodes
            else self.topology
        )
        journal = session.journal
        journal.set_attr(session, "active_topology", active)
        journal.set_attr(session, "failed_links", frozenset(failed_links))
        journal.set_attr(session, "failed_nodes", frozenset(failed_nodes))
        # Cached products were walked on the previous active topology; their
        # keys do not encode it.  The rebind is journaled (rollback
        # reinstates the old cache dict and the products in it);
        # entries added to the fresh dict inside this transaction are
        # simply discarded with it.
        journal.set_attr(session, "logical_cache", {})
        changed = self._changed_links(delta)
        session.engine.set_topology(active, changed)
        self._rebuild_affected(session, changed)
        if session.sink_trees:
            # Population unchanged, so *whether* sink trees are needed is
            # unchanged — but their routes must follow the active fabric.
            journal.set_attr(
                session,
                "sink_trees",
                update_sink_trees(
                    session.sink_trees,
                    previous,
                    active,
                    changed,
                    (*delta.fail_nodes, *delta.recover_nodes),
                ),
            )

    def _changed_links(self, delta) -> frozenset:
        """The physical links a topology delta touches, as sorted pairs.

        A failed/recovered node contributes all its pristine incident
        links — exactly the edges its disappearance removes from (or its
        return restores to) the active topology.
        """
        changed = set(delta.fail_links) | set(delta.recover_links)
        for name in tuple(delta.fail_nodes) + tuple(delta.recover_nodes):
            for neighbor in self.topology.neighbors(name):
                changed.add(tuple(sorted((name, neighbor))))
        return frozenset(changed)

    def _rebuild_affected(self, session, changed) -> None:
        """Rebuild the product graphs whose pristine footprint intersects
        ``changed`` links, against the session's (new) active topology.

        Guaranteed statements whose rebuilt edge set differs replace their
        logical in the engine (new record → affected components
        re-solve); an identical edge set (e.g. a recovered link no
        cost-bounded path ever used) is skipped entirely, keeping cached
        component solutions valid.  A guaranteed statement with *no*
        surviving path raises (and rolls the transaction back) — the
        network can no longer carry its guarantee at all.  Constrained
        best-effort statements search their product graph again (a new
        record through the same ``replace_logical``) and may move between
        feasible and infeasible; unconstrained ones (a demoted statement
        keeps the footprint its guarantee recorded) keep their record and
        follow the sink trees as before.
        """
        engine = session.engine
        for record in session.ordered():
            if record.footprint is None or not (record.footprint & changed):
                continue
            identifier = record.identifier
            if not record.rates.is_guaranteed:
                fields = self._fields(
                    session, record.statement, False, record.endpoints, record.footprint
                )
                if fields:
                    engine.replace_logical(identifier, **fields)
                continue
            logical = self._logical_for(session, record.statement, *record.endpoints)
            if logical.num_edges() == 0:
                raise ProvisioningError(
                    f"statement {identifier!r} has no feasible path "
                    "satisfying its path expression on the degraded "
                    "topology"
                )
            if set(record.logical.pairs) != set(logical.pairs):
                engine.replace_logical(identifier, logical)

    def _finalize(
        self,
        session,
        rateless_seconds: float,
        logical_seconds: float = 0.0,
        policy: Optional[Policy] = None,
    ) -> CompilationResult:
        """Solve, generate code, and package the session's result.

        The shared tail of the compile, policy-delta and topology-delta
        paths, and the one place session state becomes a
        :class:`CompilationResult`.  ``recompile`` calls it inside its
        transaction, so a raise here (an infeasible solve, a codegen
        error) triggers the rollback.  ``policy`` is the
        pre-processed policy a compile entered; without one the policy is
        rebuilt from the session, with the *localized* formula.
        """
        active = session.active_topology
        provisioning = session.engine.resolve()

        # Everything below reads the records in stamp order, not raw dict
        # order: journaled rollback restores dict contents but can
        # re-insert undeleted keys at the end, and statement order is
        # byte-visible downstream (codegen allocates VLANs/queues in
        # policy order).
        records = session.ordered()
        paths: Dict[str, PathAssignment] = dict(provisioning.paths)
        paths.update(
            (record.identifier, record.best_effort)
            for record in records
            if record.best_effort is not None
        )
        rates = {record.identifier: record.allocation for record in records}
        if policy is None:
            policy = Policy(
                statements=tuple(record.statement for record in records),
                formula=localized_formula(
                    {record.identifier: record.clauses for record in records}
                ),
            )

        codegen_seconds = 0.0
        instructions = None
        if self.generate_code:
            with telemetry.span("codegen") as codegen_span:
                instructions = CodeGenerator(topology=active).generate(
                    policy,
                    paths,
                    rates,
                    session.sink_trees,
                    endpoints={
                        record.identifier: record.endpoints for record in records
                    },
                    infeasible_statements=tuple(
                        record.identifier for record in records if record.infeasible
                    ),
                    # The last committed bundle: its fragments are reused
                    # where their content matches, and a rollback restores
                    # it with the result it belongs to.
                    previous=(
                        session.last_result.instructions
                        if session.last_result is not None
                        else None
                    ),
                )
            codegen_seconds = codegen_span.duration

        statistics = CompilationStatistics(
            lp_construction_seconds=(
                logical_seconds + provisioning.lp_construction_seconds
            ),
            lp_solve_seconds=provisioning.lp_solve_seconds,
            rateless_seconds=rateless_seconds,
            codegen_seconds=codegen_seconds,
            # Span-derived: the callers overwrite this with their root
            # ``compile`` / ``recompile`` span's duration once it closes.
            total_seconds=0.0,
            num_statements=len(records),
            num_guaranteed_statements=sum(
                record.rates.is_guaranteed for record in records
            ),
            num_mip_variables=provisioning.num_variables,
            num_mip_constraints=provisioning.num_constraints,
        )
        statistics.record_provisioning(provisioning)

        result = CompilationResult(
            policy=policy,
            paths=paths,
            rates=rates,
            sink_trees=session.sink_trees,
            instructions=instructions,
            statistics=statistics,
            link_reservations=provisioning.link_reservations,
        )
        result.attach_link_capacities(active.link_capacities())
        session.journal.set_attr(session, "last_result", result)
        return result

    @property
    def has_session(self) -> bool:
        """Whether a compile session is active (recompile is available)."""
        return self._session is not None

    def session(self):
        """A :class:`~repro.core.session.ProvisioningSession` facade over the
        live session.

        Requires a prior :meth:`compile`.  The facade is the supported
        surface for callers that stream changes — scenario drivers, the
        negotiator — offering ``apply(delta_or_event)`` plus explicit
        ``checkpoint()`` / ``rollback()`` without reaching into compiler or
        engine internals.  It can be used as a context manager; several
        facades over one compiler share the same underlying session.
        """
        from .session import ProvisioningSession

        if self._session is None:
            raise ProvisioningError(
                "session() requires a prior compile(); no session is active"
            )
        return ProvisioningSession(self)

    def session_record(self, identifier: str) -> Optional[StatementRecord]:
        """The active session's record of ``identifier`` (its current
        statement and localized rates among the rest), or ``None``.

        Delegated negotiators rewrite their scope-narrowed deltas against
        it: the global predicate, and the global guarantee and cap where
        the statement's rate clauses did not survive delegation (a dropped
        ``min(a, b)`` clause must not demote the statement).
        """
        if self._session is None:
            return None
        return self._session.engine.records.get(identifier)

    def prepare_incremental(self) -> None:
        """A checked no-op: ``compile()`` returns with the engine populated."""
        if self._session is None:
            raise ProvisioningError(
                "prepare_incremental() requires a prior compile()"
            )

    # -- session internals ----------------------------------------------------------

    def _remove_statement(self, session, identifier: str) -> None:
        if self.overlap == "priority":
            raise ProvisioningError(
                "overlap='priority' sessions cannot remove statements "
                "incrementally: first-match-wins rewriting subtracted the "
                "removed predicates from later statements; run a full "
                "compile() of the updated policy instead"
            )
        if session.user_record(identifier) is None:
            raise ProvisioningError(
                f"cannot remove unknown statement {identifier!r}"
            )
        session.engine.remove_statement(identifier)

    def _add_statement(
        self, session, statement, local: LocalRates, generated: bool = False
    ) -> None:
        """Enter one pre-processed statement — the unit both a compile (once
        per policy statement, whose identifiers :class:`Policy` keeps
        unique) and a delta's ``add`` (admitted by
        :meth:`_preprocess_added`) are made of."""
        endpoints = infer_endpoints(statement, session.active_topology)
        session.engine.add_statement(
            statement,
            local.guarantee,
            local.cap,
            endpoints=endpoints,
            generated=generated,
            **self._fields(session, statement, local.is_guaranteed, endpoints),
        )

    def _update_rates(self, session, update) -> None:
        identifier = update.identifier
        record = session.user_record(identifier)
        if record is None:
            raise ProvisioningError(
                f"cannot update rates of unknown statement {identifier!r}"
            )
        local = LocalRates(
            identifier=identifier, guarantee=update.guarantee, cap=update.cap
        )
        fields = {}
        if local.is_guaranteed != record.rates.is_guaranteed:
            # Promoted from best-effort (enters the MIP) or demoted to it
            # (leaves the MIP).
            fields = self._fields(
                session,
                record.statement,
                local.is_guaranteed,
                record.endpoints,
                record.footprint,
            )
        session.engine.update_rates(identifier, local.guarantee, local.cap, **fields)

    def _fields(
        self,
        session,
        statement: Statement,
        guaranteed: bool,
        endpoints: Tuple[Optional[str], Optional[str]],
        footprint: Optional[FrozenSet[Tuple[str, str]]] = None,
    ) -> Dict[str, object]:
        """The record fields that place a statement on the active topology.

        A guarantee-bearing statement (an add or a promotion) gets its
        product graph, and this is where both learn whether it can be
        provisioned at all: endpoints here, an empty product graph in the
        engine's mutator.  An unconstrained best-effort statement rides the
        sink trees (refreshed centrally once the statements are in) and
        changes no field; a constrained one takes the breadth-first
        shortest path of its product graph, restricted from its path
        expression's shared walk — no graph is built for it — or is marked
        infeasible.

        Either way the record keeps one untightened footprint on the
        *pristine* topology: ``footprint``, the one it recorded, if any.
        The topology-delta path tests affectedness against it: the product
        construction is monotone in the topology, so any active product is
        a subgraph of the pristine one, and a recovered link can only
        matter to statements whose pristine product could use it.  During
        failures the active product is not the pristine one, which is then
        searched uncached.
        """
        if guaranteed:
            source, destination = endpoints
            if source is None or destination is None:
                raise ProvisioningError(
                    f"statement {statement.identifier!r} requests a bandwidth "
                    "guarantee but its source/destination hosts cannot be "
                    "determined from its predicate or path expression"
                )
            logical = self._logical_for(session, statement, source, destination)
            fields = {"logical": logical, "best_effort": None, "infeasible": False}
            found = logical.footprint
        elif _is_unconstrained_path(statement.path):
            return {}
        else:
            path, found = self._search_for(session, statement, *endpoints)
            fields = {"best_effort": None, "infeasible": path is None}
            if path is not None:
                fields["best_effort"] = PathAssignment(
                    statement_id=statement.identifier,
                    path=path,
                    # The same greedy placement rule the MIP's paths get.
                    function_placements=_assign_functions(
                        statement.path, path, self.placements, session.engine.locations
                    ),
                    guaranteed_rate=None,
                )
        if footprint is None and session.active_topology is not self.topology:
            source, destination = infer_endpoints(statement, self.topology)
            _, found = search_logical_topology(
                statement,
                self.topology,
                self.placements,
                source=source,
                destination=destination,
            )
        fields["footprint"] = found if footprint is None else footprint
        return fields

    def _real_statements(self, session) -> List[Statement]:
        """The session's statements minus the preprocessor's *generated*
        catch-all (a user-authored statement named "default" is real).

        Stamp order, not raw dict order: the order feeds priority-mode
        predicate narrowing and the catch-all's remainder predicate, both
        byte-visible in the compiled policy, and dict order is not
        rollback-stable (see ``StatementRecord.stamp``).
        """
        return [
            record.statement for record in session.ordered() if not record.generated
        ]

    def _preprocess_added(self, session, statement: Statement) -> Statement:
        """Admit a delta's added statement under the session's overlap
        discipline.

        Mirrors what building and pre-processing the policy would do to the
        statement had it been part of a from-scratch compile of the
        session's statements + the addition: an identifier already in use
        is refused; reject mode checks it for overlap against the existing
        statements; priority mode narrows it by subtracting the existing
        predicates it overlaps (an appended statement has the lowest
        priority) and rejects it when completely shadowed; trust mode
        passes it through unchanged, as both other modes do when nothing
        overlaps.
        """
        if statement.identifier in session.engine.records:
            raise ProvisioningError(
                f"statement {statement.identifier!r} already exists; remove it "
                "first (a changed statement appears in both remove and add)"
            )
        if self.overlap == "trust":
            return statement
        existing = self._real_statements(session)
        # Only the statements the forced-equality index cannot tell apart
        # from the addition are SAT-checked, not the whole population.
        overlapping = [
            existing[position]
            for _, position in find_overlapping_between(
                [statement.predicate], [other.predicate for other in existing]
            )
        ]
        if not overlapping:
            return statement
        if self.overlap == "reject":
            conflicts = [other.identifier for other in overlapping]
            raise PolicyError(
                f"statement {statement.identifier!r} overlaps existing "
                f"statements: {', '.join(conflicts)}; use "
                "overlap='priority' or recompile from scratch"
            )
        # overlap == "priority": first-match-wins.  Subtracting the
        # statements that overlap is subtracting every existing one.
        narrowed = pred_and(
            statement.predicate,
            pred_not(pred_or(*[other.predicate for other in overlapping])),
        )
        if not is_satisfiable(narrowed):
            raise PolicyError(
                f"statement {statement.identifier!r} is completely shadowed "
                "by existing statements"
            )
        return Statement(
            identifier=statement.identifier,
            predicate=narrowed,
            path=statement.path,
        )

    def _refresh_catch_all(self, session) -> None:
        """Recompute the generated catch-all after a membership change.

        Keeps the session equivalent to a from-scratch preprocess of the
        current statements: the catch-all's remainder predicate is the
        negation of everything matched, it disappears when some statement
        already matches all packets, and it (re)appears when coverage
        becomes partial again.  A user-authored statement that happens to be
        named "default" is never touched (and, exactly like preprocess,
        blocks the catch-all from being generated).
        """
        if not self.add_catch_all:
            return
        others = self._real_statements(session)
        records = session.engine.records
        current = records.get(DEFAULT_STATEMENT_ID)
        if current is not None and current.generated:
            session.engine.remove_statement(DEFAULT_STATEMENT_ID)
        if any(isinstance(statement.predicate, PTrue) for statement in others):
            return
        if DEFAULT_STATEMENT_ID in records:
            raise PolicyError(
                f"cannot add catch-all: identifier {DEFAULT_STATEMENT_ID!r} "
                "already used"
            )
        remainder = (
            pred_and(*[pred_not(statement.predicate) for statement in others])
            if others
            else TRUE
        )
        self._add_statement(
            session,
            Statement(
                identifier=DEFAULT_STATEMENT_ID, predicate=remainder, path=any_path()
            ),
            LocalRates(identifier=DEFAULT_STATEMENT_ID),
            generated=True,
        )

    def _refresh_sink_trees(self, session) -> None:
        """Keep ``session.sink_trees`` consistent with the statement set.

        Mirrors :meth:`compile`: sink trees exist exactly while some
        best-effort statement (the generated catch-all included) has an
        unconstrained path.  They are dropped when the last such statement
        disappears, so codegen stops emitting default-forwarding
        instructions a from-scratch compile would not produce.
        """
        needed = any(
            not record.rates.is_guaranteed
            and _is_unconstrained_path(record.statement.path)
            for record in session.engine.records.values()
        )
        if not needed:
            if session.sink_trees:
                session.journal.set_attr(session, "sink_trees", {})
        elif not session.sink_trees:
            session.journal.set_attr(
                session, "sink_trees", compute_sink_trees(session.active_topology)
            )

    # -- shared helpers --------------------------------------------------------------

    # Distinct product walks kept per session; bounded (LRU) so a
    # long-running controller streaming deltas with ever-new path
    # expressions does not grow resident memory monotonically.
    _LOGICAL_CACHE_LIMIT = 1024

    def _logical_for(self, session, statement, source, destination):
        """The statement's product graph on the session's active topology,
        materialised: what a guaranteed statement hands the MIP."""
        telemetry.counter("logical_builds")
        return build_logical_topology(
            statement,
            session.active_topology,
            self.placements,
            source,
            destination,
            self._known_locations(session),
        )

    def _search_for(self, session, statement, source, destination):
        """The ``(shortest path | None, footprint)`` of the statement's
        product graph on the session's active topology, never built: the
        path expression's shared walk restricted to the statement's
        endpoints, all a constrained best-effort statement needs."""
        # The cache key does not encode the topology: the topology-delta
        # path rebinds the session cache on every change, so walks never
        # outlive the topology they were made on.
        cache = session.logical_cache
        walk = cache.pop(statement.path, None)
        if walk is None:
            telemetry.counter("logical_searches")
            walk = walk_product(
                statement,
                session.active_topology,
                self.placements,
                self._known_locations(session),
            )
        cache[statement.path] = walk  # (re)insert as most recently used
        while len(cache) > self._LOGICAL_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        return walk.restrict(source, destination)

    def _known_locations(self, session) -> Optional[List[str]]:
        """On a degraded topology, names of failed elements stay valid
        path-expression references (they match nothing)."""
        active = session.active_topology
        return None if active is self.topology else self.topology.locations()


def compile_policy(
    policy: Union[str, Policy],
    topology: Topology,
    placements: Optional[Mapping[str, Iterable[str]]] = None,
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
    **options,
) -> CompilationResult:
    """One-call compilation: build a :class:`MerlinCompiler` and run it."""
    compiler = MerlinCompiler(
        topology=topology,
        placements=placements or {},
        heuristic=heuristic,
        **options,
    )
    return compiler.compile(policy)
