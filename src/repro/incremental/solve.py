"""Canonical component models, the widening solve loop, and the merge.

The back half of the one provisioning pipeline: the incremental engine
(:mod:`repro.incremental.engine`) is the only caller of
:func:`solve_components_with_widening`, whether it is resolving a full
compile's population or a one-statement delta.  The engine hands over its
per-statement records (:class:`StatementRecord`) and its solution memo; the
loop partitions the statements, builds one sub-model per component
(:func:`build_partition_model`) for the components the memo holds no
:class:`PartitionSolution` for, solves them, widens footprint slack where a
component came back infeasible, and the engine merges the lot with
:func:`merge_partition_solutions`.

Each component's model is built in canonical order (statements sorted by
identifier, links sorted by key), so a component's model — and therefore
the solver's answer — depends only on the component's content, never on
the history that led to it.  That is the property behind the engine's
equivalence guarantee: a sequence of deltas followed by ``resolve()``
yields exactly the allocations of a from-scratch ``compile()`` of the
final policy.

Components are solved one after another in the calling process, each by
the options' backend inside its own ``component_solve`` span: a model is
handed over as its standard form and the answer comes back as the
solution's column vector, which :func:`extract_partition_solution` reads
paths and reservations out of by slicing.
A solve is handed its model and nothing else — no incumbent from an
earlier solve — so the answer cannot depend on what the session solved
before.  An optional content-addressed
:class:`~repro.fabric.ComponentSolutionCache` is consulted before any
model is built, so identical components across the tenants and sessions
sharing it solve once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import telemetry
from ..core.localization import LocalRates, local_clauses
from ..core.logical import LogicalTopology, prune_to_cost_bound
from ..core.options import DEFAULT_FOOTPRINT_SLACK, widen_slack
from ..core.provisioning import (
    _MBPS,
    FlowBlock,
    PathSelectionHeuristic,
    ProvisioningModel,
    ProvisioningResult,
    _assign_functions,
    _extract_path,
    build_model_for_links,
    flow_block,
)
from ..core.allocation import PathAssignment, RateAllocation
from ..core.ast import Statement
from ..errors import ProvisioningError
from ..fabric.signature import CanonicalComponent, canonicalize_component
from ..lp.backends import backend_name
from ..lp.model import StandardForm
from ..lp.result import SolveResult, SolveStatus
from ..topology.graph import Topology
from ..units import Bandwidth
from .partition import LinkKey, PartitionSpec, partition_statements

#: A component's identity in the engine's solution memo: the heuristic,
#: each member's record token (members sorted by identifier, as in
#: :class:`PartitionSpec`) and each member's slack — the same members at a
#: different widening level are a different model.
MemoKey = Tuple[str, Tuple[int, ...], Tuple[Optional[int], ...]]


#: Entries the solution memo keeps (least recently used go first).
#: Oscillating deltas — add then revert, AIMD up/down — bring back
#: components solved a resolve or two ago, and those must be hits.
SOLUTION_MEMO_LIMIT = 512


class _InfeasibleComponent:
    """Memo marker: a (members, slacks) component proven to have no solution."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<infeasible-component>"


#: Singleton marker memoized for component keys whose model came back
#: infeasible, so a later resolve walking the same widening ladder skips
#: straight past the levels already proven hopeless.
INFEASIBLE_COMPONENT = _InfeasibleComponent()


@dataclass
class View:
    """A statement's product graph cut at one slack rung.

    ``logical`` is the tightened topology, ``footprint`` the links it can
    use, and ``block`` its Equation-1 block — built the first time a
    component model needs it (:func:`build_partition_model`) and reused by
    every later model of the same view.
    """

    logical: LogicalTopology
    footprint: FrozenSet[LinkKey]
    block: Optional[FlowBlock] = None


@dataclass(frozen=True)
class StatementRecord:
    """Everything the session holds about one statement, best-effort or not.

    The engine keeps one per statement in ``IncrementalProvisioner.records``.
    Records are immutable and swapped whole: a mutator journals one dict
    entry, and a rollback puts the previous record back with everything
    that hangs off it — the derived ``allocation`` and ``clauses`` and the
    ``views``.  Only a guaranteed statement's record carries a product
    graph (``logical``), a ``token`` and ``views``, and the engine's
    resolve reads only the records that hold a token.  ``token`` names one
    (statement, product graph, guarantee) content for the life of the
    session — the engine never re-issues one — and is what the solution
    memo keys on.  ``views`` memoizes the :class:`View` per slack rung,
    Equation-1 block included; it depends on ``logical`` alone, so a rate
    change carries the dict over to the new record and a new product graph
    starts an empty one.
    """

    statement: Statement
    rates: LocalRates
    #: Insertion-order stamp.  Statement *order* is behaviorally visible
    #: (codegen allocates VLANs/queues in policy order), but a journaled
    #: rollback restores dict *contents*, not insertion order (undoing a
    #: deletion re-inserts at the end), so the order is recorded here and
    #: everything order-sensitive sorts on it.
    stamp: int = 0
    endpoints: Tuple[Optional[str], Optional[str]] = (None, None)
    #: Whether this is the preprocessor's generated catch-all (as opposed
    #: to a user-authored statement that happens to be named "default").
    generated: bool = False
    #: Physical-link footprint (sorted pairs) of the *untightened* product
    #: graph on the *pristine* topology: read off the materialised graph of
    #: a guaranteed statement, returned by the search of a constrained
    #: best-effort one, ``None`` while neither has happened (an
    #: unconstrained best-effort statement).  Because the product
    #: construction is monotone in the topology (a subgraph's product is a
    #: subgraph of the pristine product), a topology change can only affect
    #: a statement whose pristine footprint intersects the changed links —
    #: the exact test the topology-delta path uses to skip rebuilds.
    footprint: Optional[FrozenSet[LinkKey]] = None
    #: A constrained best-effort statement's breadth-first shortest path
    #: through its product graph (unconstrained ones ride the sink trees
    #: instead).
    best_effort: Optional[PathAssignment] = None
    #: Whether a constrained best-effort statement's path expression admits
    #: no path on the active topology.
    infeasible: bool = False
    #: A guaranteed statement's *untightened* product graph on the active
    #: topology: every view is cut from it.
    logical: Optional[LogicalTopology] = None
    token: Optional[int] = None
    views: Dict[Optional[int], View] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def identifier(self) -> str:
        return self.statement.identifier

    # What the finalize reads off a record is derived from it once, on
    # first use, and lives on the record: a mutator that changes the rates
    # makes a new record, and a rollback puts the old one back with its own.

    @cached_property
    def allocation(self) -> RateAllocation:
        """The statement's rates as the result reports them."""
        return RateAllocation.from_local_rates(self.rates)

    @cached_property
    def clauses(self) -> Tuple:
        """The statement's clauses of the localized formula."""
        return local_clauses(self.rates)

    def view(self, slack: Optional[int]) -> View:
        """The view at ``slack`` extra hops (``None`` = untightened),
        computed on first use."""
        found = self.views.get(slack)
        if found is None:
            tightened = (
                self.logical
                if slack is None
                else prune_to_cost_bound(self.logical, slack)
            )
            found = self.views[slack] = View(tightened, tightened.footprint)
        return found


def _memoize(memo: Dict[MemoKey, object], key: MemoKey, value: object) -> None:
    """Make ``key -> value`` the memo's most recently used entry."""
    memo.pop(key, None)
    memo[key] = value
    while len(memo) > SOLUTION_MEMO_LIMIT:
        del memo[next(iter(memo))]


@dataclass(eq=False)
class PartitionSolution:
    """The solved state of one link-disjoint component.

    Everything the merge step (and the incremental engine's memo) needs:
    the location paths selected for each member statement, the reservation
    fraction of each component link, and solver diagnostics.  Compared and
    hashed by identity: the memo hands the same object back for the same
    component, and the merge keys what it derived from a solution on that
    object (see :func:`merge_partition_solutions`).
    """

    spec: PartitionSpec
    location_paths: Dict[str, Tuple[str, ...]]
    fractions: Dict[LinkKey, float]
    status: str
    objective: Optional[float]
    #: The footprint slack each member was tightened with when this
    #: component was solved, aligned with ``spec.statement_ids`` (``None``
    #: = untightened).  Part of the component's memo identity: the same
    #: members at a different widening level are a different model.
    member_slacks: Tuple[Optional[int], ...]
    statistics: Dict[str, float] = field(default_factory=dict)
    num_variables: int = 0
    num_constraints: int = 0
    construction_seconds: float = 0.0
    #: The duration of the component's ``component_solve`` span.
    solve_seconds: float = 0.0


class _Merged(NamedTuple):
    """What :func:`merge_partition_solutions` derived from one solution,
    each part beside the content it was derived from: the members' path
    assignments read their record tokens; the links' reservations, and
    their largest fraction and amount, read the topology's capacity
    table."""

    tokens: Tuple[int, ...]
    assignments: Dict[str, PathAssignment]
    capacities: Mapping[LinkKey, Bandwidth]
    reservations: Dict[LinkKey, Bandwidth]
    utilization: float
    peak: Bandwidth


def topology_capacities_mbps(topology: Topology) -> Dict[LinkKey, float]:
    """Undirected link key -> capacity in Mbps (the MIP's unit)."""
    return {
        key: capacity.bps_value / _MBPS
        for key, capacity in topology.link_capacities().items()
    }


def build_partition_model(
    spec: PartitionSpec,
    records: Mapping[str, StatementRecord],
    views: Mapping[str, View],
    capacity_mbps: Mapping[LinkKey, float],
    heuristic: PathSelectionHeuristic,
) -> ProvisioningModel:
    """Build one component's sub-model in canonical order.

    Statement order is the spec's (sorted) identifier order and link order
    is the spec's (sorted) key order, making the model a pure function of
    the component's content.  ``views`` holds each member's view at the
    slack rung the component is being solved at; a view's Equation-1 block
    is built here the first time and reused after that (counted on
    ``model_blocks_built`` / ``model_blocks_reused``).
    """
    blocks: Dict[str, FlowBlock] = {}
    built = 0
    for identifier in spec.statement_ids:
        view = views[identifier]
        if view.block is None:
            view.block = flow_block(view.logical)
            built += 1
        blocks[identifier] = view.block
    if built:
        telemetry.counter("model_blocks_built", built)
    if built < len(blocks):
        telemetry.counter("model_blocks_reused", len(blocks) - built)
    return build_model_for_links(
        spec.statement_ids,
        blocks,
        {identifier: records[identifier].rates for identifier in spec.statement_ids},
        [(key, capacity_mbps[key]) for key in spec.links],
        heuristic=heuristic,
    )


def _raise_component_unsolved(spec: PartitionSpec, status_value: str) -> None:
    """Fail the resolve, claiming infeasibility only where it was proven.

    A solve that stopped at a limit, or a heuristic that found nothing,
    says nothing about whether the guarantees can be met.
    """
    members = ", ".join(spec.statement_ids)
    if status_value == SolveStatus.INFEASIBLE.value:
        raise ProvisioningError(
            "bandwidth provisioning is infeasible for the statement group "
            f"[{members}]: the requested guarantees cannot be satisfied "
            f"(solver status: {status_value})"
        )
    raise ProvisioningError(
        f"bandwidth provisioning failed for the statement group [{members}]: "
        f"no solution found (solver status: {status_value})"
    )


def extract_partition_solution(
    spec: PartitionSpec,
    built: ProvisioningModel,
    result: SolveResult,
    statistics: Dict[str, float],
    construction_seconds: float,
    solve_seconds: float,
    member_slacks: Tuple[Optional[int], ...],
) -> PartitionSolution:
    """Read a component's solve result into a :class:`PartitionSolution`.

    Paths are sliced out of the solution's 0/1 edge columns (see
    :class:`ProvisioningModel` for the column order) and the vector goes no
    further.  A link's reserved fraction is its Equation-2 row evaluated at
    those rounded edge columns — the guarantees routed over the link over
    its capacity — not the solver's continuous ``r_uv`` column, whose last
    ulp depends on which proof of the optimum the solver took (the
    relaxation's vertex or branch-and-cut's incumbent).
    """
    if not result.status.has_solution:
        _raise_component_unsolved(spec, result.status.value)
    x = result.x
    layout = built.model.layout
    location_paths: Dict[str, Tuple[str, ...]] = {}
    for identifier, block, (start, stop) in zip(
        built.members, built.blocks, layout.members
    ):
        selected = [
            block.pairs[index]
            for index in np.flatnonzero(x[start:stop] > 0.5).tolist()
        ]
        location_paths[identifier] = tuple(_extract_path(selected))
    routed = routed_guarantees(built.model, x, len(built.links))
    fractions = {
        key: max(0.0, value)
        for key, value in zip(built.links, (routed / built.capacities).tolist())
    }
    return PartitionSolution(
        spec=spec,
        location_paths=location_paths,
        fractions=fractions,
        status=result.status.value,
        objective=result.objective,
        statistics=statistics,
        num_variables=built.model.num_variables(),
        num_constraints=built.model.num_constraints(),
        construction_seconds=construction_seconds,
        solve_seconds=solve_seconds,
        member_slacks=member_slacks,
    )


def routed_guarantees(form: StandardForm, x: np.ndarray, num_links: int) -> np.ndarray:
    """Each link's routed guarantees (Mbps) at the edge columns of ``x``.

    A link's Equation-2 row (among the last ``num_links`` rows) is
    ``r_uv * c_uv`` minus each guarantee routed over it, so at the edge
    columns alone it reads minus the routed guarantees.  Each row's terms
    are summed one by one in column order from ``0.0``, the order of a CSR
    row's dot product, so a reservation is the same float however the
    form stores its matrix.
    """
    edges = form.layout.r_max
    first = form.num_constraints() - num_links
    count = int(form.start[edges])
    rows = form.index[:count]
    linked = rows >= first
    columns = np.repeat(np.arange(edges), np.diff(form.start[: edges + 1]))
    terms = form.value[:count][linked] * x[columns[linked]]
    sums = np.bincount(rows[linked] - first, weights=terms, minlength=num_links)
    # Without a term bincount counts in integers.
    return -sums.astype(np.float64, copy=False)


@dataclass
class WideningOutcome:
    """What :func:`solve_components_with_widening` hands back to its caller.

    ``specs`` / ``solutions`` are the *final* partition (after any widening
    merged components) and its solutions, aligned.  ``fresh`` is the subset
    of final solutions actually solved by this call; the rest were already
    known — to the memo, or re-addressed out of the content cache.
    """

    specs: List[PartitionSpec] = field(default_factory=list)
    solutions: List[PartitionSolution] = field(default_factory=list)
    fresh: List[PartitionSolution] = field(default_factory=list)
    slack_retries: int = 0
    solver_calls: int = 0
    construction_seconds: float = 0.0
    solve_seconds: float = 0.0
    nodes: Optional[float] = None

    def slack_used(self, base_slack: Optional[int]) -> float:
        """The widest slack any final component was solved with.

        ``None``-slack (untightened) components dominate every finite one
        and are reported as ``inf``.
        """
        slacks = [base_slack]
        for solution in self.solutions:
            slacks.extend(solution.member_slacks)
        return max(
            float("inf") if slack is None else float(slack) for slack in slacks
        )


def _look_up(
    key: MemoKey,
    spec: PartitionSpec,
    known: Dict[MemoKey, PartitionSolution],
    memo: Dict[MemoKey, object],
    component_cache,
    canonical: Callable[[], CanonicalComponent],
) -> Tuple[object, Optional[CanonicalComponent]]:
    """What is already known about the component ``key``, nearest first.

    Asks this call's ``known`` solutions, then the engine's ``memo``, then
    the content cache (under the signature ``canonical()`` computes, and
    only if the other two miss), and answers a :class:`PartitionSolution`,
    :data:`INFEASIBLE_COMPONENT` for a rung proven hopeless, or ``None``
    for a miss: build the model and solve it.  An answer found further
    out is copied inwards, an infeasibility marker as well as a solution,
    so a later resolve finds it in the memo.  The second element is the
    canonical form when the content cache was asked — what
    :func:`_remember` stores a miss's outcome under.
    """
    solution = known.get(key)
    if solution is not None:
        return solution, None
    found = memo.get(key)
    if found is not None:
        _memoize(memo, key, found)  # a hit renews the entry
        if found is INFEASIBLE_COMPONENT:
            telemetry.counter("component_cache_infeasible_hits")
        else:
            telemetry.counter("component_cache_hits")
            known[key] = found
        return found, None
    telemetry.counter("component_cache_misses")
    if component_cache is None:
        return None, None
    canon = canonical()
    stored = component_cache.get(canon.signature)
    if stored is None:
        return None, canon
    if stored is INFEASIBLE_COMPONENT:
        _memoize(memo, key, INFEASIBLE_COMPONENT)
        return INFEASIBLE_COMPONENT, canon
    # Re-address the stored solution to this component's identifiers (the
    # member of each digest rank takes that rank's path); no solve happened
    # here, so the timings are zero and the statistics say it was a hit.
    paths, served = stored
    solution = known[key] = replace(
        served,
        spec=spec,
        location_paths=dict(zip(canon.members, paths)),
        statistics={**served.statistics, "component_cache_hit": 1.0},
        construction_seconds=0.0,
        solve_seconds=0.0,
        member_slacks=key[2],
    )
    _memoize(memo, key, solution)
    return solution, canon


def _remember(
    key: MemoKey,
    canon: Optional[CanonicalComponent],
    status: SolveStatus,
    solution: Optional[PartitionSolution],
    known: Dict[MemoKey, PartitionSolution],
    memo: Dict[MemoKey, object],
    component_cache,
) -> None:
    """Write one fresh solve's outcome where :func:`_look_up` will find it.

    A solution goes to ``known`` and the memo whatever its status (the memo
    is this session's, and the statistics carry the status).  Only a proof
    crosses sessions or outlives the call: the content cache stores
    ``OPTIMAL`` solutions and ``INFEASIBLE`` markers and counts everything
    else as a bypass, and the memo marks a rung infeasible only when that
    was proven — an unproven incumbent must not freeze one run's luck into
    every later run, nor a limit hit before any incumbent pass for
    infeasibility.
    """
    proven = status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    if solution is not None:
        known[key] = solution
        _memoize(memo, key, solution)
    elif proven:
        _memoize(memo, key, INFEASIBLE_COMPONENT)
    if canon is None:
        return
    if not proven:
        component_cache.bypass()
    elif solution is not None:
        paths = tuple(solution.location_paths[sid] for sid in canon.members)
        component_cache.put(canon.signature, (paths, solution))
    else:
        component_cache.put(canon.signature, INFEASIBLE_COMPONENT)


def solve_components_with_widening(
    records: Mapping[str, StatementRecord],
    capacity_mbps: Mapping[LinkKey, float],
    heuristic: PathSelectionHeuristic,
    memo: Dict[MemoKey, object],
    solver,
    footprint_slack: Optional[int] = DEFAULT_FOOTPRINT_SLACK,
    partition: bool = True,
    component_cache=None,
) -> WideningOutcome:
    """Partition, solve, and self-heal cost-bound infeasibilities.

    The one solving loop, entered only from the incremental engine's
    ``resolve()``.  The ladder it walks is a deterministic function of the
    inputs, which is what makes slack widening
    transactional-equivalence-safe: a session that widened its way through
    a failure ends at exactly the allocations a from-scratch compile of
    the same statements would produce.

    The ladder, per round:

    1. take every statement's view at its current slack level (all
       statements start at ``footprint_slack``; levels are per-resolve
       transient, never sticky across calls) — the tightening behind a
       view is done once per record and rung, see :class:`StatementRecord`,
    2. re-partition the entire population — widened footprints can merge
       previously link-disjoint components, and the exactness of the
       decomposition (no link is shared across components) must be
       re-established every round,
    3. :func:`_look_up` every component; build, solve and
       :func:`_remember` the misses, one after another,
    4. for every component without a solution, widen **all** its members
       one rung (2 -> 4 -> 8 -> ``None``) and repeat; a component still
       unsolved with every member untightened raises
       :class:`ProvisioningError`.

    ``memo`` is the engine's solution memo: :data:`MemoKey` ->
    :class:`PartitionSolution`, or the :data:`INFEASIBLE_COMPONENT` marker
    for a rung proven hopeless (skipped without re-solving), bounded at
    :data:`SOLUTION_MEMO_LIMIT` entries.  A rung that ended without a
    solution and without that proof (a limit hit before any incumbent, the
    heuristic finding nothing) widens within this call like an infeasible
    one but is remembered nowhere, see :func:`_remember`.

    With ``partition=False`` the population is not decomposed: every round
    has one component — all statements over every link of
    ``capacity_mbps`` (the engine passes ``footprint_slack=None`` with it,
    so untightened and with no rung to widen to) — in the same sorted
    order as any other component, so it is built, solved, memoized and
    decoded by the same code and is as independent of the order the
    records were entered in.

    ``solver`` is the backend instance every model is handed to, in this
    process, inside a ``component_solve`` span whose duration is the
    solution's ``solve_seconds``.  ``component_cache`` (a
    :class:`repro.fabric.ComponentSolutionCache`) is the look-up's
    outermost layer, asked *after* the memo misses and *before* the model
    is built; a content hit is re-addressed to this component's statement
    ids.
    """
    backend = backend_name(solver)
    slack_by_id: Dict[str, Optional[int]] = {
        sid: footprint_slack for sid in records
    }
    # What this call has learnt, whatever the memo evicts meanwhile.
    known: Dict[MemoKey, PartitionSolution] = {}
    solved_keys: set = set()
    outcome = WideningOutcome()

    def key_of(spec: PartitionSpec) -> MemoKey:
        return (
            heuristic.value,
            tuple(records[sid].token for sid in spec.statement_ids),
            tuple(slack_by_id[sid] for sid in spec.statement_ids),
        )

    # The ladder has at most 6 rungs per statement (0 -> 1 -> 2 -> 4 -> 8 ->
    # None); every round either terminates or widens some member, so the
    # loop is finite.  The guard is belt-and-braces.
    for _round in range(32):
        # The partition span covers everything before the solve — views,
        # re-partition, look-ups, model building — matching what
        # ``construction_seconds`` reports.
        with telemetry.span("partition", round=_round) as partition_span:
            views = {
                sid: record.view(slack_by_id[sid]) for sid, record in records.items()
            }
            tightened = {sid: view.logical for sid, view in views.items()}
            specs = (
                partition_statements(
                    {sid: view.footprint for sid, view in views.items()}
                )
                if partition
                else [
                    PartitionSpec(
                        statement_ids=tuple(sorted(records)),
                        links=tuple(sorted(capacity_mbps)),
                    )
                ]
            )

            resolved: Dict[PartitionSpec, PartitionSolution] = {}
            # The components of this round that have no solution, with the
            # solver status that says so (the error text quotes it).
            unsolved: Dict[PartitionSpec, str] = {}
            to_solve: List[Tuple[PartitionSpec, MemoKey, object]] = []
            for spec in specs:
                key = key_of(spec)
                answer, canon = _look_up(
                    key,
                    spec,
                    known,
                    memo,
                    component_cache,
                    lambda: canonicalize_component(
                        spec,
                        tightened,
                        {sid: records[sid].rates for sid in spec.statement_ids},
                        capacity_mbps,
                        heuristic,
                        solver,
                        key[2],
                    ),
                )
                if answer is None:
                    to_solve.append((spec, key, canon))
                elif answer is INFEASIBLE_COMPONENT:
                    unsolved[spec] = SolveStatus.INFEASIBLE.value
                else:
                    resolved[spec] = answer

            built_models: List[ProvisioningModel] = []
            build_seconds: List[float] = []
            for spec, _key, _canon in to_solve:
                with telemetry.span("build_model") as build_span:
                    built_models.append(
                        build_partition_model(
                            spec, records, views, capacity_mbps, heuristic
                        )
                    )
                build_seconds.append(build_span.duration)
            partition_span.annotate(
                components=len(specs), to_solve=len(to_solve)
            )
        outcome.construction_seconds += partition_span.duration

        if to_solve:
            with telemetry.span("solve", components=len(to_solve)) as solve_span:
                for (spec, key, canon), built, seconds in zip(
                    to_solve, built_models, build_seconds
                ):
                    with telemetry.span("component_solve") as component_span:
                        result = solver.solve(built.model)
                        component_span.annotate(
                            backend=backend,
                            status=result.status.value,
                            members=",".join(spec.statement_ids),
                        )
                    solve_seconds = component_span.duration
                    status = result.status
                    statistics = dict(result.statistics)
                    statistics["backend"] = backend
                    telemetry.counter("solver_calls", backend=backend)
                    telemetry.observe("solve_seconds", solve_seconds, backend=backend)
                    outcome.solver_calls += 1
                    if statistics.get("nodes") is not None:
                        outcome.nodes = (outcome.nodes or 0.0) + (
                            statistics.get("nodes") or 0.0
                        )
                    solution = None
                    if status.has_solution:
                        solution = resolved[spec] = extract_partition_solution(
                            spec,
                            built,
                            result,
                            statistics,
                            seconds,
                            solve_seconds,
                            member_slacks=key[2],
                        )
                        solved_keys.add(key)
                    else:
                        telemetry.counter("components_infeasible")
                        unsolved[spec] = status.value
                    _remember(
                        key, canon, status, solution, known, memo, component_cache
                    )
            outcome.solve_seconds += solve_span.duration

        if not unsolved:
            outcome.specs = specs
            outcome.solutions = [resolved[spec] for spec in specs]
            outcome.fresh = [
                resolved[spec] for spec in specs if key_of(spec) in solved_keys
            ]
            return outcome

        for spec, status_value in unsolved.items():
            # With every member already on the untightened reference model
            # the outcome is the solver's, not a tightening artifact.
            if all(slack_by_id[sid] is None for sid in spec.statement_ids):
                _raise_component_unsolved(spec, status_value)
            outcome.slack_retries += 1
            telemetry.counter("slack_widening_retries")
            for sid in spec.statement_ids:
                slack_by_id[sid] = widen_slack(slack_by_id[sid])

    raise ProvisioningError(
        "slack widening failed to converge (internal error)"
    )  # pragma: no cover


def _merge_one(
    solution: PartitionSolution,
    previous: Optional[_Merged],
    records: Mapping[str, StatementRecord],
    placements: Mapping[str, Iterable[str]],
    locations: FrozenSet[str],
    capacities: Mapping[LinkKey, Bandwidth],
) -> _Merged:
    """What ``solution`` contributes to a merge: the :class:`PathAssignment`
    of each member and the reservation of each link.

    ``previous`` is what an earlier merge derived from the same solution
    object; each part of it is kept while the content it was derived from
    is unchanged.  A record token names one statement and guarantee for
    the life of its engine, and a function placement reads nothing of the
    topology but the engine's location names, which never change, so a
    component no delta touched keeps its assignments, across failures
    too; its reservations last as long as the topology's capacity table.
    """
    tokens = tuple(records[sid].token for sid in solution.location_paths)
    if previous is not None and previous.tokens == tokens:
        assignments = previous.assignments
    else:
        assignments = {}
        for identifier, location_path in solution.location_paths.items():
            record = records[identifier]
            assignments[identifier] = PathAssignment(
                statement_id=identifier,
                path=tuple(location_path),
                function_placements=_assign_functions(
                    record.statement.path, location_path, placements, locations
                ),
                guaranteed_rate=record.rates.guarantee,
            )
    if previous is not None and previous.capacities is capacities:
        reservations = previous.reservations
        utilization, peak = previous.utilization, previous.peak
    else:
        reservations = {}
        utilization = 0.0
        peak = Bandwidth(0.0)
        for key, fraction in solution.fractions.items():
            capacity = capacities.get(key)
            if capacity is None:
                continue
            reservations[key] = amount = Bandwidth(fraction * capacity.bps_value)
            utilization = max(utilization, fraction)
            if amount.bps_value > peak.bps_value:
                peak = amount
    return _Merged(
        tokens, assignments, capacities, reservations, utilization, peak
    )


def merge_partition_solutions(
    solutions: Sequence[PartitionSolution],
    records: Mapping[str, StatementRecord],
    topology: Topology,
    placements: Mapping[str, Iterable[str]],
    locations: FrozenSet[str],
    lp_construction_seconds: float,
    lp_solve_seconds: float,
    heuristic: PathSelectionHeuristic = PathSelectionHeuristic.MIN_MAX_RATIO,
    merged: Optional[Dict[PartitionSolution, _Merged]] = None,
) -> ProvisioningResult:
    """Merge disjoint component solutions into one :class:`ProvisioningResult`.

    Links outside every component's footprint carry zero reservation; the
    maxima (``r_max`` / ``R_max``) are the maxima over components.
    ``locations`` are the names a function placement keeps as locations
    (the engine's, see :func:`~repro.core.provisioning._assign_functions`).
    ``merged`` is the caller's record of what each component contributed
    — its members' path assignments, its links' reservations — by
    solution: the previous merge's on entry, this one's on return.  A
    solution the previous merge saw is not derived again where its content
    still matches (see :func:`_merge_one`), so an engine whose memo hands
    back an unchanged component pays for the components it solved anew.
    ``heuristic`` determines how the per-component dual bounds aggregate:
    the weighted-shortest-path objective is a sum across components, the
    min-max objectives are maxima, and the merged ``best_bound`` follows
    the same shape.
    """
    capacities = topology.link_capacities()
    paths: Dict[str, PathAssignment] = {}
    link_reservations: Dict[LinkKey, Bandwidth] = dict.fromkeys(
        capacities, Bandwidth(0.0)
    )
    max_utilization = 0.0
    max_reservation = Bandwidth(0.0)
    previous = dict(merged or {})
    merged = {} if merged is None else merged
    merged.clear()
    for solution in solutions:
        part = merged[solution] = _merge_one(
            solution,
            previous.get(solution),
            records,
            placements,
            locations,
            capacities,
        )
        paths.update(part.assignments)
        link_reservations.update(part.reservations)
        max_utilization = max(max_utilization, part.utilization)
        if part.peak.bps_value > max_reservation.bps_value:
            max_reservation = part.peak

    statistics: Dict[str, float] = {"partitions": float(len(solutions))}
    nodes = [s.statistics.get("nodes") for s in solutions]
    if any(value is not None for value in nodes):
        statistics["nodes"] = float(sum(value or 0.0 for value in nodes))
    bounds = [s.statistics.get("best_bound") for s in solutions]
    if bounds and all(value is not None for value in bounds):
        objectives = [s.objective for s in solutions]
        if heuristic is PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH:
            merged_bound = float(sum(bounds))
            merged_objective = (
                float(sum(objectives))
                if all(value is not None for value in objectives)
                else None
            )
        else:
            merged_bound = float(max(bounds))
            merged_objective = (
                float(max(objectives))
                if all(value is not None for value in objectives)
                else None
            )
        statistics["best_bound"] = merged_bound
        if merged_objective is not None:
            # Recompute the absolute gap from the *merged* incumbent and
            # bound rather than max-ing per-component gaps, which misstates
            # it in both directions: summed objectives accumulate gaps,
            # and under min-max an optimal dominant component closes a
            # smaller feasible component's gap entirely.
            statistics["gap"] = max(0.0, merged_objective - merged_bound)
    status = (
        SolveStatus.FEASIBLE.value
        if any(s.status == SolveStatus.FEASIBLE.value for s in solutions)
        else SolveStatus.OPTIMAL.value
    )

    return ProvisioningResult(
        paths=paths,
        link_reservations=link_reservations,
        max_utilization=max_utilization,
        max_reservation=max_reservation,
        lp_construction_seconds=lp_construction_seconds,
        lp_solve_seconds=lp_solve_seconds,
        num_variables=sum(s.num_variables for s in solutions),
        num_constraints=sum(s.num_constraints for s in solutions),
        solve_status=status,
        solve_statistics=statistics,
        num_partitions=len(solutions),
        partition_solutions=list(solutions),
    )
