"""The provisioning control plane: long-lived sessions behind async intake.

The paper's compiler is a batch tool; a provider runs it as a *service* —
one live incremental session per tenant group, absorbing a stream of
policy/topology deltas from many tenants at once.  :class:`ControlPlane`
is that daemon:

* ``open_group`` compiles a group's base policy (off the event loop, via
  ``asyncio.to_thread``) and keeps the resulting
  :class:`~repro.core.session.ProvisioningSession` live;
* ``submit`` runs per-tenant admission control (see
  :mod:`repro.service.admission`) and enqueues the delta, returning a
  :class:`Ticket` whose ``result()`` resolves to the batch's
  :class:`~repro.core.allocation.CompilationResult`;
* one worker task per group drains its queue and *batches*: deltas that
  arrived while the previous transaction was solving are merged — when
  their touched statement sets are disjoint
  (:func:`~repro.incremental.delta.merge_policy_deltas`) — into a single
  recompile transaction: one undo-journal checkpoint, one partitioned
  solve, one commit.  A merged transaction that fails rolls back (the
  journal restores pre-batch state exactly) and the members are retried
  individually, so one tenant's infeasible ask cannot sink its
  batch-mates;
* ``query`` / ``statement_state`` return frozen committed-state snapshots
  (per-statement paths and rates, revision, last batch's solver
  statistics) without touching the live session.

Deltas for *different* groups run concurrently (one worker each); deltas
for one group serialize through its queue, which is what makes batching
safe.  The control plane must be used from within a single running event
loop — ``async with ControlPlane() as plane: ...`` is the intended shape.

The daemon carries its own :class:`~repro.telemetry.Telemetry` bundle
(metrics-only by default, sharing the injected ``clock``): every batch
executes inside a ``batch`` span that covers queue-wait accounting, delta
merging, the recompile transaction, and the commit, so the compiler's own
spans and counters nest under it (``asyncio.to_thread`` copies the
context).  ``metrics()`` freezes the registry into a
:class:`~repro.telemetry.MetricsSnapshot` — the operational counterpart
of :class:`~repro.service.state.GroupState` — without touching the live
sessions.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry as _telemetry
from ..core.compiler import MerlinCompiler
from ..core.options import ProvisionOptions
from ..errors import ProvisioningError
from ..fabric import ComponentSolutionCache
from ..incremental.delta import PolicyDelta, merge_policy_deltas
from ..telemetry import MetricsRegistry, MetricsSnapshot, Telemetry
from .admission import AdmissionPolicy, TenantGate
from .state import BatchRecord, GroupState, StatementState, TenantStats, statement_states

__all__ = ["ControlPlane", "Ticket"]

#: Queue sentinel: the worker processes everything ahead of it, then exits.
_SHUTDOWN = object()

#: How many queued deltas one transaction may absorb.
MAX_BATCH = 16


def _num_changes(delta) -> int:
    """The changes ``delta`` makes; a scenario event counts those of the
    delta its ``to_delta()`` returns."""
    to_delta = getattr(delta, "to_delta", None)
    return (delta if to_delta is None else to_delta()).num_changes()


class Ticket:
    """A pending submission; ``await ticket.result()`` for the outcome.

    The result is the full :class:`CompilationResult` of the transaction
    that committed the delta (possibly a merged batch containing other
    tenants' deltas too).  A failed delta raises the transaction's error
    here; the group's committed state is untouched by the failure.
    """

    __slots__ = ("group", "tenant", "delta", "submitted_at", "_future")

    def __init__(
        self,
        group: str,
        tenant: str,
        delta: object,
        future: "asyncio.Future",
        submitted_at: float = 0.0,
    ) -> None:
        self.group = group
        self.tenant = tenant
        self.delta = delta
        #: Control-plane clock reading at ``submit``; the batch span
        #: subtracts it to observe this ticket's queue wait.
        self.submitted_at = submitted_at
        self._future = future

    async def result(self):
        return await self._future

    def done(self) -> bool:
        return self._future.done()


class _Group:
    """Mutable per-group state, owned by the control plane's event loop."""

    def __init__(
        self,
        name: str,
        compiler: MerlinCompiler,
        admission: AdmissionPolicy,
        base_result,
    ) -> None:
        self.name = name
        self.compiler = compiler
        self.handle = compiler.session()
        self.admission = admission
        self.revision = 0
        self.statements: Dict[str, StatementState] = statement_states(base_result)
        # Copies, not reads through ``handle``: the live session's failed sets
        # are edited while a topology transaction is still solving (and may
        # yet roll back), and ``query`` must only ever show committed state.
        self.failed_links: frozenset = self.handle.failed_links
        self.failed_nodes: frozenset = self.handle.failed_nodes
        self.last_batch: Optional[BatchRecord] = None
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.gates: Dict[str, TenantGate] = {}
        self.counters: Dict[str, Dict[str, int]] = {}
        self.worker: Optional["asyncio.Task"] = None

    def tenant_counters(self, tenant: str) -> Dict[str, int]:
        return self.counters.setdefault(
            tenant, {"submitted": 0, "committed": 0, "rejected": 0, "failed": 0}
        )


class ControlPlane:
    """One daemon, many tenant groups, one live session per group.

    ``admission`` is the default :class:`AdmissionPolicy` for every group
    (overridable per group at ``open_group``); ``clock`` feeds the
    admission token buckets *and* the daemon's telemetry bundle, and
    exists to be replaced in tests.  One transaction absorbs at most
    :data:`MAX_BATCH` queued deltas.  Pass ``telemetry`` to trace
    batches too (e.g. ``Telemetry.recording(clock=clock)``); the default
    is metrics-only, queryable via :meth:`metrics`.

    A :class:`~repro.fabric.ComponentSolutionCache` passed as
    ``component_cache`` is injected into every group's compiler,
    so identical components across tenant groups solve once; its
    ``component_signature_*`` counters land in :meth:`metrics` because
    batches run inside this plane's telemetry bundle.
    """

    def __init__(
        self,
        *,
        admission: Optional[AdmissionPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Optional[Telemetry] = None,
        component_cache: Optional[ComponentSolutionCache] = None,
    ) -> None:
        self._admission = admission if admission is not None else AdmissionPolicy()
        self._clock = clock
        self._telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(metrics=MetricsRegistry(), clock=clock)
        )
        self._component_cache = component_cache
        self._groups: Dict[str, _Group] = {}
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ControlPlane":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    def start(self) -> None:
        """Start (or resume) one worker task per open group.

        Deltas may be submitted before ``start()``; they queue up and are
        drained — batched — once the workers run.
        """
        self._started = True
        self._closing = False
        for group in self._groups.values():
            if group.worker is None:
                group.worker = asyncio.ensure_future(self._worker(group))

    async def shutdown(self) -> None:
        """Process every queued delta, then stop all workers."""
        self._closing = True
        workers = []
        for group in self._groups.values():
            if group.worker is not None:
                group.queue.put_nowait(_SHUTDOWN)
                workers.append(group)
        for group in workers:
            await group.worker
            group.worker = None
        self._started = False

    async def open_group(
        self,
        name: str,
        policy,
        *,
        compiler: Optional[MerlinCompiler] = None,
        topology=None,
        placements=None,
        options=None,
        admission: Optional[AdmissionPolicy] = None,
        **compiler_kwargs,
    ) -> GroupState:
        """Compile a group's base policy and open its live session.

        Pass a ready ``compiler``, or a ``topology`` (plus optional
        ``placements`` / ``options`` / further :class:`MerlinCompiler`
        keywords) to build one.  The compile runs in a thread so the event
        loop — and the other groups' intake — stays responsive.

        The plane's component cache (when configured) is injected into the
        group's options unless the options already carry their own — a
        group keeps its own cache by passing
        ``options=ProvisionOptions(component_cache=...)`` explicitly.
        """
        if name in self._groups:
            raise ProvisioningError(f"group {name!r} is already open")
        if compiler is None:
            if topology is None:
                raise ProvisioningError(
                    "open_group needs either a compiler or a topology"
                )
            compiler = MerlinCompiler(
                topology=topology,
                placements=placements or {},
                options=self._inject_cache(options),
                **compiler_kwargs,
            )
        else:
            compiler.options = self._inject_cache(compiler.options)
        with self._telemetry.use():
            # to_thread copies the context, so the compile's spans and
            # counters land in this plane's bundle.
            result = await asyncio.to_thread(compiler.compile, policy)
            _telemetry.counter("groups_opened")
        group = _Group(
            name,
            compiler,
            admission if admission is not None else self._admission,
            result,
        )
        self._groups[name] = group
        if self._started:
            group.worker = asyncio.ensure_future(self._worker(group))
        return self.query(name)

    def _inject_cache(
        self, options: Optional[ProvisionOptions]
    ) -> Optional[ProvisionOptions]:
        """Fill a group's unset ``component_cache`` with the plane's own
        (an explicit per-group cache wins)."""
        if self._component_cache is None:
            return options
        resolved = options if options is not None else ProvisionOptions()
        if resolved.component_cache is not None:
            return resolved
        return dataclasses.replace(resolved, component_cache=self._component_cache)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, name: str, delta, *, tenant: str = "default") -> Ticket:
        """Admit one tenant delta into a group's intake queue.

        Raises :class:`~repro.service.admission.AdmissionError` when the
        tenant is over its outstanding or rate limit — before the delta
        touches the queue, so committed state and other tenants are
        undisturbed.  ``delta`` is anything ``ProvisioningSession.apply``
        accepts: a :class:`PolicyDelta`, a ``TopologyDelta``, or an object
        with ``to_delta()`` (scenario events).
        """
        if self._closing:
            raise ProvisioningError("the control plane is shutting down")
        group = self._group(name)
        # Outside a running loop this raises before the tenant is counted
        # or admitted, so a failed call leaks no admission slot.
        loop = asyncio.get_running_loop()
        counters = group.tenant_counters(tenant)
        counters["submitted"] += 1
        gate = group.gates.get(tenant)
        if gate is None:
            gate = group.gates[tenant] = TenantGate(
                group.admission, clock=self._clock
            )
        metrics = self._telemetry.metrics
        try:
            gate.admit(tenant)
        except Exception:
            counters["rejected"] += 1
            if metrics is not None:
                metrics.counter("admission_rejected", group=name, tenant=tenant)
            raise
        if metrics is not None:
            metrics.counter("admission_admitted", group=name, tenant=tenant)
        future = loop.create_future()
        ticket = Ticket(name, tenant, delta, future, submitted_at=self._clock())
        group.queue.put_nowait(ticket)
        return ticket

    # ------------------------------------------------------------------
    # query surface
    # ------------------------------------------------------------------
    def groups(self) -> Tuple[str, ...]:
        return tuple(self._groups)

    def query(self, name: str) -> GroupState:
        """A frozen snapshot of a group's last *committed* state."""
        group = self._group(name)
        return GroupState(
            group=name,
            revision=group.revision,
            statements=dict(group.statements),
            failed_links=group.failed_links,
            failed_nodes=group.failed_nodes,
            last_batch=group.last_batch,
            tenants={
                tenant: TenantStats(tenant=tenant, **counts)
                for tenant, counts in group.counters.items()
            },
        )

    def metrics(self) -> MetricsSnapshot:
        """A frozen snapshot of the daemon's metrics registry.

        The operational sibling of :meth:`query`: admission decisions,
        queue waits, batch sizes and outcomes, plus everything the
        compiler and solver backends counted while running inside the
        plane's batches (cache hits, slack retries, per-backend solve
        seconds, ...).  Empty when the plane was built with a
        metrics-less :class:`~repro.telemetry.Telemetry`.
        """
        return self._telemetry.snapshot()

    def statement_state(self, name: str, identifier: str) -> StatementState:
        group = self._group(name)
        try:
            return group.statements[identifier]
        except KeyError:
            raise ProvisioningError(
                f"group {name!r} has no committed statement {identifier!r}"
            ) from None

    # ------------------------------------------------------------------
    # the per-group worker
    # ------------------------------------------------------------------
    async def _worker(self, group: _Group) -> None:
        while True:
            first = await group.queue.get()
            batch = [first]
            while len(batch) < MAX_BATCH:
                try:
                    batch.append(group.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stop = _SHUTDOWN in batch
            tickets = [item for item in batch if item is not _SHUTDOWN]
            for run in self._plan_runs(tickets):
                await self._execute(group, run)
            if stop:
                return

    def _plan_runs(self, tickets: List[Ticket]) -> List[List[Ticket]]:
        """Split a drained batch into mergeable runs, preserving order.

        Consecutive :class:`PolicyDelta` submissions with pairwise-disjoint
        touched statements form one run (one merged transaction); a delta
        overlapping its run, a topology delta, or a ``to_delta`` event
        closes the run and executes alone.
        """
        runs: List[List[Ticket]] = []
        current: List[Ticket] = []
        touched: set = set()
        for ticket in tickets:
            delta = ticket.delta
            if isinstance(delta, PolicyDelta):
                mine = delta.touched_identifiers()
                if current and not (touched & mine):
                    current.append(ticket)
                    touched |= mine
                    continue
                if current:
                    runs.append(current)
                current = [ticket]
                touched = set(mine)
            else:
                if current:
                    runs.append(current)
                    current = []
                    touched = set()
                runs.append([ticket])
        if current:
            runs.append(current)
        return runs

    async def _execute(self, group: _Group, run: List[Ticket]) -> None:
        retry = False
        with self._telemetry.use():
            with _telemetry.span(
                "batch", group=group.name, deltas=len(run), merged=len(run) > 1
            ) as batch_span:
                # Queue wait: submit() to this batch span opening, on the
                # plane's clock.  A ticket retried after a merged-batch
                # failure is observed again with its longer wait — its
                # individual execution really did start that much later.
                waits = tuple(
                    max(0.0, batch_span.start - ticket.submitted_at)
                    for ticket in run
                )
                for wait in waits:
                    _telemetry.observe("queue_wait_seconds", wait, group=group.name)
                if len(run) == 1:
                    ticket = run[0]
                    try:
                        result = await asyncio.to_thread(
                            group.handle.apply, ticket.delta
                        )
                    except Exception as exc:
                        batch_span.annotate(error=type(exc).__name__)
                        _telemetry.counter("batches_failed", group=group.name)
                        self._fail(group, ticket, exc)
                    else:
                        self._commit(
                            group,
                            run,
                            result,
                            merged=False,
                            started=batch_span.start,
                            queue_waits=waits,
                        )
                    return
                with _telemetry.span("merge", deltas=len(run)):
                    merged = merge_policy_deltas([ticket.delta for ticket in run])
                try:
                    result = await asyncio.to_thread(group.handle.apply, merged)
                except Exception:
                    # The merged transaction rolled back to pre-batch state;
                    # retry each member alone (outside this span, as its own
                    # batch) so only the actual offender fails.
                    batch_span.annotate(retried_individually=True)
                    _telemetry.counter("batch_splits", group=group.name)
                    retry = True
                else:
                    self._commit(
                        group,
                        run,
                        result,
                        merged=True,
                        started=batch_span.start,
                        queue_waits=waits,
                    )
        if retry:
            for ticket in run:
                await self._execute(group, [ticket])

    def _commit(
        self,
        group: _Group,
        run: List[Ticket],
        result,
        merged: bool,
        started: float = 0.0,
        queue_waits: Tuple[float, ...] = (),
    ) -> None:
        group.revision += 1
        group.statements = statement_states(result)
        group.failed_links = group.handle.failed_links
        group.failed_nodes = group.handle.failed_nodes
        _telemetry.counter("batches_committed", group=group.name)
        _telemetry.observe("batch_deltas", float(len(run)), group=group.name)
        group.last_batch = BatchRecord(
            revision=group.revision,
            tenants=tuple(ticket.tenant for ticket in run),
            num_deltas=len(run),
            num_changes=sum(_num_changes(ticket.delta) for ticket in run),
            merged=merged,
            statistics=result.statistics,
            execute_seconds=max(0.0, self._clock() - started),
            queue_wait_seconds=queue_waits,
        )
        for ticket in run:
            group.tenant_counters(ticket.tenant)["committed"] += 1
            self._settle(group, ticket)
            if not ticket._future.done():
                ticket._future.set_result(result)

    def _fail(self, group: _Group, ticket: Ticket, exc: BaseException) -> None:
        group.tenant_counters(ticket.tenant)["failed"] += 1
        self._settle(group, ticket)
        if not ticket._future.done():
            ticket._future.set_exception(exc)

    def _settle(self, group: _Group, ticket: Ticket) -> None:
        gate = group.gates.get(ticket.tenant)
        if gate is not None:
            gate.settle()

    def _group(self, name: str) -> _Group:
        try:
            return self._groups[name]
        except KeyError:
            raise ProvisioningError(f"no open group named {name!r}") from None
