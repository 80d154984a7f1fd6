"""The six workloads: set-up, the timed loop, and output checking.

Each workload builds its inputs from the seed (:mod:`inputs`), hands the
program nothing but policy text, deltas, events and topologies, times one
*op* at a time, and checks outputs with :mod:`check` outside the timed
section.  ``README.md`` says why each workload exists and what its op is.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import (
    Bandwidth,
    ComponentSolutionCache,
    ControlPlane,
    MerlinCompiler,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
    fat_tree,
    parse_policy,
    stanford_campus,
)
from repro.core.ast import BandwidthTerm, FMax, Policy, Statement, formula_and
from repro.incremental.delta import DeltaStatement
from repro.predicates.ast import FieldTest, pred_and, pred_not, pred_or
from repro.regex.ast import DOT, Symbol, concat, star
from repro.scenarios import ScenarioConfig, generate_scenario

import inputs
from check import Expected, Network, check_allocation, expected_from_text, link_key, network_view
from reference import Reference
from stats import percentile

clock = time.perf_counter

#: Ops whose allocation quality is recorded; fixed so the numbers repeat
#: exactly for one seed however many ops the time budget allows.
QUALITY_OPS = 8


@dataclass
class Budget:
    """When to stop issuing ops: after ``seconds`` of timed work, or ``ops``."""

    seconds: float
    ops: Optional[int] = None

    def open(self, spent: float, done: int) -> bool:
        return done < self.ops if self.ops is not None else spent < self.seconds


@dataclass
class Outcome:
    """What one measured run produced."""

    latencies: List[float] = field(default_factory=list)  # wall seconds, one per op
    cpus: List[float] = field(default_factory=list)  # process CPU seconds, one per op
    timed_s: float = 0.0  # sum of the latencies: ops are issued one at a time
    reference: Reference = field(default_factory=Reference)  # machine speed between ops
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    def record(self, wall: float, cpu: float) -> None:
        self.attempted += 1
        self.timed_s += wall
        self.latencies.append(wall)
        self.cpus.append(cpu)
        self.reference.sample(self.timed_s)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def record_quality(self, result) -> None:
        """Allocation quality of one result, taken at a fixed op per workload."""
        emitted = result.instructions.total() if result.instructions is not None else 0
        self.extras["alloc.max_utilization"] = result.max_link_utilization()
        self.extras["alloc.instructions"] = float(emitted)


def timed(call: Callable[[], object]) -> Tuple[object, float, float, Optional[str]]:
    """``(value, wall seconds, cpu seconds, error)`` of one op."""
    cpu = time.process_time()
    start = clock()
    try:
        value, error = call(), None
    except Exception as exc:  # the op boundary: a failed op is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, clock() - start, time.process_time() - cpu, error


class Workload:
    """Base: ``setup()`` is timed as ``setup_s``; ``measure()`` runs the ops."""

    name = ""
    #: The percentile reported as ``op_tail_ms``: the highest the workload's
    #: sample supports with ten values beyond it, fixed here so that it does
    #: not move when a faster program fits more ops into the run.
    tail = 50

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.digest = ""

    def rng(self, *parts: object):
        return inputs.rng_for(self.name, self.seed, *parts)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, budget: Budget) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything the workload started."""


def host_macs(topology) -> Tuple[List[str], Dict[str, str]]:
    hosts = topology.host_names()
    return hosts, {name: topology.node(name).mac for name in hosts}


# -- compile workloads --------------------------------------------------------


class CompileWorkload(Workload):
    """Closed loop, one client: a fresh compiler compiles one fresh policy."""

    placements: Dict[str, Tuple[str, ...]] = {}
    compiler_options: Dict[str, object] = {}

    def build_topology(self):
        raise NotImplementedError

    def policy(self, index: object) -> inputs.PolicyInput:
        raise NotImplementedError

    def setup(self) -> None:
        self.topology = self.build_topology()
        self.network = network_view(self.topology)
        self.hosts, self.macs = host_macs(self.topology)
        self.digest = inputs.digest(*(self.policy(i).source for i in range(QUALITY_OPS)))
        self.compile(self.policy("warm-up").source)

    def compile(self, source: str):
        compiler = MerlinCompiler(
            topology=self.topology, placements=self.placements, **self.compiler_options
        )
        return compiler.compile(source)

    def measure(self, budget: Budget) -> Outcome:
        outcome = Outcome()
        utilization, instructions = [], 0
        while budget.open(outcome.timed_s, outcome.attempted):
            policy = self.policy(outcome.attempted)
            result, wall, cpu, error = timed(lambda: self.compile(policy.source))
            outcome.record(wall, cpu)
            problems = [error] if error else check_allocation(
                self.network, policy.expected, self.placements, result
            )
            if problems:
                outcome.fail(f"op {outcome.attempted - 1}: {problems[0]}")
            elif len(utilization) < QUALITY_OPS:
                utilization.append(result.max_link_utilization())
                instructions += result.instructions.total()
        if utilization:
            outcome.extras["alloc.max_utilization"] = sum(utilization) / len(utilization)
            outcome.extras["alloc.instructions"] = float(instructions)
        return outcome


class CompileGuaranteed(CompileWorkload):
    name = "compile-guaranteed"
    compiler_options = {"overlap": "trust", "add_catch_all": False}
    classes = 300

    def build_topology(self):
        return fat_tree(8)

    def policy(self, index):
        return inputs.guaranteed_policy(self.hosts, self.macs, self.rng(index), self.classes)


class CompileCampusDefault(CompileWorkload):
    name = "compile-campus-default"
    placements = {"dpi": ("dpi1", "dpi2"), "monitor": ("mon1", "mon2")}

    def build_topology(self):
        # The Stanford-like campus with a DPI box on each backbone router and
        # a monitor on the first two zone routers (the Figure 4 set-up).
        topology = stanford_campus(subnets=12)
        for box, switch in (
            ("dpi1", "bbra_rtr"), ("dpi2", "bbrb_rtr"), ("mon1", "zone1_rtr"), ("mon2", "zone2_rtr")
        ):
            topology.add_middlebox(box, attached_switch=switch)
            topology.add_link(box, switch)
        return topology

    def policy(self, index):
        return inputs.campus_policy(self.hosts, self.macs, self.rng(index))


# -- churn-session ------------------------------------------------------------


class ChurnSession(Workload):
    """Closed loop, one client: scenario events applied to one live session."""

    name = "churn-session"
    tail = 95
    background = 240
    warm_events = 20
    check_every = 50
    quality_event = 200
    #: More than a run applies; the stream ends the run early if a much
    #: faster program ever exhausts it.
    events = 4000
    compiler_options = {"overlap": "trust", "add_catch_all": False, "generate_code": True}

    def setup(self) -> None:
        scenario = generate_scenario(
            ScenarioConfig(seed=self.seed, events=self.events, arity=4)
        )
        population = scenario.population
        self.scenario = scenario
        self.topology = population.topology
        self.placements = {name: tuple(where) for name, where in population.placements.items()}
        self.pristine = network_view(self.topology)
        hosts, macs = host_macs(self.topology)
        background = inputs.background_policy(hosts, macs, self.rng("background"), self.background)
        self.digest = inputs.digest(
            background.source, [event.describe() for event in scenario.events]
        )
        self.model: Dict[str, Expected] = {item.identifier: item for item in background.expected}
        for statement in population.policy.statements:
            self.expect(statement, population.base_rates_mbps[statement.identifier] * 1e6)
        self.failed_links: set = set()
        self.failed_nodes: set = set()
        extra = parse_policy(background.source, topology=self.topology)
        self.compiler = MerlinCompiler(
            topology=self.topology, placements=self.placements, **self.compiler_options
        )
        self.compiler.compile(
            Policy(
                statements=population.policy.statements + extra.statements,
                formula=population.policy.formula,
            )
        )
        self.compiler.prepare_incremental()
        self.session = self.compiler.session()
        for event in scenario.events[: self.warm_events]:
            self.session.apply(event)
            self.absorb(event)

    def expect(self, statement, guarantee_bps: Optional[float]) -> None:
        """Enter a statement of the program's own generator into the model,
        read from its printed predicate and path expression."""
        self.model[statement.identifier] = expected_from_text(
            self.pristine, statement.identifier, str(statement.predicate),
            str(statement.path), guarantee_bps,
        )

    def absorb(self, event) -> None:
        """Update the checker's own model of the population and the fabric."""
        kind = event.kind
        if kind == "link-failure":
            self.failed_links.add(link_key(*event.link))
        elif kind == "link-recovery":
            self.failed_links.discard(link_key(*event.link))
        elif kind == "switch-failure":
            self.failed_nodes.add(event.switch)
        elif kind == "switch-recovery":
            self.failed_nodes.discard(event.switch)
        elif kind == "tenant-leave":
            for identifier in event.identifiers:
                self.model.pop(identifier, None)
        elif kind == "renegotiation":
            for update in event.updates:
                rate = update.guarantee.bps_value if update.guarantee is not None else None
                self.model[update.identifier] = replace(
                    self.model[update.identifier], guarantee_bps=rate
                )
        else:  # tenant-join, middlebox-rewrite
            entries = event.added if kind == "tenant-join" else event.replacement
            if kind == "middlebox-rewrite":
                del self.model[event.identifier]
            for entry in entries:
                self.expect(
                    entry.statement,
                    entry.guarantee.bps_value if entry.guarantee is not None else None,
                )

    def network(self) -> Network:
        return network_view(self.topology, self.failed_links, self.failed_nodes)

    def check(self, result) -> List[str]:
        return check_allocation(
            self.network(), list(self.model.values()), self.placements, result
        )

    def measure(self, budget: Budget) -> Outcome:
        outcome = Outcome()
        last = None
        widened = 0
        for event in self.scenario.events[self.warm_events:]:
            if not budget.open(outcome.timed_s, outcome.attempted):
                break
            result, wall, cpu, error = timed(lambda: self.session.apply(event))
            outcome.record(wall, cpu)
            if error:
                outcome.fail(f"event {event.index} ({event.kind}): {error}")
                continue
            self.absorb(event)
            last = result
            widened += result.statistics.slack_retries > 0
            if outcome.attempted % self.check_every == 0:
                problems = self.check(result)
                if problems:
                    outcome.fail(f"event {event.index}: {problems[0]}")
            if outcome.attempted == self.quality_event:
                outcome.record_quality(result)
        if last is not None:
            outcome.problems.extend(self.check(last))
            outcome.problems.extend(self.against_fresh_compile(last))
        if not widened:
            outcome.problems.append("no event exercised slack widening")
        return outcome

    def against_fresh_compile(self, last) -> List[str]:
        """The replayed history must equal a fresh compile plus one failure delta."""
        fresh = MerlinCompiler(
            topology=self.topology, placements=self.placements, **self.compiler_options
        )
        scratch = fresh.compile(last.policy)
        if self.failed_links or self.failed_nodes:
            scratch = fresh.recompile(
                TopologyDelta(
                    fail_links=tuple(sorted(self.failed_links)),
                    fail_nodes=tuple(sorted(self.failed_nodes)),
                )
            )
        if {k: tuple(a.path) for k, a in last.paths.items()} != {
            k: tuple(a.path) for k, a in scratch.paths.items()
        }:
            return ["final session paths differ from a fresh compile"]
        mine = {k: v.bps_value for k, v in last.link_reservations.items()}
        theirs = {k: v.bps_value for k, v in scratch.link_reservations.items()}
        if mine.keys() != theirs.keys() or any(
            abs(mine[k] - theirs[k]) > 1.0 for k in mine
        ):
            return ["final session reservations differ from a fresh compile"]
        return []


# -- service workloads --------------------------------------------------------


class ServiceWorkload(Workload):
    """One control plane, one group, eight pod tenants on ``fat_tree(8)``."""

    tail = 95
    group = "tenants"
    arity = 8
    pairs_per_pod = 2
    base_rate_mbps = 50.0
    warm_requests = 16
    compiler_options = {"overlap": "trust", "add_catch_all": False}

    def setup(self) -> None:
        self.topology = fat_tree(self.arity)
        self.network = network_view(self.topology)
        _, macs = host_macs(self.topology)
        half = self.arity // 2
        pods = []
        for pod in range(self.arity):
            edge = [f"e{pod}_{i}" for i in range(half)]
            aggregation = [f"a{pod}_{i}" for i in range(half)]
            hosts = [host for switch in edge for host in self.topology.hosts_on_switch(switch)]
            pods.append(inputs.Pod(tuple(edge + aggregation), tuple(hosts)))
        base = inputs.tenant_base(
            pods, macs, self.rng("base"), self.pairs_per_pod, self.base_rate_mbps
        )
        self.requests = inputs.TenantRequests(pods, macs, self.rng("requests"), base)
        self.model: Dict[str, Expected] = {item.identifier: item for item in base.expected}
        warm = self.requests.take(self.warm_requests)
        self.digest = inputs.digest(base.source, warm)
        self.loop = asyncio.new_event_loop()
        self.plane = ControlPlane(component_cache=ComponentSolutionCache())
        self.loop.run_until_complete(self.open(base.source, warm))

    async def open(self, source: str, warm: Sequence[inputs.DeltaSpec]) -> None:
        self.plane.start()
        await self.plane.open_group(
            self.group, source, topology=self.topology, **self.compiler_options
        )
        for spec in warm:
            await self.plane.submit(self.group, self.delta(spec)).result()
            inputs.apply_spec(self.model, spec)

    def delta(self, spec: inputs.DeltaSpec) -> PolicyDelta:
        rate = Bandwidth.mbps(spec.rate_mbps)
        if spec.kind == "join":
            parsed = parse_policy(f"[ {spec.statement} ]", topology=self.topology)
            return PolicyDelta(add=(DeltaStatement(parsed.statements[0], guarantee=rate),))
        if spec.kind == "leave":
            return PolicyDelta(remove=(spec.identifier,))
        return PolicyDelta(update_rates=(RateUpdate(spec.identifier, guarantee=rate),))

    def measure(self, budget: Budget) -> Outcome:
        outcome = Outcome()
        self.queue_waits: List[float] = []
        self.tickets = 0
        before = self.plane.query(self.group).revision
        self.loop.run_until_complete(self.drive(budget, outcome))
        waits = self.queue_waits
        if waits:
            outcome.extras["service.queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
            outcome.extras["service.queue_wait_p95_ms"] = percentile(waits, 95) * 1e3
        batches = self.plane.query(self.group).revision - before
        if batches:
            outcome.extras["service.deltas_per_batch"] = self.tickets / batches
        return outcome

    async def drive(self, budget: Budget, outcome: Outcome) -> None:
        raise NotImplementedError

    async def op(self, specs: Sequence[inputs.DeltaSpec], outcome: Outcome) -> None:
        """One op: submit ``specs`` at once, wait until the last ticket settles."""
        deltas = [self.delta(spec) for spec in specs]
        cpu = time.process_time()
        start = clock()
        errors, waiting = [], []
        for spec, delta in zip(specs, deltas):
            submitted = clock()
            try:
                ticket = self.plane.submit(self.group, delta, tenant=f"t{spec.tenant}")
            except Exception as exc:  # refused at admission: the op failed
                errors.append(f"{spec.identifier}: {type(exc).__name__}: {exc}")
                continue
            waiting.append(self.settle(spec, ticket, submitted))
        errors.extend(error for error in await asyncio.gather(*waiting) if error)
        outcome.record(clock() - start, time.process_time() - cpu)
        self.tickets += len(waiting)
        if errors:
            outcome.fail(errors[0])
        elif not outcome.failed:  # after a failure the model no longer follows the service
            for spec in specs:
                inputs.apply_spec(self.model, spec)

    async def settle(self, spec, ticket, submitted: float) -> Optional[str]:
        """Wait for one ticket: ``None`` once it committed, else what went wrong."""
        try:
            result = await ticket.result()
        except Exception as exc:  # the transaction failed
            return f"{spec.identifier}: {type(exc).__name__}: {exc}"
        if self.tracer is not None:
            started = self.tracer.start_of(result)
            if started is not None:
                self.queue_waits.append(max(0.0, started - submitted))
        # Requests of one group commit in submission order, so the latest
        # result is the group's committed state; earlier ones are dropped
        # here so that peak memory is the program's, not the harness's.
        self.committed = result
        return None

    def check_committed(self, outcome: Outcome) -> None:
        """The last transaction's result is the committed state of the group."""
        outcome.problems.extend(
            check_allocation(self.network, list(self.model.values()), {}, self.committed)
        )

    def close(self) -> None:
        self.loop.run_until_complete(self.plane.shutdown())
        self.loop.close()


class ServiceTicket(ServiceWorkload):
    """Closed loop, one client: the next request is submitted when the last
    ticket settles, so each ticket crosses the service alone."""

    name = "service-ticket"
    check_every = 100
    quality_ticket = 200

    async def drive(self, budget: Budget, outcome: Outcome) -> None:
        while budget.open(outcome.timed_s, outcome.attempted):
            await self.op(self.requests.take(1), outcome)
            if outcome.failed:
                continue
            if outcome.attempted == self.quality_ticket:
                outcome.record_quality(self.committed)
            if outcome.attempted % self.check_every == 0:
                self.check_committed(outcome)
        if not outcome.failed:
            self.check_committed(outcome)


class ServiceBurst(ServiceWorkload):
    """Closed bursts: ``burst`` requests land at once and the op lasts until
    the last of them settles; the next burst follows.  Throughput with merged
    transactions."""

    name = "service-burst"
    tail = 75
    burst = 32

    async def drive(self, budget: Budget, outcome: Outcome) -> None:
        merged = False
        while budget.open(outcome.timed_s, outcome.attempted):
            before = self.plane.query(self.group).revision
            await self.op(self.requests.take(self.burst), outcome)
            merged = merged or self.plane.query(self.group).revision - before < self.burst
            if outcome.failed:
                continue
            if outcome.attempted == 1:
                outcome.record_quality(self.committed)
            self.check_committed(outcome)
        if not merged:
            outcome.problems.append("no burst merged a batch")


# -- verify-delegation --------------------------------------------------------


class VerifyDelegation(Workload):
    """Closed loop, one client: one refinement verdict per op."""

    name = "verify-delegation"
    tail = 90

    def setup(self) -> None:
        self.any_path = star(DOT)
        self.tcp = FieldTest("ip.proto", 6)
        # The cap family's statements are shared by every op; only the
        # clauses differ, so building them is kept out of the loop.
        self.pool = tuple(
            Statement(f"o{i}", FieldTest("tcp.dst", i + 1), self.any_path)
            for i in range(inputs.VERIFY_SIZES["caps"][1])
        )
        self.digest = inputs.digest([self.spec(i) for i in range(30)])
        for index in range(3):
            repro.verify_refinement(*self.build(self.spec(f"warm-up-{index}", index)))

    def spec(self, key: object, index: Optional[int] = None) -> inputs.VerifySpec:
        return inputs.verify_spec(self.rng(key), key if index is None else index)

    def build(self, spec: inputs.VerifySpec) -> Tuple[Policy, Policy]:
        """(original, refined); an invalid refinement differs in its *last*
        port / waypoint / clause so the verifier cannot exit early."""
        if spec.family == "ports":
            ports = range(spec.offset, spec.offset + spec.size)
            kept = ports if spec.valid else ports[:-1]  # a hole in the coverage
            statements = [
                Statement(f"p{port}", pred_and(self.tcp, FieldTest("tcp.dst", port)), self.any_path)
                for port in kept
            ]
            rest = pred_and(
                self.tcp, pred_not(pred_or(*[FieldTest("tcp.dst", port) for port in ports]))
            )
            statements.append(Statement("rest", rest, self.any_path))
            original = Policy(statements=(Statement("all", self.tcp, self.any_path),))
            return original, Policy(statements=tuple(statements))
        if spec.family == "waypoints":
            names = [f"f{spec.offset + i}" for i in range(spec.size)]
            refined_names = names + ["extra"] if spec.valid else names[:-1] + ["other"]
            return (
                Policy(statements=(Statement("x", self.tcp, self.chain(names)),)),
                Policy(statements=(Statement("x", self.tcp, self.chain(refined_names)),)),
            )
        statements = self.pool[: spec.size]
        cap = 10.0 + spec.offset % 50

        def caps(rates: Sequence[float]) -> Policy:
            return Policy(
                statements=statements,
                formula=formula_and(
                    *[
                        FMax(BandwidthTerm((f"o{i}",)), Bandwidth.mbps(rate))
                        for i, rate in enumerate(rates)
                    ]
                ),
            )

        tightened = [cap / 2] * spec.size
        if not spec.valid:
            tightened[-1] = cap * 2
        return caps([cap] * spec.size), caps(tightened)

    def chain(self, names: Sequence[str]):
        expression = self.any_path
        for name in names:
            expression = concat(expression, Symbol(name), self.any_path)
        return expression

    def measure(self, budget: Budget) -> Outcome:
        outcome = Outcome()
        while budget.open(outcome.timed_s, outcome.attempted):
            spec = self.spec(outcome.attempted)
            original, refined = self.build(spec)
            # Looked up on the package at call time: the tracer rebinds
            # repro.* attributes, not names this module imported.
            report, wall, cpu, error = timed(lambda: repro.verify_refinement(original, refined))
            outcome.record(wall, cpu)
            if error:
                outcome.fail(f"op {outcome.attempted - 1} ({spec.family}): {error}")
            elif report.valid != spec.valid:
                outcome.fail(
                    f"op {outcome.attempted - 1} ({spec.family}, size {spec.size}): "
                    f"verdict {report.valid}, expected {spec.valid}"
                )
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        CompileGuaranteed, CompileCampusDefault, ChurnSession,
        ServiceTicket, ServiceBurst, VerifyDelegation,
    )
}
