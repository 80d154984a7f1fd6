"""Seeded, deterministic churn & failure scenario generation.

:func:`generate_scenario` builds a *population* — a fat tree augmented with
per-pod backup chains and middleboxes, hosting one pod-local tenant per pod
— and then a stream of typed :mod:`~repro.scenarios.events`:

* link/switch failures and their (exponentially distributed) recoveries,
* tenant join/leave waves adding and removing guaranteed statements,
* diurnal + flash-crowd rate renegotiations, and
* middlebox-chain rewrites toggling statements through the pod's DPI box.

All randomness comes from one ``random.Random(seed)``: the same config
produces a byte-identical stream (every event's
:meth:`~repro.scenarios.events.ScenarioEvent.describe` line).

**Why the backup chains matter.**  A pristine fat-tree pod is a complete
bipartite edge/aggregation graph: every intra-pod path has the same hop
count, so cost-bound footprint pruning (slack 2) can never exclude a
surviving path and slack widening would have nothing to do.  Each pod
therefore gets a chain of backup switches strung between its first and last
edge switch — a detour ``chain_length - 1`` hops longer than the optimal
2-hop fabric path, included in every pod statement's path language.  At the
default slack 2 the chain is pruned away; when failures kill enough
short-path capacity, the pruned component model turns infeasible and the
provisioner widens slack geometrically (2→4→8) until the chain re-enters —
the self-healing behaviour the churn benchmark measures.  Link capacities
are deliberately small relative to the guarantees so failures actually
crunch capacity instead of merely rerouting.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.ast import BandwidthTerm, FMin, Policy, Statement, formula_and
from ..incremental.delta import DeltaStatement, RateUpdate
from ..predicates.ast import FieldTest, pred_and
from ..regex.ast import Regex, Symbol, concat, star, union
from ..topology.generators import fat_tree
from ..topology.graph import Topology
from ..units import Bandwidth
from .events import (
    LinkFailure,
    LinkRecovery,
    MiddleboxRewrite,
    RateRenegotiation,
    ScenarioEvent,
    SwitchFailure,
    SwitchRecovery,
    TenantJoin,
    TenantLeave,
)

#: Event-kind weights: (kind, relative probability).  Renegotiations
#: dominate (the paper's cheap-adaptation case); failures and membership
#: churn are the expensive tail.
DEFAULT_KIND_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("link-failure", 3.0),
    ("switch-failure", 1.5),
    ("tenant-join", 2.0),
    ("tenant-leave", 1.5),
    ("renegotiation", 5.0),
    ("middlebox-rewrite", 1.5),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a scenario, and nothing else.

    The default rates are balanced against the 400 Mbps links so that
    failures squeeze capacity without ever making a pod *genuinely*
    infeasible.  Worst-case pod demand — two base pairs and one joined
    tenant, all renegotiated to the diurnal-peak × flash maximum — is
    ``(2·150 + 60) · 1.25 · 1.25 ≈ 563 Mbps``.  With at most one failure
    per pod (``max_failures_per_pod``) the pod always keeps one 2-hop
    fabric path *plus* the backup chain (800 Mbps in aggregate, and no
    single statement exceeds 400), so a solve at wide-enough slack always
    succeeds.  But a single peak-renegotiated pair is ~234 Mbps, so two of
    them cannot share one 400 Mbps path: when a failure leaves only one
    short fabric path, the slack-2 pruned model (chain excluded) turns
    infeasible and the provisioner must widen to readmit the chain — the
    self-healing path under test.
    """

    seed: int = 0
    events: int = 200
    arity: int = 4
    pairs_per_pod: int = 2
    chain_length: int = 5
    link_capacity: Bandwidth = Bandwidth.mbps(400)
    middlebox_link_capacity: Bandwidth = Bandwidth.mbps(1000)
    guarantee: Bandwidth = Bandwidth.mbps(150)
    join_guarantee: Bandwidth = Bandwidth.mbps(60)
    mean_interarrival: float = 30.0
    mean_time_to_repair: float = 240.0
    diurnal_period: float = 2000.0
    diurnal_amplitude: float = 0.25
    flash_windows: int = 3
    flash_duration: float = 400.0
    flash_multiplier: float = 1.25
    max_failures_per_pod: int = 1
    max_concurrent_failures: int = 4
    max_joined_per_pod: int = 1
    kind_weights: Tuple[Tuple[str, float], ...] = DEFAULT_KIND_WEIGHTS


@dataclass
class PodPopulation:
    """One pod's cast: switches, hosts, backup chain, middlebox, tenants."""

    index: int
    edge: List[str]
    aggregation: List[str]
    chain: List[str]
    middlebox: str
    hosts: List[str]
    statement_ids: List[str] = field(default_factory=list)


@dataclass
class ScenarioPopulation:
    """The augmented topology and base policy a scenario runs against."""

    topology: Topology
    policy: Policy
    placements: Dict[str, Tuple[str, ...]]
    pods: List[PodPopulation]
    #: Baseline guarantee (Mbps) per statement — renegotiations scale this.
    base_rates_mbps: Dict[str, float]


@dataclass
class Scenario:
    """A population plus the deterministic event stream replayed against it."""

    config: ScenarioConfig
    population: ScenarioPopulation
    events: Tuple[ScenarioEvent, ...]


# -- population -------------------------------------------------------------


def _pair_predicate(topology: Topology, source: str, destination: str, port: int):
    return pred_and(
        FieldTest("eth.src", topology.node(source).mac),
        pred_and(
            FieldTest("eth.dst", topology.node(destination).mac),
            FieldTest("tcp.dst", port),
        ),
    )


def _pod_language(pod: PodPopulation, source: str, destination: str) -> Regex:
    """``(src|dst|pod fabric|pod backup chain)*`` — pod-local, chain included.

    Excludes core switches (traffic never leaves the pod, keeping tenants'
    MIP components link-disjoint) and the middlebox (reached only through
    the explicit ``dpi`` chain of :func:`_dpi_path`).
    """
    locations = sorted(
        {source, destination, *pod.edge, *pod.aggregation, *pod.chain}
    )
    return star(union(*[Symbol(location) for location in locations]))


def _plain_path(pod: PodPopulation, source: str, destination: str) -> Regex:
    return _pod_language(pod, source, destination)


def _dpi_path(pod: PodPopulation, source: str, destination: str) -> Regex:
    language = _pod_language(pod, source, destination)
    return concat(language, Symbol("dpi"), language)


def build_population(config: ScenarioConfig) -> ScenarioPopulation:
    """The fat tree + backup chains + middleboxes + base pod tenants."""
    topology = fat_tree(config.arity, capacity=config.link_capacity)
    pods: List[PodPopulation] = []
    for pod_index in range(config.arity):
        edge = sorted(
            name
            for name in topology.switch_names()
            if name.startswith(f"e{pod_index}_")
        )
        aggregation = sorted(
            name
            for name in topology.switch_names()
            if name.startswith(f"a{pod_index}_")
        )
        hosts = sorted(
            (host for switch in edge for host in topology.hosts_on_switch(switch)),
            key=lambda name: int(name[1:]),
        )
        # Backup chain: e_first — b0 — b1 — ... — b_last — e_last.  The
        # detour is (chain_length - 1) hops longer than the 2-hop fabric
        # path, so slack 2 prunes it and slack 4 (after one widening, with
        # the default chain length) readmits it.
        chain = [f"b{pod_index}_{i}" for i in range(config.chain_length)]
        for name in chain:
            topology.add_switch(name)
        topology.add_link(edge[0], chain[0], config.link_capacity)
        for left, right in zip(chain, chain[1:]):
            topology.add_link(left, right, config.link_capacity)
        topology.add_link(chain[-1], edge[-1], config.link_capacity)
        # The DPI middlebox hangs off the first *edge* switch: edge
        # switches never fail (hosts are attached), so a chain-rewritten
        # statement always has its function location reachable.
        middlebox = f"mb{pod_index}"
        topology.add_middlebox(middlebox, attached_switch=edge[0])
        # The attachment link carries a dpi statement's traffic TWICE (in
        # and out of the appliance), and both of a pod's base pairs may be
        # rewritten through dpi at the renegotiated peak: 2 pairs × 2
        # traversals × ~234 Mbps ≈ 938 Mbps.  A fabric-capacity link would
        # make such rewrites genuinely infeasible, so the appliance gets a
        # fat access link instead.
        topology.add_link(middlebox, edge[0], config.middlebox_link_capacity)
        pods.append(
            PodPopulation(
                index=pod_index,
                edge=edge,
                aggregation=aggregation,
                chain=chain,
                middlebox=middlebox,
                hosts=hosts,
            )
        )

    statements: List[Statement] = []
    clauses = []
    base_rates: Dict[str, float] = {}
    for pod in pods:
        first_rack = topology.hosts_on_switch(pod.edge[0])
        last_rack = topology.hosts_on_switch(pod.edge[-1])
        for pair in range(config.pairs_per_pod):
            # Cross-rack pairs: the 2-hop edge→aggregation→edge fabric
            # paths (and the long chain) are the only options, unlike
            # same-rack pairs that never leave their edge switch.
            source = first_rack[pair % len(first_rack)]
            destination = last_rack[pair % len(last_rack)]
            identifier = f"p{pod.index}s{pair}"
            statements.append(
                Statement(
                    identifier,
                    _pair_predicate(topology, source, destination, 8000 + pair),
                    _plain_path(pod, source, destination),
                )
            )
            clauses.append(
                FMin(BandwidthTerm(identifiers=(identifier,)), config.guarantee)
            )
            base_rates[identifier] = config.guarantee.mbps_value
            pod.statement_ids.append(identifier)
    policy = Policy(statements=tuple(statements), formula=formula_and(*clauses))
    placements = {"dpi": tuple(pod.middlebox for pod in pods)}
    return ScenarioPopulation(
        topology=topology,
        policy=policy,
        placements=placements,
        pods=pods,
        base_rates_mbps=base_rates,
    )


# -- the generator ----------------------------------------------------------


@dataclass
class _StatementInfo:
    """What the generator needs to re-emit or renegotiate a statement."""

    pod: int
    source: str
    destination: str
    port: int
    base_mbps: float
    current_mbps: float
    through_dpi: bool = False
    joined: bool = False


class _StreamBuilder:
    """Mutable state of one generation run (all randomness from ``rng``)."""

    def __init__(self, config: ScenarioConfig, population: ScenarioPopulation):
        self.config = config
        self.population = population
        self.rng = random.Random(config.seed)
        self.events: List[ScenarioEvent] = []
        self.time = 0.0
        self.failed_links: Set[Tuple[str, str]] = set()
        self.failed_nodes: Set[str] = set()
        self.pod_failures: Dict[Optional[int], int] = {}
        self.pending: List[Tuple[float, int, str, object]] = []  # repair heap
        self.sequence = 0
        self.join_counter = 0
        self.statements: Dict[str, _StatementInfo] = {}
        for pod in population.pods:
            first_rack = population.topology.hosts_on_switch(pod.edge[0])
            last_rack = population.topology.hosts_on_switch(pod.edge[-1])
            for pair, identifier in enumerate(pod.statement_ids):
                self.statements[identifier] = _StatementInfo(
                    pod=pod.index,
                    source=first_rack[pair % len(first_rack)],
                    destination=last_rack[pair % len(last_rack)],
                    port=8000 + pair,
                    base_mbps=population.base_rates_mbps[identifier],
                    current_mbps=population.base_rates_mbps[identifier],
                )
        # Flash-crowd windows, drawn up front so the rate formula is a pure
        # function of (rng draws so far, event time).
        horizon = config.events * config.mean_interarrival * 1.5
        self.flash: List[Tuple[float, float]] = sorted(
            (start, start + config.flash_duration)
            for start in (
                self.rng.uniform(0.0, horizon) for _ in range(config.flash_windows)
            )
        )

    # -- rate model ---------------------------------------------------------

    def _demand_multiplier(self, at_time: float) -> float:
        import math

        diurnal = 1.0 + self.config.diurnal_amplitude * math.sin(
            2.0 * math.pi * at_time / self.config.diurnal_period
        )
        flash = any(start <= at_time < end for start, end in self.flash)
        return diurnal * (self.config.flash_multiplier if flash else 1.0)

    # -- safety -------------------------------------------------------------

    def _pod_of_node(self, name: str) -> Optional[int]:
        if name[0] in "aeb" and "_" in name:
            return int(name[1 : name.index("_")])
        return None

    def _pod_of_link(self, link: Tuple[str, str]) -> Optional[int]:
        for endpoint in link:
            pod = self._pod_of_node(endpoint)
            if pod is not None:
                return pod
        return None

    def _pod_connected(
        self,
        pod: PodPopulation,
        failed_links: Set[Tuple[str, str]],
        failed_nodes: Set[str],
    ) -> bool:
        """Whether every pod statement still has *some* path in its language
        (pod fabric + chain) on the hypothetical degraded topology."""
        allowed = set(pod.hosts) | set(pod.edge) | set(pod.aggregation) | set(pod.chain)
        allowed -= failed_nodes
        topology = self.population.topology
        sources = {
            info.source
            for info in self.statements.values()
            if info.pod == pod.index
        }
        targets = {
            (info.source, info.destination)
            for info in self.statements.values()
            if info.pod == pod.index
        }
        if not targets:
            return True
        reachable: Dict[str, Set[str]] = {}
        for start in sources:
            seen = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for neighbor in topology.neighbors(current):
                    if neighbor in seen or neighbor not in allowed:
                        continue
                    if tuple(sorted((current, neighbor))) in failed_links:
                        continue
                    seen.add(neighbor)
                    frontier.append(neighbor)
            reachable[start] = seen
        return all(
            destination in reachable[source] for source, destination in targets
        )

    def _safe_to_fail(
        self, link: Optional[Tuple[str, str]] = None, node: Optional[str] = None
    ) -> bool:
        if len(self.failed_links) + len(self.failed_nodes) >= (
            self.config.max_concurrent_failures
        ):
            return False
        pod_index = self._pod_of_link(link) if link else self._pod_of_node(node)
        if pod_index is not None:
            if self.pod_failures.get(pod_index, 0) >= self.config.max_failures_per_pod:
                return False
        failed_links = set(self.failed_links)
        failed_nodes = set(self.failed_nodes)
        if link:
            failed_links.add(link)
        if node:
            failed_nodes.add(node)
        if pod_index is None:
            return True  # core elements never carry pod-local traffic
        return self._pod_connected(
            self.population.pods[pod_index], failed_links, failed_nodes
        )

    # -- candidates ---------------------------------------------------------

    def _link_candidates(self) -> List[Tuple[str, str]]:
        topology = self.population.topology
        candidates = []
        for link in topology.undirected_edges():
            source, target = link
            if not (
                topology.node(source).is_switch and topology.node(target).is_switch
            ):
                continue
            if link in self.failed_links:
                continue
            if source in self.failed_nodes or target in self.failed_nodes:
                continue
            candidates.append(link)
        return candidates

    def _node_candidates(self) -> List[str]:
        topology = self.population.topology
        candidates = []
        for name in topology.switch_names():
            if name in self.failed_nodes:
                continue
            if name.startswith("e"):
                continue  # edge switches host endpoints and the middlebox
            if name.startswith("b"):
                # Chain switches appear by name in every pod path
                # expression; removing the node would make those
                # expressions unresolvable (a placement error, not a
                # re-provisioning problem).  Chain *links* may still fail.
                continue
            candidates.append(name)
        return candidates

    # -- event emission -----------------------------------------------------

    def _emit(self, event: ScenarioEvent) -> None:
        self.events.append(event)

    def _next_index(self) -> int:
        return len(self.events)

    def _schedule_repair(self, kind: str, payload) -> None:
        repair = self.time + self.rng.expovariate(
            1.0 / self.config.mean_time_to_repair
        )
        self.sequence += 1
        heapq.heappush(self.pending, (repair, self.sequence, kind, payload))

    def _emit_failure(self, kind: str) -> bool:
        if kind == "link-failure":
            candidates = self._link_candidates()
            self.rng.shuffle(candidates)
            for link in candidates:
                if self._safe_to_fail(link=link):
                    self.failed_links.add(link)
                    pod = self._pod_of_link(link)
                    self.pod_failures[pod] = self.pod_failures.get(pod, 0) + 1
                    self._emit(LinkFailure(self._next_index(), self.time, link=link))
                    self._schedule_repair("link", link)
                    return True
            return False
        candidates = self._node_candidates()
        self.rng.shuffle(candidates)
        for node in candidates:
            if self._safe_to_fail(node=node):
                self.failed_nodes.add(node)
                pod = self._pod_of_node(node)
                self.pod_failures[pod] = self.pod_failures.get(pod, 0) + 1
                self._emit(SwitchFailure(self._next_index(), self.time, switch=node))
                self._schedule_repair("node", node)
                return True
        return False

    def _emit_repair(self, kind: str, payload) -> None:
        if kind == "link":
            self.failed_links.discard(payload)
            pod = self._pod_of_link(payload)
            self._emit(LinkRecovery(self._next_index(), self.time, link=payload))
        else:
            self.failed_nodes.discard(payload)
            pod = self._pod_of_node(payload)
            self._emit(SwitchRecovery(self._next_index(), self.time, switch=payload))
        self.pod_failures[pod] = max(0, self.pod_failures.get(pod, 0) - 1)

    def _statement_for(self, identifier: str, info: _StatementInfo) -> Statement:
        pod = self.population.pods[info.pod]
        path = (
            _dpi_path(pod, info.source, info.destination)
            if info.through_dpi
            else _plain_path(pod, info.source, info.destination)
        )
        predicate = _pair_predicate(
            self.population.topology, info.source, info.destination, info.port
        )
        return Statement(identifier, predicate, path)

    def _emit_join(self) -> bool:
        pod_index = self.rng.randrange(len(self.population.pods))
        joined_here = sum(
            1
            for info in self.statements.values()
            if info.joined and info.pod == pod_index
        )
        if joined_here >= self.config.max_joined_per_pod:
            return False
        pod = self.population.pods[pod_index]
        first_rack = self.population.topology.hosts_on_switch(pod.edge[0])
        last_rack = self.population.topology.hosts_on_switch(pod.edge[-1])
        source = self.rng.choice(sorted(first_rack))
        destination = self.rng.choice(sorted(last_rack))
        identifier = f"j{self.join_counter}"
        self.join_counter += 1
        info = _StatementInfo(
            pod=pod_index,
            source=source,
            destination=destination,
            port=9000 + self.join_counter,
            base_mbps=self.config.join_guarantee.mbps_value,
            current_mbps=self.config.join_guarantee.mbps_value,
            joined=True,
        )
        self.statements[identifier] = info
        self._emit(
            TenantJoin(
                self._next_index(),
                self.time,
                added=(
                    DeltaStatement(
                        self._statement_for(identifier, info),
                        guarantee=Bandwidth.mbps(info.current_mbps),
                    ),
                ),
            )
        )
        return True

    def _emit_leave(self) -> bool:
        joined = sorted(
            identifier
            for identifier, info in self.statements.items()
            if info.joined
        )
        if not joined:
            return False
        identifier = self.rng.choice(joined)
        del self.statements[identifier]
        self._emit(
            TenantLeave(self._next_index(), self.time, identifiers=(identifier,))
        )
        return True

    def _emit_renegotiation(self) -> bool:
        pod_index = self.rng.randrange(len(self.population.pods))
        members = sorted(
            identifier
            for identifier, info in self.statements.items()
            if info.pod == pod_index
        )
        if not members:
            return False
        multiplier = self._demand_multiplier(self.time)
        updates = []
        for identifier in members:
            info = self.statements[identifier]
            new_mbps = round(info.base_mbps * multiplier, 3)
            if abs(new_mbps - info.current_mbps) < 1e-9:
                continue
            info.current_mbps = new_mbps
            updates.append(
                RateUpdate(identifier, guarantee=Bandwidth.mbps(new_mbps))
            )
        if not updates:
            return False
        self._emit(
            RateRenegotiation(self._next_index(), self.time, updates=tuple(updates))
        )
        return True

    def _emit_rewrite(self) -> bool:
        # Only base statements toggle through DPI; joined tenants churn too
        # fast for a middlebox contract.
        candidates = sorted(
            identifier
            for identifier, info in self.statements.items()
            if not info.joined
        )
        if not candidates:
            return False
        identifier = self.rng.choice(candidates)
        info = self.statements[identifier]
        info.through_dpi = not info.through_dpi
        self._emit(
            MiddleboxRewrite(
                self._next_index(),
                self.time,
                identifier=identifier,
                replacement=(
                    DeltaStatement(
                        self._statement_for(identifier, info),
                        guarantee=Bandwidth.mbps(info.current_mbps),
                    ),
                ),
                through="dpi" if info.through_dpi else "plain",
            )
        )
        return True

    # -- the main loop ------------------------------------------------------

    def build(self) -> List[ScenarioEvent]:
        kinds = [kind for kind, _ in self.config.kind_weights]
        weights = [weight for _, weight in self.config.kind_weights]
        total = sum(weights)
        while len(self.events) < self.config.events:
            advance = self.rng.expovariate(1.0 / self.config.mean_interarrival)
            candidate_time = self.time + advance
            if self.pending and self.pending[0][0] <= candidate_time:
                repair_time, _, kind, payload = heapq.heappop(self.pending)
                self.time = max(self.time, repair_time)
                self._emit_repair(kind, payload)
                continue
            self.time = candidate_time
            draw = self.rng.uniform(0.0, total)
            cumulative = 0.0
            kind = kinds[-1]
            for name, weight in zip(kinds, weights):
                cumulative += weight
                if draw <= cumulative:
                    kind = name
                    break
            emitted = False
            if kind in ("link-failure", "switch-failure"):
                emitted = self._emit_failure(kind)
            elif kind == "tenant-join":
                emitted = self._emit_join()
            elif kind == "tenant-leave":
                emitted = self._emit_leave()
            elif kind == "renegotiation":
                emitted = self._emit_renegotiation()
            elif kind == "middlebox-rewrite":
                emitted = self._emit_rewrite()
            if not emitted and kind != "renegotiation":
                # Infeasible kinds (no safe failure candidate, nothing
                # joined, ...) degrade to the always-available demand
                # adjustment rather than skipping the slot.
                emitted = self._emit_renegotiation()
            if not emitted:
                # A renegotiation that changed nothing (multiplier landed
                # exactly on the current rates): force a join so the stream
                # length stays exact.
                self._emit_join() or self._emit_leave() or self._emit_rewrite()
        return self.events


def generate_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Build the population and the deterministic event stream."""
    population = build_population(config)
    builder = _StreamBuilder(config, population)
    events = tuple(builder.build())
    return Scenario(config=config, population=population, events=events)
