"""Figure 10 (b') — incremental re-provisioning latency vs full recompiles.

The paper's adaptation experiment (Figure 10) shows that bandwidth
re-allocation needs no recompilation.  This companion experiment measures
the remaining case: adaptations that *do* change paths.  A fat tree hosts
one tenant per pod, each with bandwidth-guaranteed traffic constrained to
its own pod (the pod-local path expressions make the tenants' MIPs
link-disjoint).  A delta of ``d`` statements — new guaranteed traffic in
``d`` distinct pods — is then provisioned two ways:

* **full**: a from-scratch ``MerlinCompiler.compile()`` of the extended
  policy (what the seed code base had to do), and
* **incremental**: ``MerlinCompiler.recompile(delta)`` — enter the new
  statements into the live session and re-solve only the ``d`` dirty pod
  components, re-using the other pods' cached solutions.

Both produce identical paths and reservations (asserted per row).  What
the figure script asserts is the work each side did — MIP solver calls,
counted by the ``solver_calls`` telemetry counter: ``d`` for the delta, one
per component for the full compile — and what it prints beside them is each
side's own ``statistics.total_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .. import telemetry
from ..core.ast import (
    BandwidthTerm,
    FMin,
    Policy,
    Statement,
    formula_and,
    formula_clauses,
)
from ..core.allocation import CompilationResult
from ..core.compiler import MerlinCompiler
from ..incremental.delta import DeltaStatement, PolicyDelta
from ..regex.ast import Regex, Symbol, any_path, star, union
from ..scenarios.driver import allocations_match
from ..scenarios.generator import _pair_predicate
from ..topology.generators import fat_tree
from ..topology.graph import Topology
from ..units import Bandwidth


@dataclass
class PodTenantScenario:
    """A fat tree with one pod-local tenant policy per pod."""

    topology: Topology
    policy: Policy
    pods: List[Dict[str, List[str]]]
    guarantee: Bandwidth


def _fat_tree_pods(topology: Topology, arity: int) -> List[Dict[str, List[str]]]:
    """Each pod's aggregation switches, edge switches, and hosts, by name."""
    pods = []
    for pod in range(arity):
        edges = sorted(
            name for name in topology.switch_names() if name.startswith(f"e{pod}_")
        )
        aggregations = sorted(
            name for name in topology.switch_names() if name.startswith(f"a{pod}_")
        )
        hosts = sorted(
            (host for edge in edges for host in topology.hosts_on_switch(edge)),
            key=lambda name: int(name[1:]),
        )
        pods.append({"aggregation": aggregations, "edge": edges, "hosts": hosts})
    return pods


def _pod_path(pod: Dict[str, List[str]], source: str, destination: str) -> Regex:
    """``(src|dst|pod edge switches|pod aggregation switches)*`` — traffic may
    roam its own pod but can never leave it (no core switches, no other
    pods), which is what keeps the tenants' MIP components link-disjoint."""
    locations = sorted({source, destination, *pod["edge"], *pod["aggregation"]})
    return star(union(*[Symbol(location) for location in locations]))


def _pod_statement(
    topology: Topology,
    pod: Dict[str, List[str]],
    identifier: str,
    source: str,
    destination: str,
    port: int,
) -> Statement:
    predicate = _pair_predicate(topology, source, destination, port)
    return Statement(identifier, predicate, _pod_path(pod, source, destination))


def unconstrained_statement(
    scenario: "PodTenantScenario",
    identifier: str = "wild",
    pod_index: int = 0,
    port: int = 7777,
) -> Statement:
    """A same-rack host pair in one pod with an unconstrained ``.*`` path.

    This is the statement shape that used to collapse the partition
    decomposition: its path expression allows every physical link, so
    without footprint tightening it glues all pod tenants into one MIP
    component.  With cost-bound tightening its footprint shrinks to links
    near its (intra-rack) optimal path and the pod tenants stay
    partition-parallel — the mixed-workload case the Figure 10b' smoke
    guards.
    """
    pod = scenario.pods[pod_index]
    hosts = pod["hosts"]
    source, destination = hosts[0], hosts[1]
    predicate = _pair_predicate(scenario.topology, source, destination, port)
    return Statement(identifier, predicate, any_path())


def pod_tenant_scenario(
    arity: int = 8,
    pairs_per_pod: int = 2,
    guarantee: Bandwidth = Bandwidth.mbps(50),
) -> PodTenantScenario:
    """One tenant per pod, ``pairs_per_pod`` guaranteed host pairs each."""
    topology = fat_tree(arity)
    pods = _fat_tree_pods(topology, arity)
    statements: List[Statement] = []
    clauses = []
    for pod_index, pod in enumerate(pods):
        hosts = pod["hosts"]
        for pair in range(pairs_per_pod):
            source = hosts[(2 * pair) % len(hosts)]
            destination = hosts[(2 * pair + 1) % len(hosts)]
            identifier = f"p{pod_index}s{pair}"
            statements.append(
                _pod_statement(
                    topology, pod, identifier, source, destination, 8000 + pair
                )
            )
            clauses.append(FMin(BandwidthTerm(identifiers=(identifier,)), guarantee))
    policy = Policy(statements=tuple(statements), formula=formula_and(*clauses))
    return PodTenantScenario(
        topology=topology, policy=policy, pods=pods, guarantee=guarantee
    )


def _delta_statements(
    scenario: PodTenantScenario, delta_size: int, generation: int
) -> List[Statement]:
    """``delta_size`` new guaranteed statements, one per distinct pod."""
    statements = []
    for index in range(delta_size):
        pod_index = index % len(scenario.pods)
        pod = scenario.pods[pod_index]
        hosts = pod["hosts"]
        source = hosts[-1]
        destination = hosts[-2]
        identifier = f"g{generation}d{index}"
        statements.append(
            _pod_statement(
                scenario.topology, pod, identifier, source, destination,
                9000 + generation * 64 + index,
            )
        )
    return statements


def _extended_policy(
    scenario: PodTenantScenario, additions: Sequence[Statement]
) -> Policy:
    clauses = list(formula_clauses(scenario.policy.formula))
    clauses.extend(
        FMin(BandwidthTerm(identifiers=(statement.identifier,)), scenario.guarantee)
        for statement in additions
    )
    return Policy(
        statements=scenario.policy.statements + tuple(additions),
        formula=formula_and(*clauses),
    )


def _compiler(topology: Topology) -> MerlinCompiler:
    return MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )


def counting_solver_calls(
    run: Callable[[], CompilationResult]
) -> Tuple[CompilationResult, int]:
    """``run()`` under a metrics-only bundle: its result and how many MIP
    solves it made.  Spans stay on the disabled path, so the result's own
    timing statistics are what they would be without the count."""
    bundle = telemetry.Telemetry(metrics=telemetry.MetricsRegistry())
    with bundle.use():
        result = run()
    return result, int(bundle.snapshot().counter_total("solver_calls"))


def measure_reprovisioning(
    arity: int = 8,
    pairs_per_pod: int = 3,
    delta_sizes: Sequence[int] = (1, 2, 4),
    guarantee: Bandwidth = Bandwidth.mbps(50),
) -> List[Dict[str, object]]:
    """The Figure-10b' table: delta size vs incremental and full provisioning.

    For each delta size ``d`` the *same* extended policy is provisioned both
    ways; the incremental path then reverts its delta — also incrementally —
    so every delta starts from the identical base session.  The compile
    populated the session's engine, so a delta's statistics include no
    one-time session setup.
    """
    scenario = pod_tenant_scenario(
        arity=arity, pairs_per_pod=pairs_per_pod, guarantee=guarantee
    )
    incremental_compiler = _compiler(scenario.topology)
    base = incremental_compiler.compile(scenario.policy)

    rows: List[Dict[str, object]] = []
    for generation, delta_size in enumerate(delta_sizes):
        additions = _delta_statements(scenario, delta_size, generation)
        delta = PolicyDelta(
            add=tuple(
                DeltaStatement(statement, guarantee=scenario.guarantee)
                for statement in additions
            )
        )
        revert = PolicyDelta(remove=tuple(s.identifier for s in additions))
        extended = _extended_policy(scenario, additions)

        incremental, incremental_calls = counting_solver_calls(
            lambda: incremental_compiler.recompile(delta)
        )
        full, full_calls = counting_solver_calls(
            lambda: _compiler(scenario.topology).compile(extended)
        )
        # Revert so the next delta size starts from the base policy again;
        # exercises the removal path.
        reverted = incremental_compiler.recompile(revert)
        if not allocations_match(reverted, base):  # pragma: no cover
            raise AssertionError("reverting a delta did not restore the base state")

        full_ms = full.statistics.total_seconds * 1000.0
        incremental_ms = incremental.statistics.total_seconds * 1000.0
        rows.append(
            {
                "arity": arity,
                "statements": len(extended.statements),
                "partitions": incremental.statistics.num_partitions,
                "delta_size": delta_size,
                "dirty_partitions": incremental.statistics.dirty_partitions,
                "solver_calls": incremental_calls,
                "full_solver_calls": full_calls,
                "full_ms": full_ms,
                "incremental_ms": incremental_ms,
                "speedup": full_ms / incremental_ms if incremental_ms > 0 else float("inf"),
                "identical": allocations_match(incremental, full),
            }
        )
    return rows
