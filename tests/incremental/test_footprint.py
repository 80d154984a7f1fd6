"""Cost-bounded footprint tightening: exactness and partition behavior.

Tightening restricts each statement's logical topology to edges on some
source-to-sink path within ``optimal hops + slack`` — both for partitioning
*and* for the component MIPs, which is what keeps the decomposition exact.
The regression contract guarded here: on workloads whose min-max optima
live within the bound (everything near-shortest-path — the fat-tree and
Figure 3 families), tightening must never change the merged allocations
(paths, reservations), only the partition counts.  Workloads needing
longer detours are the documented trade-off (raise the slack or disable
tightening), not a target of this contract.
"""

import pytest

from repro.core import DEFAULT_FOOTPRINT_SLACK, MerlinCompiler, ProvisionOptions
from repro.core.ast import BandwidthTerm, FMin, Policy, formula_and, formula_clauses
from repro.core.logical import (
    build_logical_topology,
    infer_endpoints,
    prune_to_cost_bound,
)
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import DeltaStatement, PolicyDelta
from repro.units import Bandwidth


def _paths(result):
    return {identifier: p.path for identifier, p in result.paths.items()}


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def _mixed_policy(scenario, wild):
    clauses = list(formula_clauses(scenario.policy.formula))
    clauses.append(
        FMin(BandwidthTerm(identifiers=(wild.identifier,)), scenario.guarantee)
    )
    return Policy(
        statements=scenario.policy.statements + (wild,),
        formula=formula_and(*clauses),
    )


def _compiler(topology, **kwargs):
    return MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
        **kwargs,
    )


class TestPruneToCostBound:
    def _wild_logical(self, scenario, slack=None):
        wild = unconstrained_statement(scenario)
        source, destination = infer_endpoints(wild, scenario.topology)
        logical = build_logical_topology(
            wild, scenario.topology, {}, source=source, destination=destination
        )
        if slack is None:
            return logical
        return prune_to_cost_bound(logical, slack)

    def test_unconstrained_footprint_shrinks_to_near_optimal_links(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        unpruned = self._wild_logical(scenario)
        pruned = prune_to_cost_bound(unpruned, 2)
        # The .* statement could touch every physical link...
        assert len(unpruned.footprint) == len(list(scenario.topology.links()))
        # ...but its cost-bounded subgraph stays near the intra-rack optimum
        # (strictly fewer links, all of them a subset of the original).
        assert pruned.footprint < unpruned.footprint
        # No pruned link leaves pod 0 (core links cost 4 extra hops).
        pod = scenario.pods[0]
        allowed = set(pod["hosts"]) | set(pod["edge"]) | set(pod["aggregation"])
        for u, v in pruned.footprint:
            assert u in allowed and v in allowed

    def test_optimal_path_always_survives(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        for slack in (0, 1, 2):
            pruned = self._wild_logical(scenario, slack=slack)
            assert pruned.find_path() is not None

    def test_zero_slack_keeps_exactly_min_hop_paths(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        pruned = self._wild_logical(scenario, slack=0)
        # Same-rack pair: the only 2-hop paths go through the shared edge
        # switch, so exactly the two host access links remain.
        assert len(pruned.footprint) == 2

    def test_monotone_in_slack(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        footprints = [
            self._wild_logical(scenario, slack=s).footprint for s in (0, 2, 4)
        ]
        assert footprints[0] <= footprints[1] <= footprints[2]

    def test_already_tight_topology_returned_by_reference(self):
        # A cut has no edges left to prune at its own slack: the shared
        # object must be returned as-is.
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        statement = scenario.policy.statements[0]
        source, destination = infer_endpoints(statement, scenario.topology)
        logical = build_logical_topology(
            statement,
            scenario.topology,
            {},
            source=source,
            destination=destination,
        )
        tight = prune_to_cost_bound(logical, DEFAULT_FOOTPRINT_SLACK)
        assert tight is not logical
        assert prune_to_cost_bound(tight, DEFAULT_FOOTPRINT_SLACK) is tight

    def test_infeasible_topology_passes_through(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        logical = self._wild_logical(scenario)
        empty = type(logical)(
            statement_id="empty", source_location=None, destination_location=None
        )
        assert prune_to_cost_bound(empty, 0) is empty


class TestTighteningRegression:
    """Tightening changes partition counts, never merged allocations."""

    def test_wild_statement_keeps_partitions_and_allocations(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        policy = _mixed_policy(scenario, unconstrained_statement(scenario))

        tightened = _compiler(scenario.topology).compile(policy)
        glued = _compiler(
            scenario.topology, options=ProvisionOptions(footprint_slack=None)
        ).compile(policy)

        # Without tightening the .* statement glues everything into one
        # component; with it the pod tenants stay partition-parallel.
        assert glued.statistics.num_partitions == 1
        assert tightened.statistics.num_partitions > 1
        assert tightened.statistics.num_partitions >= len(scenario.pods)

        # The regression contract: identical merged allocations.
        assert _paths(tightened) == _paths(glued)
        left, right = _reservations(tightened), _reservations(glued)
        assert set(left) == set(right)
        for key in left:
            assert left[key] == pytest.approx(right[key], abs=1e-3)

    def test_recompiled_wild_delta_solves_with_multiple_partitions(self):
        """The acceptance case: adding one ``.*``-path statement to the live
        pod-tenant session still re-provisions with > 1 partition component
        and stays identical to a from-scratch compile."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        wild = unconstrained_statement(scenario)
        compiler = _compiler(scenario.topology)
        compiler.compile(scenario.policy)

        incremental = compiler.recompile(
            PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
        )
        assert incremental.statistics.num_partitions > 1
        assert incremental.statistics.dirty_partitions < (
            incremental.statistics.num_partitions
        )

        scratch = _compiler(scenario.topology).compile(
            _mixed_policy(scenario, wild)
        )
        assert _paths(incremental) == _paths(scratch)
        left, right = _reservations(incremental), _reservations(scratch)
        for key in left:
            assert left[key] == pytest.approx(right[key], abs=1e-3)

    def test_figure3_spread_survives_default_tightening(self):
        """The min-max-ratio optimum on the Figure 3 dumbbell uses the
        *longer* (3-hop) path for one flow; the default slack must keep
        that detour available."""
        from repro.core import compile_policy
        from repro.topology.generators import dumbbell

        topology = dumbbell()
        source = """
        [ a : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* ;
          b : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 22) -> .* ],
        min(a, 50MB/s) and min(b, 50MB/s)
        """
        result = compile_policy(source, topology, {})
        assert result.max_link_utilization() == pytest.approx(0.25, abs=0.01)
