"""Tests for the incremental re-provisioning engine (delta compilation)."""

import pytest

from repro.core.localization import localize
from repro.core.logical import build_logical_topology, infer_endpoints
from repro.core.options import ProvisionOptions
from repro.core.parser import parse_policy
from repro.core.preprocessor import preprocess
from repro.core.provisioning import build_model_for_links, flow_block
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import pod_tenant_scenario
from repro.incremental import IncrementalProvisioner
from repro.lp import ScipySolver
from repro.incremental.solve import INFEASIBLE_COMPONENT, topology_capacities_mbps
from repro.telemetry import Telemetry
from repro.topology.generators import figure2_example
from repro.topology.graph import Topology
from repro.units import Bandwidth
from tests.conftest import FlakyBackend

SOURCE = """
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .* ;
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
min(x, 50MB/s) and min(z, 100MB/s)
"""
PLACEMENTS = {"dpi": ("h1", "h2", "m1"), "nat": ("m1",)}


def _figure2_inputs():
    topology = figure2_example(capacity=Bandwidth.gbps(2))
    policy = preprocess(
        parse_policy(SOURCE, topology=topology), overlap="trust", add_catch_all=False
    ).policy
    rates = localize(policy)
    logical = {}
    for statement in policy.statements:
        source, destination = infer_endpoints(statement, topology)
        logical[statement.identifier] = build_logical_topology(
            statement, topology, PLACEMENTS, source=source, destination=destination
        )
    return topology, policy, rates, logical


def _engine(topology, statements, rates, logical, options=None):
    engine = IncrementalProvisioner(topology, PLACEMENTS, options=options)
    for statement in statements:
        engine.add_statement(
            statement,
            rates[statement.identifier].guarantee,
            logical=logical[statement.identifier],
        )
    return engine


def _paths(result):
    return {identifier: p.path for identifier, p in result.paths.items()}


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


class TestDeltaOperations:
    def test_resolve_matches_from_scratch_provision(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        incremental = engine.resolve()
        full = _engine(topology, policy.statements, rates, logical).resolve()
        assert _paths(incremental) == _paths(full)
        assert _reservations(incremental) == _reservations(full)

    def test_remove_then_matches_reduced_provision(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        engine.resolve()
        engine.remove_statement("z")
        incremental = engine.resolve()
        reduced = _engine(topology, policy.statements[:1], rates, logical).resolve()
        assert _paths(incremental) == _paths(reduced)
        assert _reservations(incremental) == _reservations(reduced)

    def test_update_rates_changes_reservation(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        before = engine.resolve()
        engine.update_rates("x", Bandwidth.mb_per_sec(25))
        after = engine.resolve()
        # Both statements enter at h1, so the h1-s1 reservation drops by
        # exactly the guarantee reduction (25 MB/s = 200 Mbps).
        key = ("h1", "s1")
        assert before.link_reservations[key].bps_value - after.link_reservations[
            key
        ].bps_value == pytest.approx(Bandwidth.mb_per_sec(25).bps_value)
        assert after.paths["x"].guaranteed_rate == Bandwidth.mb_per_sec(25)

    def test_readd_after_remove_reuses_identifier(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        engine.resolve()
        engine.remove_statement("z")
        engine.add_statement(
            policy.statements[1], rates["z"].guarantee, logical=logical["z"]
        )
        again = engine.resolve()
        full = _engine(topology, policy.statements, rates, logical).resolve()
        assert _paths(again) == _paths(full)

    def test_empty_engine_resolves_empty(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = IncrementalProvisioner(topology, PLACEMENTS)
        result = engine.resolve()
        assert result.paths == {}
        assert result.num_partitions == 0

    def test_duplicate_add_rejected(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        with pytest.raises(ProvisioningError):
            engine.add_statement(
                policy.statements[0], rates["x"].guarantee, logical=logical["x"]
            )

    def test_unknown_remove_and_update_rejected(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = IncrementalProvisioner(topology, PLACEMENTS)
        with pytest.raises(ProvisioningError):
            engine.remove_statement("ghost")
        with pytest.raises(ProvisioningError):
            engine.update_rates("ghost", Bandwidth.mbps(1))

    def test_non_positive_guarantee_rejected(self):
        topology, policy, rates, logical = _figure2_inputs()
        engine = IncrementalProvisioner(topology, PLACEMENTS)
        with pytest.raises(ProvisioningError):
            engine.add_statement(policy.statements[0], Bandwidth(0.0))


class TestLazyLiveModel:
    def test_solve_live_agrees_with_resolve(self):
        """The partitioned resolve loses nothing against the one global
        model over the same tightened topologies: the merged maximum
        utilisation equals that model's ``r_max``."""
        topology, policy, rates, logical = _figure2_inputs()
        engine = _engine(topology, policy.statements, rates, logical)
        resolved = engine.resolve()
        identifiers = engine.statement_ids()
        whole = build_model_for_links(
            [statement.identifier for statement in policy.statements],
            {
                identifier: flow_block(
                    engine._records[identifier].view(engine.footprint_slack).logical
                )
                for identifier in identifiers
            },
            {identifier: engine._records[identifier].rates for identifier in identifiers},
            sorted(topology_capacities_mbps(topology).items()),
        )
        live = ScipySolver().solve(whole.model)
        assert live.status.has_solution
        assert live.x[whole.model.layout.r_max] == pytest.approx(
            resolved.max_utilization, abs=1e-6
        )


class TestCachingAndPartitions:
    def test_clean_resolve_reuses_everything(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        engine = IncrementalProvisioner(scenario.topology)
        rates = localize(scenario.policy)
        for statement in scenario.policy.statements:
            engine.add_statement(statement, rates[statement.identifier].guarantee)
        first = engine.resolve()
        assert first.num_partitions == 4
        assert first.solve_statistics["partitions_dirty"] == 4.0
        second = engine.resolve()
        assert second.solve_statistics["partitions_dirty"] == 0.0
        assert second.solve_statistics["partitions_reused"] == 4.0
        assert _paths(second) == _paths(first)

    def test_update_dirties_only_its_partition(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        engine = IncrementalProvisioner(scenario.topology)
        rates = localize(scenario.policy)
        for statement in scenario.policy.statements:
            engine.add_statement(statement, rates[statement.identifier].guarantee)
        engine.resolve()
        engine.update_rates("p0s0", Bandwidth.mbps(25))
        result = engine.resolve()
        assert result.solve_statistics["partitions_dirty"] == 1.0
        assert result.solve_statistics["partitions_reused"] == 3.0

    @pytest.mark.parametrize("solver", ("scipy", "bnb"))
    def test_components_go_to_the_options_backend_one_by_one(self, solver):
        """Every dirty component's form is handed to the options' backend
        instance itself, in the order of the result's components, and the
        answers are the named backend's."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)
        inner = ProvisionOptions(solver=solver).backend()
        handed = []

        class Recording:
            name = inner.name

            def solve(self, form):
                handed.append(form.num_variables())
                return inner.solve(form)

        recorded = IncrementalProvisioner(
            scenario.topology, options=ProvisionOptions(solver=Recording())
        )
        named = IncrementalProvisioner(
            scenario.topology, options=ProvisionOptions(solver=solver)
        )
        for statement in scenario.policy.statements:
            recorded.add_statement(statement, rates[statement.identifier].guarantee)
            named.add_statement(statement, rates[statement.identifier].guarantee)
        recorded_result = recorded.resolve()
        named_result = named.resolve()
        solutions = recorded_result.partition_solutions
        assert len(solutions) == 4
        assert handed == [solution.num_variables for solution in solutions]
        assert [s.statistics["backend"] for s in solutions] == [solver] * 4
        assert _paths(recorded_result) == _paths(named_result)
        assert _reservations(recorded_result) == _reservations(named_result)

    def test_a_capacity_change_is_never_answered_from_the_memo(self):
        """``set_topology`` to a topology whose links kept their names but
        changed capacity: no record changes, so only dropping the memo
        keeps the old reservation fractions from being served.  A rollback
        brings the old capacities back together with the memo that was
        true of them; a topology that merely loses links keeps its hits."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)

        def seeded(topology):
            engine = IncrementalProvisioner(topology)
            for statement in scenario.policy.statements:
                engine.add_statement(
                    statement, rates[statement.identifier].guarantee
                )
            return engine

        halved = Topology(name="halved")
        for node in scenario.topology.nodes():
            halved.add_node(node)
        for link in scenario.topology.links():
            halved.add_link(
                link.source, link.target, link.capacity * 0.5, link.latency_ms
            )

        engine = seeded(scenario.topology)
        before = engine.resolve()
        saved = engine.journal.mark()
        engine.set_topology(halved)
        degraded = engine.resolve()
        fresh = seeded(halved).resolve()
        assert degraded.solve_statistics["partitions_reused"] == 0.0
        assert degraded.max_utilization == fresh.max_utilization
        assert degraded.max_utilization == 2 * before.max_utilization
        assert _reservations(degraded) == _reservations(fresh)

        engine.journal.rollback(saved)
        engine.journal.release(saved)
        restored = engine.resolve()
        assert restored.solve_statistics["partitions_dirty"] == 0.0
        assert _reservations(restored) == _reservations(before)

        unused = next(
            key
            for key, reserved in before.link_reservations.items()
            if reserved.bps_value == 0.0
        )
        engine.set_topology(scenario.topology.without(links=[unused]))
        assert engine.resolve().solve_statistics["partitions_dirty"] == 0.0


class TestOnlyProofsAreMemoized:
    def test_a_solve_that_found_nothing_is_retried_by_the_next_resolve(self):
        """``ERROR`` says nothing about feasibility, so the memo keeps no
        infeasible marker for it: the next resolve on the same engine
        solves again instead of failing from memory."""
        topology, policy, rates, logical = _figure2_inputs()
        backend = FlakyBackend()
        engine = _engine(
            topology,
            policy.statements,
            rates,
            logical,
            options=ProvisionOptions(solver=backend),
        )
        with pytest.raises(ProvisioningError) as raised:
            engine.resolve()
        assert "no solution found (solver status: error)" in str(raised.value)
        assert "cannot be satisfied" not in str(raised.value)
        assert INFEASIBLE_COMPONENT not in engine._memo.values()

        backend.failing = False
        recording = Telemetry.recording()
        with recording.use():
            result = engine.resolve()
        counters = recording.snapshot()
        assert counters.counter_total("component_cache_infeasible_hits") == 0
        assert counters.counter_total("solver_calls") >= 1
        assert _paths(result) == _paths(
            _engine(topology, policy.statements, rates, logical).resolve()
        )
