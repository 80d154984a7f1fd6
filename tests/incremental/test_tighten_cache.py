"""Cost-bound tightening is done once per statement record and slack rung.

``prune_to_cost_bound`` is the expensive half of a resolve round, so its
result (and the link footprint taken from it) is kept on the statement's
engine record.  The tests count calls: a statement nobody touched is never
tightened again — not by a recompile that dirties another pod, not by a
rollback, not after another statement's ``replace_logical`` — while a
statement whose product graph is swapped gets a record without views, and
a removed statement takes its views with it.
"""

import pytest

from repro.core.compiler import MerlinCompiler
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import (
    DeltaStatement,
    IncrementalProvisioner,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
)
from repro.incremental import solve as solve_module
from repro.units import Bandwidth


def _compiler(scenario):
    return MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


@pytest.fixture
def tightened(monkeypatch):
    """Statement ids in the order ``prune_to_cost_bound`` was called."""
    calls = []
    prune = solve_module.prune_to_cost_bound

    def counting_prune(logical, slack):
        calls.append(logical.statement_id)
        return prune(logical, slack)

    monkeypatch.setattr(solve_module, "prune_to_cost_bound", counting_prune)
    return calls


def test_tighten_entries_survive_recompiles_and_purge_on_removal(tightened):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    base = compiler.compile(scenario.policy)
    population = sorted(s.identifier for s in scenario.policy.statements)
    assert sorted(tightened) == population  # once each, at the base slack

    wild = unconstrained_statement(scenario, "wild")
    first = compiler.recompile(
        PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
    )
    assert tightened[len(population):] == ["wild"]

    engine = compiler._session.engine
    reverted = compiler.recompile(PolicyDelta(remove=("wild",)))
    # Neither recompile re-tightened a surviving statement, and the removed
    # statement's views went with its record.
    assert tightened[len(population):] == ["wild"]
    assert "wild" not in engine.records

    # And the reuse is sound: reverting restored the base allocations.
    assert _reservations(reverted) == _reservations(base)
    assert first.statistics.num_partitions >= base.statistics.num_partitions


def test_mutating_a_statement_drops_only_its_entries(tightened):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)

    wild = unconstrained_statement(scenario, "wild")
    compiler.recompile(
        PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
    )
    engine = compiler._session.engine
    del tightened[:]

    engine.replace_logical("wild", engine.records["wild"].logical)
    engine.resolve()
    assert tightened == ["wild"]


def test_rollback_reinstates_views_with_their_records(tightened):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)

    # A guarantee no link can carry: the transaction swaps p0s0's record,
    # walks the widening ladder over its pod, fails and rolls back.
    with pytest.raises(ProvisioningError):
        compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("p0s0", guarantee=Bandwidth.gbps(50)),)
            )
        )
    assert "p0s0" in tightened  # the ladder tightened it at wider rungs
    del tightened[:]

    # The rollback put the old records back, views and all.
    compiler.recompile(
        PolicyDelta(update_rates=(RateUpdate("p0s0", guarantee=Bandwidth.mbps(10)),))
    )
    assert tightened == []


@pytest.fixture
def written(monkeypatch):
    """``name -> [(record before, record after, its views right after)]``
    for every call of the engine mutators ``update_rates`` and
    ``replace_logical``, taken before a resolve can fill the views."""
    calls = {"update_rates": [], "replace_logical": []}
    for name, seen in calls.items():
        mutator = getattr(IncrementalProvisioner, name)

        def spy(self, identifier, *args, _mutator=mutator, _seen=seen, **kwargs):
            before = self.records[identifier]
            _mutator(self, identifier, *args, **kwargs)
            after = self.records[identifier]
            _seen.append((before, after, dict(after.views)))

        monkeypatch.setattr(IncrementalProvisioner, name, spy)
    return calls


def test_a_rate_update_keeps_the_views_object():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)
    records = compiler._session.engine.records
    record = records["p0s0"]
    assert record.views

    compiler.recompile(
        PolicyDelta(update_rates=(RateUpdate("p0s0", guarantee=Bandwidth.mbps(10)),))
    )
    assert records["p0s0"] is not record
    assert records["p0s0"].views is record.views


def test_a_promotion_starts_with_empty_views(written):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)
    records = compiler._session.engine.records
    guaranteed = records["p0s0"]
    compiler.recompile(PolicyDelta(update_rates=(RateUpdate("p0s0"),)))
    demoted = records["p0s0"]
    assert demoted.token is None and demoted.logical is None
    assert demoted.views == {} and demoted.views is not guaranteed.views

    compiler.recompile(
        PolicyDelta(
            update_rates=(RateUpdate("p0s0", guarantee=scenario.guarantee),)
        )
    )
    before, after, views = written["update_rates"][-1]
    assert before is demoted and after is records["p0s0"]
    assert views == {}
    assert after.views is not demoted.views
    assert after.views is not guaranteed.views
    assert after.views  # the resolve cut the new graph afresh


def test_a_rebuild_after_a_link_failure_starts_with_empty_views(written):
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)
    # p0s0's product graph reaches the aggregation layer of its pod (its
    # path expression admits a0_0), so losing an edge-to-aggregation link
    # rebuilds it.
    compiler.recompile(TopologyDelta(fail_links=(("e0_0", "a0_0"),)))

    rebuilt = written["replace_logical"]
    assert "p0s0" in [after.identifier for _, after, _ in rebuilt]
    for before, after, views in rebuilt:
        assert after.logical is not before.logical
        assert views == {}
        assert after.views is not before.views


def test_a_rolled_back_promotion_puts_the_record_back():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)
    compiler.recompile(PolicyDelta(update_rates=(RateUpdate("p0s0"),)))
    records = compiler._session.engine.records
    demoted = records["p0s0"]

    # A guarantee no link can carry: the promotion is applied, the solve
    # fails and the transaction rolls back.
    with pytest.raises(ProvisioningError):
        compiler.recompile(
            PolicyDelta(
                update_rates=(RateUpdate("p0s0", guarantee=Bandwidth.gbps(50)),)
            )
        )
    assert records["p0s0"] is demoted


def test_a_rolled_back_demotion_puts_the_record_back():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)
    records = compiler._session.engine.records
    guaranteed = records["p0s0"]

    # The demotion is applied, then the delta's second update is refused.
    with pytest.raises(ProvisioningError, match="unknown statement 'ghost'"):
        compiler.recompile(
            PolicyDelta(
                update_rates=(
                    RateUpdate("p0s0"),
                    RateUpdate("ghost", guarantee=Bandwidth.mbps(1)),
                )
            )
        )
    assert records["p0s0"] is guaranteed
