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
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate
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
    assert not engine.has_statement("wild")

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

    engine.replace_logical("wild", engine.untightened_for("wild"))
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
