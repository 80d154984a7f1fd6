"""The session-lifetime tighten cache: reuse across resolves, purge on edits.

Cost-bound tightening (``prune_to_cost_bound``) used to be recomputed for
*every* statement on *every* resolve round.  The engine now keeps the
``{statement: {slack: (base, tightened, footprint)}}`` cache for the
session's lifetime, validating entries by the base topology's identity —
so a recompile that dirties one pod reuses every other statement's
tightening verbatim, while mutating a statement's logical topology (or
removing it) drops exactly that statement's entries.
"""

from repro.core.compiler import MerlinCompiler
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import DeltaStatement, PolicyDelta


def _compiler(scenario):
    return MerlinCompiler(
        topology=scenario.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def test_tighten_entries_survive_recompiles_and_purge_on_removal():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    base = compiler.compile(scenario.policy)

    wild = unconstrained_statement(scenario, "wild")
    first = compiler.recompile(
        PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
    )
    engine = compiler._session.engine
    cache = engine._tighten_cache
    assert set(cache) == {s.identifier for s in scenario.policy.statements} | {
        "wild"
    }
    snapshot = {
        identifier: dict(per_slack) for identifier, per_slack in cache.items()
    }

    reverted = compiler.recompile(PolicyDelta(remove=("wild",)))
    # The removed statement's entries are gone; every surviving statement's
    # entries are the *same tuples* — reused, not recomputed.
    assert "wild" not in cache
    for identifier, per_slack in snapshot.items():
        if identifier == "wild":
            continue
        for slack, entry in per_slack.items():
            assert cache[identifier][slack] is entry

    # And the reuse is sound: reverting restored the base allocations.
    assert _reservations(reverted) == _reservations(base)
    assert first.statistics.num_partitions >= base.statistics.num_partitions


def test_mutating_a_statement_drops_only_its_entries():
    scenario = pod_tenant_scenario(arity=4, pairs_per_pod=2)
    compiler = _compiler(scenario)
    compiler.compile(scenario.policy)

    wild = unconstrained_statement(scenario, "wild")
    compiler.recompile(
        PolicyDelta(add=(DeltaStatement(wild, guarantee=scenario.guarantee),))
    )
    engine = compiler._session.engine
    untouched = {
        identifier: dict(per_slack)
        for identifier, per_slack in engine._tighten_cache.items()
        if identifier != "wild"
    }

    engine.replace_logical("wild", engine.logical_for("wild"))
    assert "wild" not in engine._tighten_cache
    for identifier, per_slack in untouched.items():
        for slack, entry in per_slack.items():
            assert engine._tighten_cache[identifier][slack] is entry
