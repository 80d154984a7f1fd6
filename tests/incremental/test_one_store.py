"""One statement store: the engine's ``records`` is the only per-statement dict.

The compiler session keeps no entry of its own beside the engine's record:
every statement, best-effort or guaranteed, is one
:class:`~repro.incremental.solve.StatementRecord` in
``IncrementalProvisioner.records``, and each statement-level change a delta
makes — an add, a removal, a rate update, a promotion into the MIP, a
demotion out of it — is exactly one journaled write to that dict.  The
tests count every keyed write that goes through the undo journal
(``set_item`` / ``del_item``), wherever it lands.
"""

import pytest

from repro.core.compiler import MerlinCompiler
from repro.experiments.reprovisioning import (
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate, UndoJournal
from repro.units import Bandwidth

SCENARIO = pod_tenant_scenario(arity=4, pairs_per_pod=1)
WILD = unconstrained_statement(SCENARIO)


@pytest.fixture
def writes(monkeypatch):
    """``(mapping, key)`` of every keyed write made through the journal."""
    seen = []
    set_item, del_item = UndoJournal.set_item, UndoJournal.del_item

    def spy_set(self, mapping, key, value):
        seen.append((mapping, key))
        set_item(self, mapping, key, value)

    def spy_del(self, mapping, key):
        seen.append((mapping, key))
        del_item(self, mapping, key)

    monkeypatch.setattr(UndoJournal, "set_item", spy_set)
    monkeypatch.setattr(UndoJournal, "del_item", spy_del)
    return seen


def _demote(identifier):
    return PolicyDelta(update_rates=(RateUpdate(identifier),))


CASES = {
    "add guaranteed": (
        None,
        PolicyDelta(add=(DeltaStatement(WILD, guarantee=Bandwidth.mbps(25)),)),
        "wild",
    ),
    "add best-effort": (None, PolicyDelta(add=(DeltaStatement(WILD),)), "wild"),
    "remove": (None, PolicyDelta(remove=("p1s0",)), "p1s0"),
    "rate update": (
        None,
        PolicyDelta(update_rates=(RateUpdate("p1s0", Bandwidth.mbps(10)),)),
        "p1s0",
    ),
    "promotion": (
        _demote("p1s0"),
        PolicyDelta(update_rates=(RateUpdate("p1s0", SCENARIO.guarantee),)),
        "p1s0",
    ),
    "demotion": (None, _demote("p1s0"), "p1s0"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_statement_change_is_one_journaled_write_to_the_store(writes, case):
    before, delta, identifier = CASES[case]
    compiler = MerlinCompiler(
        topology=SCENARIO.topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=False,
    )
    compiler.compile(SCENARIO.policy)
    if before is not None:
        compiler.recompile(before)
    records = compiler._session.engine.records
    writes.clear()

    compiler.recompile(delta)

    assert [(mapping is records, key) for mapping, key in writes] == [
        (True, identifier)
    ]


def test_the_store_holds_every_statement_and_resolve_reads_the_guaranteed():
    compiler = MerlinCompiler(topology=SCENARIO.topology, generate_code=False)
    result = compiler.compile(SCENARIO.policy)
    records = compiler._session.engine.records
    assert sorted(records) == sorted(result.rates)
    assert records["default"].generated and records["default"].token is None
    guaranteed = sorted(
        identifier for identifier, record in records.items() if record.token
    )
    assert guaranteed == sorted(
        identifier for identifier, rates in result.rates.items() if rates.guarantee
    )
    resolved = compiler._session.engine.resolve()
    assert sorted(
        identifier
        for solution in resolved.partition_solutions
        for identifier in solution.spec.statement_ids
    ) == guaranteed
