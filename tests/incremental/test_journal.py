"""The undo journal: O(1) checkpoints proven byte-identical to shadow copies.

Three layers of coverage:

* unit tests of :class:`~repro.incremental.journal.UndoJournal` itself
  (stacked marks, stale-mark detection, truncation on release, inactive
  no-op recording, list-index-preserving undo),
* a randomized side-by-side property test running the journal *and* a
  shadow copy of the engine's state (``_engine_state``) over the same
  random delta streams and asserting the journal rollback restores every
  engine dict byte-identical to the copies,
* nested-transaction and rollback-after-topology-delta cases through the
  compiler session / facade, where rollback must also restore statement
  *order* (sequence stamps) so regenerated instructions stay identical.
"""

import random

import pytest

from repro.core import MerlinCompiler
from repro.core.localization import localize
from repro.errors import ProvisioningError
from repro.incremental import (
    DeltaStatement,
    IncrementalProvisioner,
    JournalError,
    PolicyDelta,
    RateUpdate,
    TopologyDelta,
    UndoJournal,
)
from repro.units import Bandwidth

from test_equivalence_property import _RandomPolicyChurn


class TestUndoJournal:
    def test_mark_rollback_release_roundtrip(self):
        journal = UndoJournal()
        data = {"a": 1}
        mark = journal.mark()
        journal.set_item(data, "a", 2)
        journal.set_item(data, "b", 3)
        journal.del_item(data, "a")
        assert data == {"b": 3}
        assert journal.rollback(mark) == 3
        assert data == {"a": 1}
        journal.release(mark)
        assert len(journal) == 0

    def test_recording_is_noop_without_marks(self):
        journal = UndoJournal()
        data = {}
        journal.set_item(data, "x", 1)
        journal.del_item(data, "x")
        journal.set_attr(journal, "_serial", journal._serial)
        assert len(journal) == 0
        assert not journal.active

    def test_stacked_marks_rollback_to_earlier_invalidates_later(self):
        journal = UndoJournal()
        data = {}
        outer = journal.mark()
        journal.set_item(data, "a", 1)
        inner = journal.mark()
        journal.set_item(data, "b", 2)
        journal.rollback(outer)
        assert data == {}
        with pytest.raises(JournalError):
            journal.rollback(inner)
        # Releasing the invalidated mark is a harmless no-op.
        journal.release(inner)
        journal.release(outer)

    def test_rolled_back_mark_stays_live_for_retry(self):
        journal = UndoJournal()
        data = {}
        mark = journal.mark()
        journal.set_item(data, "a", 1)
        journal.rollback(mark)
        journal.set_item(data, "a", 2)
        journal.rollback(mark)
        assert data == {}
        journal.release(mark)

    def test_release_truncates_only_below_outstanding_marks(self):
        journal = UndoJournal()
        data = {}
        outer = journal.mark()
        journal.set_item(data, "a", 1)
        inner = journal.mark()
        journal.set_item(data, "b", 2)
        journal.release(inner)
        # The outer mark still needs both entries.
        assert len(journal) == 2
        journal.rollback(outer)
        assert data == {}
        journal.release(outer)
        assert len(journal) == 0

    def test_set_attr_undo(self):
        class Box:
            value = 1

        box = Box()
        journal = UndoJournal()
        mark = journal.mark()
        journal.set_attr(box, "value", 2)
        journal.set_attr(box, "value", 3)
        journal.rollback(mark)
        assert box.value == 1


def _engine_state(engine):
    """Every piece of engine session state a transaction must protect.

    The solution memo and the token counter are not in it on purpose: a
    rollback leaves both alone (tokens are never re-issued, so no memo
    entry can be made wrong), and ``test_transactions`` checks what that
    buys.
    """
    return {
        "records": dict(engine._records),
        "topology": engine.topology,
        "capacities": dict(engine._capacity_mbps),
    }


def _apply_engine_op(engine, op):
    kind = op[0]
    if kind == "add":
        engine.add_statement(op[1], op[2])
    elif kind == "remove":
        engine.remove_statement(op[1])
    else:
        engine.update_rates(op[1], op[2])


@pytest.mark.parametrize("seed", range(3))
def test_journal_rollback_matches_legacy_snapshot(seed):
    """Side by side: for random delta streams, a journal rollback restores
    the engine byte-identical to the shadow copy (``_engine_state``)
    captured at the same instant (every record under its old token, the
    topology and its capacity map)."""
    rng = random.Random(seed)
    churn = _RandomPolicyChurn(seed + 900)
    scenario = churn.scenario
    rates = localize(scenario.policy)
    engine = IncrementalProvisioner(scenario.topology)
    for statement in scenario.policy.statements:
        engine.add_statement(statement, rates[statement.identifier].guarantee)
    engine.resolve()

    for _ in range(5):
        population = dict(churn.active)
        legacy = _engine_state(engine)  # the copying checkpoint
        mark = engine.journal.mark()  # the journal transaction
        for _ in range(rng.randint(1, 4)):
            _apply_engine_op(engine, churn.next_op())
        if rng.random() < 0.5:
            engine.resolve()  # touches the memo mid-transaction
        engine.journal.rollback(mark)
        engine.journal.release(mark)
        churn.active = population
        assert _engine_state(engine) == legacy
        # Interleave a committed op so rounds start from fresh states.
        _apply_engine_op(engine, churn.next_op())
    engine.resolve()


def test_nested_engine_transactions():
    """Inner rollback keeps outer-transaction changes; outer rollback takes
    everything back to the outer mark."""
    churn = _RandomPolicyChurn(42)
    scenario = churn.scenario
    rates = localize(scenario.policy)
    engine = IncrementalProvisioner(scenario.topology)
    for statement in scenario.policy.statements:
        engine.add_statement(statement, rates[statement.identifier].guarantee)

    base = _engine_state(engine)
    outer = engine.journal.mark()
    engine.update_rates("p0s0", Bandwidth.mbps(10))
    mid = _engine_state(engine)

    inner = engine.journal.mark()
    engine.remove_statement("p1s0")
    engine.update_rates("p0s0", Bandwidth.mbps(75))
    engine.journal.rollback(inner)
    engine.journal.release(inner)
    assert _engine_state(engine) == mid

    # Inner commit keeps its changes through to the outer rollback.
    inner2 = engine.journal.mark()
    engine.update_rates("p0s0", Bandwidth.mbps(50))
    engine.journal.release(inner2)
    assert engine._records["p0s0"].rates.guarantee.bps_value == Bandwidth.mbps(50).bps_value

    engine.journal.rollback(outer)
    engine.journal.release(outer)
    assert _engine_state(engine) == base


def _fresh_compiler(policy, topology):
    compiler = MerlinCompiler(
        topology=topology,
        overlap="trust",
        add_catch_all=False,
        generate_code=True,
    )
    compiler.compile(policy)
    return compiler


def test_rollback_after_topology_delta_is_byte_identical():
    """A failing policy delta after a committed topology delta rolls back to
    exactly the degraded-topology state: a mirror session that applied only
    the topology delta produces identical instructions."""
    churn = _RandomPolicyChurn(11)
    scenario = churn.scenario
    policy = churn.final_policy()
    pod = scenario.pods[0]
    # An intra-pod edge->aggregation link: redundant (the other aggregation
    # switch survives), so the failure re-routes instead of rejecting.
    failed_link = tuple(sorted((pod["edge"][0], pod["aggregation"][0])))

    tested = _fresh_compiler(policy, scenario.topology)
    mirror = _fresh_compiler(policy, scenario.topology)

    fail = TopologyDelta(fail_links=(failed_link,))
    tested.recompile(fail)
    mirror.recompile(fail)

    # A guarantee beyond every link's capacity: validation passes, the
    # component solve is infeasible, the transaction must roll back — on
    # top of the already-failed link.
    statement, _ = next(iter(churn.active.values()))
    doomed = PolicyDelta(
        update_rates=(RateUpdate(statement.identifier, Bandwidth.gbps(50)),)
    )
    with pytest.raises(ProvisioningError):
        tested.recompile(doomed)
    assert tested.has_session
    assert tested._session.failed_links == frozenset({failed_link})

    left = tested.recompile(PolicyDelta())
    right = mirror.recompile(PolicyDelta())
    assert left.instructions == right.instructions
    assert {i: p.path for i, p in left.paths.items()} == {
        i: p.path for i, p in right.paths.items()
    }


def test_statement_order_survives_rollback():
    """Undoing a mid-dict deletion re-inserts at the dict's end; the
    insertion stamps must still regenerate instructions in the original
    statement order (VLAN/queue allocation is order-sensitive)."""
    churn = _RandomPolicyChurn(23)
    scenario = churn.scenario
    policy = churn.final_policy()
    tested = _fresh_compiler(policy, scenario.topology)
    mirror = _fresh_compiler(policy, scenario.topology)

    # Remove a statement from the *middle* of the population and add one,
    # then fail at solve time: the rollback re-inserts the removed
    # statement after the surviving ones in raw dict order.
    identifiers = list(churn.active)
    victim = identifiers[len(identifiers) // 2]
    doomed_statement = churn._fresh_statement()
    doomed = PolicyDelta(
        remove=(victim,),
        add=(DeltaStatement(doomed_statement, guarantee=Bandwidth.gbps(50)),),
    )
    with pytest.raises(ProvisioningError):
        tested.recompile(doomed)

    left = tested.recompile(PolicyDelta())
    right = mirror.recompile(PolicyDelta())
    assert tuple(s.identifier for s in left.policy.statements) == tuple(
        s.identifier for s in right.policy.statements
    )
    assert left.instructions == right.instructions


class TestNoopShortCircuit:
    def test_empty_delta_skips_checkpoint_and_solve(self):
        churn = _RandomPolicyChurn(3)
        compiler = _fresh_compiler(churn.final_policy(), churn.scenario.topology)
        session = compiler._session
        baseline = compiler.recompile(
            PolicyDelta(update_rates=(RateUpdate("p0s0", Bandwidth.mbps(25)),))
        )

        def explode():  # resolve must not be called for a no-op
            raise AssertionError("no-op delta reached the solver")

        session.engine.resolve = explode
        result = compiler.recompile(PolicyDelta())
        assert len(session.journal) == 0
        assert not session.journal.active
        assert result.statistics.dirty_partitions == 0
        assert result.statistics.total_seconds == 0.0
        assert result.instructions == baseline.instructions
        assert {i: p.path for i, p in result.paths.items()} == {
            i: p.path for i, p in baseline.paths.items()
        }

        empty_topology = compiler.recompile(TopologyDelta())
        assert empty_topology.instructions == baseline.instructions
