"""Transactional recompile: rollback leaves the session byte-identical.

The acceptance property of the session transaction: for *any* delta
sequence with injected post-validation failures (infeasible solves,
code-generation errors), the rolled-back session compiles byte-identically
to a session that never saw the failed deltas — same paths, same rates,
same reservations, same generated instructions, same partition-cache
behavior.
"""

import random

import pytest

import repro.core.compiler as compiler_module
from repro.core import MerlinCompiler
from repro.core.localization import localize
from repro.codegen.generator import CodeGenerator
from repro.errors import ProvisioningError
from repro.experiments.reprovisioning import (
    _pair_predicate,
    pod_tenant_scenario,
    unconstrained_statement,
)
from repro.incremental import (
    DeltaStatement,
    IncrementalProvisioner,
    JournalMark,
    PolicyDelta,
)
from repro.incremental import solve as solve_module
from repro.units import Bandwidth

from test_equivalence_property import _RandomPolicyChurn


def _paths(result):
    return {identifier: p.path for identifier, p in result.paths.items()}


def _rates(result):
    return {
        identifier: (
            allocation.guarantee.bps_value if allocation.guarantee else None,
            allocation.cap.bps_value if allocation.cap else None,
        )
        for identifier, allocation in result.rates.items()
    }


def _reservations(result):
    return {key: value.bps_value for key, value in result.link_reservations.items()}


def _assert_byte_identical(left, right):
    """Full CompilationResult equivalence, exact floats included."""
    assert {s.identifier: s for s in left.policy.statements} == {
        s.identifier: s for s in right.policy.statements
    }
    assert _paths(left) == _paths(right)
    assert _rates(left) == _rates(right)
    assert _reservations(left) == _reservations(right)
    assert left.instructions == right.instructions


class _FlakyGenerator:
    """A CodeGenerator stand-in that fails on demand."""

    explode = False

    def __init__(self, topology):
        self._real = CodeGenerator(topology=topology)

    def generate(self, *args, **kwargs):
        if _FlakyGenerator.explode:
            raise RuntimeError("injected codegen failure")
        return self._real.generate(*args, **kwargs)


def _infeasible_statement(churn, index):
    """A statement whose guarantee exceeds every link's capacity: it passes
    static validation (a path exists) but the component solve is
    infeasible."""
    scenario = churn.scenario
    pod = scenario.pods[index % len(scenario.pods)]
    hosts = pod["hosts"]
    predicate = _pair_predicate(
        scenario.topology, hosts[0], hosts[-1], 20_000 + index
    )
    from repro.core.ast import Statement
    from repro.regex.ast import any_path

    return Statement(f"doom{index}", predicate, any_path())


@pytest.mark.parametrize("seed", range(4))
def test_failed_deltas_leave_session_equal_to_never_seeing_them(
    seed, monkeypatch
):
    """Drive random churn through two sessions — one also receives failing
    deltas (solve + codegen failures) that must roll back — and require the
    final compiles to be byte-identical."""
    monkeypatch.setattr(compiler_module, "CodeGenerator", _FlakyGenerator)
    monkeypatch.setattr(_FlakyGenerator, "explode", False)
    rng = random.Random(seed)
    churn = _RandomPolicyChurn(seed + 500)

    def fresh_compiler():
        compiler = MerlinCompiler(
            topology=churn.scenario.topology,
            overlap="trust",
            add_catch_all=False,
            generate_code=True,
        )
        compiler.compile(churn.final_policy())
        return compiler

    tested = fresh_compiler()
    mirror = fresh_compiler()

    tested_result = mirror_result = None
    failures_seen = 0
    for step in range(10):
        roll = rng.random()
        if roll < 0.25:
            # Injected infeasible solve: validation passes, the component
            # solve fails, and the transaction must roll back.
            doomed = PolicyDelta(
                add=(
                    DeltaStatement(
                        _infeasible_statement(churn, step),
                        guarantee=Bandwidth.gbps(50),
                    ),
                )
            )
            with pytest.raises(ProvisioningError):
                tested.recompile(doomed)
            assert tested.has_session
            failures_seen += 1
            continue
        if roll < 0.45:
            # Injected codegen failure on an otherwise-valid delta.
            population = dict(churn.active)
            delta = _delta_for(churn.next_op())
            _FlakyGenerator.explode = True
            with pytest.raises(RuntimeError):
                tested.recompile(delta)
            _FlakyGenerator.explode = False
            assert tested.has_session
            failures_seen += 1
            # The delta failed, so the mirror must not see it either; roll
            # the churn's live population back too.
            churn.active = population
            continue
        op = churn.next_op()
        delta = _delta_for(op)
        tested_result = tested.recompile(delta)
        mirror_result = mirror.recompile(delta)
        # Whatever the failed transactions left in the memo can only help.
        assert (
            tested_result.statistics.dirty_partitions
            <= mirror_result.statistics.dirty_partitions
        )
        _assert_byte_identical(tested_result, mirror_result)

    assert failures_seen > 0, "the seed produced no injected failures"
    # A final no-op recompile re-derives each session's full result.
    _assert_byte_identical(
        tested.recompile(PolicyDelta()), mirror.recompile(PolicyDelta())
    )


def _delta_for(op):
    from repro.incremental import RateUpdate

    if op[0] == "add":
        return PolicyDelta(add=(DeltaStatement(op[1], guarantee=op[2]),))
    if op[0] == "remove":
        return PolicyDelta(remove=(op[1],))
    return PolicyDelta(update_rates=(RateUpdate(op[1], guarantee=op[2]),))


class TestEngineCheckpoint:
    def test_checkpoint_restore_roundtrip(self):
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)
        engine = IncrementalProvisioner(scenario.topology)
        for statement in scenario.policy.statements:
            engine.add_statement(statement, rates[statement.identifier].guarantee)
        before = engine.resolve()

        saved = engine.checkpoint()
        wild = unconstrained_statement(scenario)
        engine.add_statement(wild, Bandwidth.mbps(25))
        engine.update_rates("p0s0", Bandwidth.mbps(10))
        engine.remove_statement("p1s0")
        engine.resolve()

        engine.restore(saved)
        assert set(engine.statement_ids()) == {
            s.identifier for s in scenario.policy.statements
        }
        after = engine.resolve()
        # The restored session is clean: every component is a cache hit.
        assert after.solve_statistics["partitions_dirty"] == 0.0
        assert _paths(after) == _paths(before)
        assert _reservations(after) == _reservations(before)

    def _roll_back_30_then_update_to_40(self, solve):
        """A transaction sets p0s0's guarantee to 30 Mbps, solves and rolls
        back; the next update sets it to 40.  Returns the engine and the
        source host's access link, which every feasible path crosses and
        which must therefore carry exactly the current guarantee."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)
        engine = IncrementalProvisioner(scenario.topology)
        for statement in scenario.policy.statements:
            engine.add_statement(statement, rates[statement.identifier].guarantee)
        solve(engine)

        saved = engine.checkpoint()
        engine.update_rates("p0s0", Bandwidth.mbps(30))
        solve(engine)  # memoized mid-transaction
        engine.restore(saved)
        engine.update_rates("p0s0", Bandwidth.mbps(40))
        engine.release(saved)

        source_host = scenario.pods[0]["hosts"][0]
        (host_link,) = [
            link
            for link in engine.logical_for("p0s0").physical_links_used()
            if source_host in link
        ]
        return engine, host_link

    def test_restore_invalidates_live_model_memo(self):
        """The live model materialized inside the failed transaction is
        cleared through the journal, so ``solve_live`` never serves the
        rolled-back 30 Mbps for the later 40."""
        engine, host_link = self._roll_back_30_then_update_to_40(
            IncrementalProvisioner.solve_live
        )
        live = engine.solve_live()
        r_uv = engine.live_model.variable(f"r__{host_link[0]}__{host_link[1]}")
        reserved_mbps = live.value_of(r_uv) * 1000.0  # 1 Gbps links
        assert reserved_mbps == pytest.approx(40.0, abs=1e-3)

    def test_rolled_back_rates_never_answer_for_a_later_update(self):
        """A record token is never issued twice, so the memo entry the
        failed transaction made for 30 Mbps cannot be mistaken for the
        40 Mbps component, although the memo is not rolled back."""
        engine, host_link = self._roll_back_30_then_update_to_40(
            IncrementalProvisioner.resolve
        )
        resolved = engine.resolve()
        assert resolved.solve_statistics["partitions_dirty"] == 1.0
        assert resolved.link_reservations[host_link].bps_value == pytest.approx(
            Bandwidth.mbps(40).bps_value
        )

    def test_checkpoint_is_a_bare_journal_mark_however_full_the_memo(
        self, monkeypatch
    ):
        monkeypatch.setattr(solve_module, "SOLUTION_MEMO_LIMIT", 6)
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)
        engine = IncrementalProvisioner(scenario.topology)
        for statement in scenario.policy.statements:
            engine.add_statement(statement, rates[statement.identifier].guarantee)
        for mbps in (10, 20, 30, 40):
            engine.update_rates("p0s0", Bandwidth.mbps(mbps))
            engine.resolve()
        memo = engine._memo
        assert len(memo) == 6  # seven components solved: filled to its bound

        saved = engine.checkpoint()
        assert type(saved) is JournalMark
        engine.update_rates("p0s0", Bandwidth.mbps(50))
        engine.resolve()
        engine.restore(saved)
        engine.release(saved)
        # One memo for the life of the engine: never copied into a mark,
        # never swapped back by a rollback.
        assert engine._memo is memo
        assert engine.resolve().solve_statistics["partitions_dirty"] == 0.0


class TestNegotiatorRollback:
    def test_failed_reprovision_keeps_session_alive(self):
        """A verified-valid refinement the network cannot carry is
        withdrawn, and — unlike the old fail-loud behavior — the next
        proposal still re-provisions through the intact session."""
        from repro.core.parser import parse_policy
        from repro.negotiator.negotiator import Negotiator
        from repro.topology.generators import dumbbell

        # The Figure 3 dumbbell: a 400 MB/s path via sa1/sa2 and a
        # 100 MB/s path via sb1.
        topology = dumbbell()
        source = """
        [ a : (eth.src = 00:00:00:00:00:01 and
               eth.dst = 00:00:00:00:00:02 and
               tcp.dst = 80) -> .* ],
        min(a, 150MB/s)
        """
        policy = parse_policy(source, topology=topology)
        compiler = MerlinCompiler(
            topology=topology,
            overlap="trust",
            add_catch_all=False,
            generate_code=False,
        )
        compiler.compile(policy)
        root = Negotiator(name="root", policy=policy, compiler=compiler)

        # Pinning the path through sb1 is a valid refinement (a subset of
        # .*), but 150 MB/s does not fit the 100 MB/s thin path: the solve
        # is infeasible and the transaction rolls back.
        pinched = parse_policy(
            source.replace("-> .*", "-> .* sb1 .*"), topology=topology
        )
        original = root.policy
        with pytest.raises(ProvisioningError):
            root.propose(pinched)
        assert root.policy is original
        assert compiler.has_session  # rolled back, not invalidated
        assert compiler.session_statement("a").path == policy.statements[0].path

        # The session keeps serving refinements without a re-seed: the
        # fat-path pin is feasible and lands incrementally.
        feasible = parse_policy(
            source.replace("-> .*", "-> .* sa1 .* sa2 .*"), topology=topology
        )
        assert root.propose(feasible).valid
        assert root.last_reprovision is not None
        assert "sa1" in root.last_reprovision.paths["a"].path
