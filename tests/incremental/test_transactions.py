"""Transactional recompile: rollback leaves the session byte-identical.

The acceptance property of the session transaction: for *any* delta
sequence with injected failures (deltas a mutator refuses half-way,
infeasible solves, code-generation errors), the rolled-back session
compiles byte-identically to a session that never saw the failed deltas —
same paths, same rates, same reservations, same generated instructions,
same partition-cache behavior.
"""

import random
import re

import pytest

import repro.core.compiler as compiler_module
from repro.core import MerlinCompiler, ProvisionOptions
from repro.core.ast import Statement
from repro.core.localization import localize
from repro.codegen.generator import CodeGenerator
from repro.errors import PolicyError, ProvisioningError
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
    RateUpdate,
    TopologyDelta,
)
from repro.incremental import solve as solve_module
from repro.predicates.ast import TRUE, FieldTest
from repro.regex.ast import any_path
from repro.regex.parser import parse_path_expression
from repro.telemetry import Telemetry
from repro.units import Bandwidth
from tests.conftest import add_guaranteed

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
    return Statement(f"doom{index}", predicate, any_path())


class _SessionPair:
    """Two sessions of one churning policy; ``tested`` also receives the
    deltas that must fail, ``mirror`` never sees them."""

    def __init__(self, churn, partition=True, overlap="trust", add_catch_all=False):
        self.churn = churn
        self.overlap = overlap
        self.telemetry = Telemetry.recording()
        self.serial = 0
        self.tested, self.mirror = (
            MerlinCompiler(
                topology=churn.scenario.topology,
                overlap=overlap,
                add_catch_all=add_catch_all,
                generate_code=True,
                options=ProvisionOptions(partition=partition),
            )
            for _ in range(2)
        )
        for compiler in (self.tested, self.mirror):
            compiler.compile(churn.final_policy())

    def both(self, delta):
        """A delta both sessions accept, with equal results."""
        tested_result = self.tested.recompile(delta)
        mirror_result = self.mirror.recompile(delta)
        _assert_byte_identical(tested_result, mirror_result)
        return tested_result, mirror_result

    def rolled_back(self):
        return self.telemetry.snapshot().counter_total("transactions_rolled_back")

    def fails(self, delta, error, text):
        """``tested`` refuses ``delta`` with ``error``, counts one rollback
        and is left with an empty, closed journal."""
        before = self.rolled_back()
        with self.telemetry.use(), pytest.raises(error, match=re.escape(text)):
            self.tested.recompile(delta)
        assert self.tested.has_session
        assert self.rolled_back() == before + 1
        span = self.telemetry.recorder.by_name("recompile")[-1]
        assert span.attributes["rolled_back"] is True
        journal = self.tested._session.journal
        assert len(journal) == 0 and not journal.active

    def fresh(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    def valid_changes(self):
        """The part of a doomed delta that really is applied before the
        fault: a removal (whose record the rollback must re-insert) where
        the session allows one, and a provisionable add."""
        remove = ()
        if self.overlap != "priority":
            remove = (self.churn.rng.choice(sorted(self.churn.active)),)
        add = (
            DeltaStatement(
                self.churn._fresh_statement(), guarantee=Bandwidth.mbps(10)
            ),
        )
        return remove, add

    def other_than(self, removed):
        """A live statement the valid part of the delta leaves alone."""
        return next(
            statement
            for identifier, (statement, _) in sorted(self.churn.active.items())
            if identifier not in removed
        )


def _fabric_links(pair):
    topology = pair.churn.scenario.topology
    return [
        tuple(sorted((link.source, link.target)))
        for link in topology.links()
        if not topology.node(link.source).is_host
        and not topology.node(link.target).is_host
    ]


def _policy_refusal(fault):
    """Wrap ``fault(pair, removed) -> (extra removes, extra adds, updates,
    error, text)`` into a refusal that applies a valid removal and a valid
    add first."""

    def refusal(pair):
        remove, add = pair.valid_changes()
        more_removes, more_adds, updates, error, text = fault(pair, remove)
        delta = PolicyDelta(
            remove=remove + more_removes,
            add=add + tuple(DeltaStatement(*entry) for entry in more_adds),
            update_rates=updates,
        )
        return delta, error, text

    return refusal


def _endpointless(pair):
    return Statement(
        pair.fresh("nowhere"),
        FieldTest("tcp.dst", 30_000 + pair.serial),
        any_path(),
    )


def _unknown_remove(pair, removed):
    return ("ghost",), (), (), ProvisioningError, "cannot remove unknown statement 'ghost'"


def _generated_catch_all_remove(pair, removed):
    text = "cannot remove unknown statement 'default'"
    return ("default",), (), (), ProvisioningError, text


def _removed_twice(pair, removed):
    # The second removal finds the statement already gone.
    text = f"cannot remove unknown statement '{removed[0]}'"
    return removed, (), (), ProvisioningError, text


def _duplicate_add(pair, removed):
    existing = pair.other_than(removed)
    text = f"statement '{existing.identifier}' already exists; remove it first"
    return (), ((existing, Bandwidth.mbps(10)),), (), ProvisioningError, text


def _overlapping_add(pair, removed):
    existing = pair.other_than(removed)
    clash = Statement(pair.fresh("clash"), existing.predicate, existing.path)
    text = (
        f"statement '{clash.identifier}' overlaps existing statements: "
        f"{existing.identifier}; use overlap='priority'"
    )
    return (), ((clash, Bandwidth.mbps(10)),), (), PolicyError, text


def _shadowed_add(pair, removed):
    existing = pair.other_than(removed)
    shadow = Statement(pair.fresh("shadow"), existing.predicate, existing.path)
    text = f"statement '{shadow.identifier}' is completely shadowed by existing"
    return (), ((shadow, Bandwidth.mbps(10)),), (), PolicyError, text


def _priority_remove(pair, removed):
    victim = pair.other_than(removed).identifier
    text = "overlap='priority' sessions cannot remove statements incrementally"
    return (victim,), (), (), ProvisioningError, text


def _catch_all_clash(pair, removed):
    # A blanket statement stands in for the catch-all; removing it while a
    # user statement takes the name "default" leaves the catch-all nowhere
    # to go.
    blanket = pair.fresh("blanket")
    pair.both(PolicyDelta(add=(DeltaStatement(Statement(blanket, TRUE, any_path())),)))
    squatter = Statement(
        "default", FieldTest("tcp.dst", 40_000 + pair.serial), any_path()
    )
    text = "cannot add catch-all: identifier 'default' already used"
    return (blanket,), ((squatter,),), (), PolicyError, text


def _undetermined_hosts(statement):
    return (
        f"statement '{statement.identifier}' requests a bandwidth guarantee but "
        "its source/destination hosts cannot be determined from its predicate"
    )


def _endpointless_guarantee(pair, removed):
    statement = _endpointless(pair)
    text = _undetermined_hosts(statement)
    return (), ((statement, Bandwidth.mbps(10)),), (), ProvisioningError, text


def _endpointless_promotion(pair, removed):
    statement = _endpointless(pair)
    pair.both(PolicyDelta(add=(DeltaStatement(statement),)))
    update = RateUpdate(statement.identifier, guarantee=Bandwidth.mbps(10))
    return (), (), (update,), ProvisioningError, _undetermined_hosts(statement)


def _empty_product_guarantee(pair, removed):
    scenario = pair.churn.scenario
    source, destination = scenario.pods[0]["hosts"][0], scenario.pods[0]["hosts"][-1]
    identifier = pair.fresh("stuck")
    statement = Statement(
        identifier,
        _pair_predicate(scenario.topology, source, destination, 50_000 + pair.serial),
        parse_path_expression(f"{source} {destination}"),  # no such link
    )
    text = f"statement '{identifier}' has no feasible path satisfying its path"
    return (), ((statement, Bandwidth.mbps(10)),), (), ProvisioningError, text


def _unknown_update(pair, removed):
    update = RateUpdate("ghost", guarantee=Bandwidth.mbps(10))
    text = "cannot update rates of unknown statement 'ghost'"
    return (), (), (update,), ProvisioningError, text


def _already_failed(pair):
    link = _fabric_links(pair)[0]
    if link not in pair.tested._session.failed_links:
        pair.both(TopologyDelta(fail_links=(link,)))
    text = f"link '{link[0]}'-'{link[1]}' is already failed"
    return TopologyDelta(fail_links=(link,)), ProvisioningError, text


def _not_failed(pair):
    link = _fabric_links(pair)[-1]
    text = f"cannot recover link '{link[0]}'-'{link[1]}': it is not failed"
    return TopologyDelta(recover_links=(link,)), ProvisioningError, text


def _failed_host(pair):
    host = pair.churn.scenario.pods[0]["hosts"][0]
    text = f"cannot fail host '{host}': only switches and middleboxes can fail"
    return TopologyDelta(fail_nodes=(host,)), ProvisioningError, text


#: Every reason a mutator refuses a delta, with the session configuration
#: under which it can arise.  Each builder returns the doomed delta (policy
#: deltas apply a valid removal and a valid add before the fault, so the
#: rollback has real work to undo), and the error type and text.
_REFUSALS = {
    "unknown-remove": (_policy_refusal(_unknown_remove), {}),
    "generated-catch-all-remove": (
        _policy_refusal(_generated_catch_all_remove),
        {"add_catch_all": True},
    ),
    "removed-twice": (_policy_refusal(_removed_twice), {}),
    "duplicate-add": (_policy_refusal(_duplicate_add), {}),
    "overlapping-add": (_policy_refusal(_overlapping_add), {"overlap": "reject"}),
    "shadowed-add": (_policy_refusal(_shadowed_add), {"overlap": "priority"}),
    "priority-remove": (_policy_refusal(_priority_remove), {"overlap": "priority"}),
    "catch-all-clash": (_policy_refusal(_catch_all_clash), {"add_catch_all": True}),
    "endpointless-guarantee": (_policy_refusal(_endpointless_guarantee), {}),
    "endpointless-promotion": (_policy_refusal(_endpointless_promotion), {}),
    "empty-product-guarantee": (_policy_refusal(_empty_product_guarantee), {}),
    "unknown-update": (_policy_refusal(_unknown_update), {}),
    "already-failed": (_already_failed, {}),
    "not-failed": (_not_failed, {}),
    "failed-host": (_failed_host, {}),
}

_PARTITION_AND_SEED = [
    pytest.param(partition, seed, id=str(seed) if partition else f"unpartitioned-{seed}")
    for partition in (True, False)
    for seed in range(4)
]


@pytest.mark.parametrize("partition, seed", _PARTITION_AND_SEED)
def test_failed_deltas_leave_session_equal_to_never_seeing_them(
    partition, seed, monkeypatch
):
    """Drive random churn through two sessions — one also receives failing
    deltas (infeasible solves, codegen failures and deltas a mutator
    refuses half-way) that must roll back — and require the final compiles
    to be byte-identical."""
    monkeypatch.setattr(compiler_module, "CodeGenerator", _FlakyGenerator)
    monkeypatch.setattr(_FlakyGenerator, "explode", False)
    rng = random.Random(seed)
    churn = _RandomPolicyChurn(seed + 500)
    pair = _SessionPair(churn, partition=partition)
    refusable = sorted(name for name, (_, needs) in _REFUSALS.items() if not needs)

    failures_seen = set()
    for step in range(12):
        roll = rng.random()
        if roll < 0.2:
            # Injected infeasible solve: every mutator accepts the delta,
            # the component solve fails, and the transaction must roll
            # back — re-inserting the record of the statement it removed.
            remove, add = pair.valid_changes()
            doomed = DeltaStatement(
                _infeasible_statement(churn, step), guarantee=Bandwidth.gbps(50)
            )
            pair.fails(
                PolicyDelta(remove=remove, add=add + (doomed,)),
                ProvisioningError,
                "infeasible",
            )
            failures_seen.add("solve")
            continue
        if roll < 0.35:
            # Injected codegen failure on an otherwise-valid delta.
            population = dict(churn.active)
            delta = _delta_for(churn.next_op())
            _FlakyGenerator.explode = True
            pair.fails(delta, RuntimeError, "injected codegen failure")
            _FlakyGenerator.explode = False
            failures_seen.add("codegen")
            # The delta failed, so the mirror must not see it either; roll
            # the churn's live population back too.
            churn.active = population
            continue
        if roll < 0.6:
            build, _ = _REFUSALS[rng.choice(refusable)]
            pair.fails(*build(pair))
            failures_seen.add("refusal")
            continue
        tested_result, mirror_result = pair.both(_delta_for(churn.next_op()))
        # Whatever the failed transactions left in the memo can only help.
        assert (
            tested_result.statistics.dirty_partitions
            <= mirror_result.statistics.dirty_partitions
        )

    assert failures_seen, "the seed produced no injected failures"
    # A final no-op recompile re-derives each session's full result.
    pair.both(PolicyDelta())


@pytest.mark.parametrize("partition", (True, False), ids=("partitioned", "unpartitioned"))
@pytest.mark.parametrize("reason", sorted(_REFUSALS))
def test_every_refusal_is_a_rolled_back_transaction(reason, partition):
    """There is no validation pass: a mutator refuses the delta after part
    of it has been applied, with the error a pre-check would have given,
    and the rollback leaves the session as if it had never seen it."""
    build, needs = _REFUSALS[reason]
    churn = _RandomPolicyChurn(700)
    pair = _SessionPair(churn, partition=partition, **needs)
    pair.fails(*build(pair))
    assert pair.tested.session().statement_ids == pair.mirror.session().statement_ids
    pair.both(PolicyDelta())
    joining = DeltaStatement(churn._fresh_statement(), guarantee=Bandwidth.mbps(25))
    pair.both(PolicyDelta(add=(joining,)))


def _delta_for(op):
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
            add_guaranteed(engine, statement, rates[statement.identifier].guarantee)
        before = engine.resolve()

        saved = engine.journal.mark()
        wild = unconstrained_statement(scenario)
        add_guaranteed(engine, wild, Bandwidth.mbps(25))
        engine.update_rates("p0s0", Bandwidth.mbps(10))
        engine.remove_statement("p1s0")
        engine.resolve()

        engine.journal.rollback(saved)
        assert set(engine.records) == {
            s.identifier for s in scenario.policy.statements
        }
        after = engine.resolve()
        # The restored session is clean: every component is a cache hit.
        assert after.solve_statistics["partitions_dirty"] == 0.0
        assert _paths(after) == _paths(before)
        assert _reservations(after) == _reservations(before)

    def test_rolled_back_rates_never_answer_for_a_later_update(self):
        """A transaction sets p0s0's guarantee to 30 Mbps, solves and rolls
        back; the next update sets it to 40.  A record token is never
        issued twice, so the memo entry the failed transaction made for
        30 Mbps cannot be mistaken for the 40 Mbps component, although the
        memo is not rolled back."""
        scenario = pod_tenant_scenario(arity=4, pairs_per_pod=1)
        rates = localize(scenario.policy)
        engine = IncrementalProvisioner(scenario.topology)
        for statement in scenario.policy.statements:
            add_guaranteed(engine, statement, rates[statement.identifier].guarantee)
        engine.resolve()

        saved = engine.journal.mark()
        engine.update_rates("p0s0", Bandwidth.mbps(30))
        engine.resolve()  # memoized mid-transaction
        engine.journal.rollback(saved)
        engine.update_rates("p0s0", Bandwidth.mbps(40))
        engine.journal.release(saved)

        # Every feasible path crosses the source host's access link, which
        # must therefore carry exactly the current guarantee.
        source_host = scenario.pods[0]["hosts"][0]
        view = engine.records["p0s0"].view(engine.footprint_slack)
        (host_link,) = [link for link in view.logical.footprint if source_host in link]
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
            add_guaranteed(engine, statement, rates[statement.identifier].guarantee)
        for mbps in (10, 20, 30, 40):
            engine.update_rates("p0s0", Bandwidth.mbps(mbps))
            engine.resolve()
        memo = engine._memo
        assert len(memo) == 6  # seven components solved: filled to its bound

        saved = engine.journal.mark()
        assert type(saved) is JournalMark
        engine.update_rates("p0s0", Bandwidth.mbps(50))
        engine.resolve()
        engine.journal.rollback(saved)
        engine.journal.release(saved)
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
        assert compiler.session_record("a").statement.path == policy.statements[0].path

        # The session keeps serving refinements without a re-seed: the
        # fat-path pin is feasible and lands incrementally.
        feasible = parse_policy(
            source.replace("-> .*", "-> .* sa1 .* sa2 .*"), topology=topology
        )
        assert root.propose(feasible).valid
        assert root.last_reprovision is not None
        assert "sa1" in root.last_reprovision.paths["a"].path
