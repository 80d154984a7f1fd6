"""A session's instructions are a fresh ``generate`` of its state, byte for byte.

``MerlinCompiler._finalize`` hands ``CodeGenerator.generate`` the last
committed bundle, whose sink-tree and statement fragments are reused where
their content still matches.  These tests drive a seeded churn scenario
and compare the session's bundle with a from-scratch ``generate`` of the
same policy, paths, rates, sink trees and endpoints: on every 50th event,
after every failure and recovery, and after transactions that roll back —
an infeasible delta and a backend raising mid-solve.  They also pin the
topology's link tables, which the tail now reads once per topology.
"""

import pytest

from repro.codegen.generator import CodeGenerator
from repro.core import MerlinCompiler, ProvisionOptions, compute_sink_trees
from repro.core.ast import BandwidthTerm, FMax, FMin, Policy, Statement, formula_and
from repro.errors import ProvisioningError
from repro.incremental import DeltaStatement, PolicyDelta, RateUpdate, TopologyDelta
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.ast import DOT, Symbol, any_path, concat, star
from repro.scenarios import ScenarioConfig, generate_scenario
from repro.topology.generators import fat_tree, figure2_example
from repro.units import Bandwidth
from tests.conftest import RaisingBackend

TOPOLOGY_EVENTS = {"link-failure", "link-recovery", "switch-failure", "switch-recovery"}


def _pair(topology, source, destination, port):
    return pred_and(
        FieldTest("eth.src", topology.node(source).mac),
        pred_and(
            FieldTest("eth.dst", topology.node(destination).mac),
            FieldTest("tcp.dst", port),
        ),
    )


def _extras(population):
    """Statements beside the scenario's guaranteed pairs, so every fragment
    kind is generated: a capped unconstrained statement (sink trees and a
    ``tc`` cap), a constrained best-effort one (path rules, no queues) and
    one whose path expression admits no path (an ``iptables`` drop)."""
    topology = population.topology
    first, second = population.pods[0], population.pods[1]
    source, destination = first.hosts[0], second.hosts[0]
    return (
        Statement("bulk", _pair(topology, source, destination, 9000), any_path()),
        Statement(
            "routed",
            _pair(topology, second.hosts[-1], first.hosts[-1], 9001),
            concat(Symbol(second.hosts[-1]), star(DOT), Symbol(first.hosts[-1])),
        ),
        Statement(
            "nowhere",
            _pair(topology, source, destination, 9002),
            concat(Symbol(source), Symbol(destination)),
        ),
    )


def _churn_compiler(seed, events, solver=None):
    scenario = generate_scenario(ScenarioConfig(seed=seed, events=events, arity=4))
    population = scenario.population
    extras = _extras(population)
    compiler = MerlinCompiler(
        topology=population.topology,
        placements=population.placements,
        overlap="trust",
        add_catch_all=False,
        generate_code=True,
        options=ProvisionOptions(solver=solver),
    )
    result = compiler.compile(
        Policy(
            statements=population.policy.statements + extras,
            formula=formula_and(
                population.policy.formula,
                FMax(BandwidthTerm(identifiers=("bulk",)), Bandwidth.mbps(20)),
            ),
        )
    )
    return scenario, compiler, result


def _fresh(compiler, result):
    """A from-scratch ``generate`` of the session state behind ``result``."""
    session = compiler._session
    entries = session.ordered()
    return CodeGenerator(session.active_topology).generate(
        result.policy,
        result.paths,
        result.rates,
        result.sink_trees,
        endpoints={entry.identifier: entry.endpoints for entry in entries},
        infeasible_statements=tuple(
            entry.identifier for entry in entries if entry.infeasible
        ),
    )


def _assert_fresh(compiler, result):
    fresh = _fresh(compiler, result)
    assert repr(result.instructions) == repr(fresh)
    assert result.instructions.render() == fresh.render()


def _reused(previous, bundle):
    """How many of ``bundle``'s tree and statement fragments are the very
    objects ``previous`` held."""
    old, new = previous.fragments, bundle.fragments
    return sum(
        fragment is old.trees.get(root) for root, fragment in new.trees.items()
    ) + sum(
        fragment is old.statements.get(identifier)
        for identifier, fragment in new.statements.items()
    )


def test_churn_instructions_equal_a_fresh_generate():
    scenario, compiler, result = _churn_compiler(seed=7, events=260)
    counts = result.instructions.counts()
    assert all(counts[kind] for kind in ("openflow", "queues", "tc", "iptables"))
    _assert_fresh(compiler, result)
    session = compiler.session()
    checked = reused_across_topology = 0
    for index, event in enumerate(scenario.events, start=1):
        previous = result.instructions
        result = session.apply(event)
        if event.kind in TOPOLOGY_EVENTS:
            reused_across_topology += _reused(previous, result.instructions)
        if index % 50 == 0 or event.kind in TOPOLOGY_EVENTS:
            _assert_fresh(compiler, result)
            checked += 1
    assert checked > 5
    # Failures and recoveries kept fragments whose routes they left alone.
    assert reused_across_topology > 0


def test_instructions_equal_a_fresh_generate_after_an_infeasible_delta():
    scenario, compiler, result = _churn_compiler(seed=11, events=60)
    session = compiler.session()
    for event in scenario.events[:30]:
        result = session.apply(event)
    committed = result.instructions
    pod = scenario.population.pods[0]
    topology = scenario.population.topology
    doomed = Statement(
        "doomed",
        pred_and(
            FieldTest("eth.src", topology.node(pod.hosts[0]).mac),
            FieldTest("eth.dst", topology.node(pod.hosts[-1]).mac),
        ),
        any_path(),
    )
    removed = sorted(
        entry.identifier
        for entry in compiler._session.engine.records.values()
        if entry.rates.is_guaranteed
    )[0]
    with pytest.raises(ProvisioningError):
        compiler.recompile(
            PolicyDelta(
                remove=(removed,),
                add=(DeltaStatement(doomed, guarantee=Bandwidth.gbps(100)),),
            )
        )
    unchanged = compiler.recompile(PolicyDelta())
    assert unchanged.instructions is committed
    _assert_fresh(compiler, unchanged)
    for event in scenario.events[30:]:
        result = session.apply(event)
        _assert_fresh(compiler, result)


def test_instructions_equal_a_fresh_generate_after_a_backend_raises():
    backend = RaisingBackend()
    scenario, compiler, result = _churn_compiler(seed=5, events=40, solver=backend)
    session = compiler.session()
    for event in scenario.events[:20]:
        result = session.apply(event)
    live = compiler._session.engine.records
    first, second = (
        next(
            identifier
            for identifier in sorted(pod.statement_ids)
            if identifier in live and live[identifier].rates.is_guaranteed
        )
        for pod in scenario.population.pods[:2]
    )
    # Re-rating one pair in each of two pods dirties two components; the
    # second solve raises after the first has been solved.
    backend.raise_on = backend.calls + 2
    with pytest.raises(RuntimeError, match="mid-solve"):
        compiler.recompile(
            PolicyDelta(
                update_rates=(
                    RateUpdate(first, Bandwidth.mbps(1)),
                    RateUpdate(second, Bandwidth.mbps(2)),
                ),
            )
        )
    _assert_fresh(compiler, compiler.recompile(PolicyDelta()))
    for event in scenario.events[20:]:
        result = session.apply(event)
        _assert_fresh(compiler, result)


def test_failures_that_move_tree_tags_and_ingress_switches():
    """Cutting the last edge switch's hosts off leaves every other tree's
    routes, hosts and tag alone but drops an ingress switch; failing an
    earlier edge switch shifts the tags of the trees after it."""
    topology = fat_tree(4)
    first, second, third = (
        topology.hosts_on_switch(name)[0] for name in ("e0_0", "e2_0", "e3_0")
    )
    compiler = MerlinCompiler(topology=topology, generate_code=True)
    result = compiler.compile(
        Policy(
            statements=(
                Statement("guaranteed", _pair(topology, first, second, 80), any_path()),
                Statement("capped", _pair(topology, second, third, 22), any_path()),
            ),
            formula=formula_and(
                FMin(BandwidthTerm(identifiers=("guaranteed",)), Bandwidth.mbps(50)),
                FMax(BandwidthTerm(identifiers=("capped",)), Bandwidth.mbps(20)),
            ),
        )
    )
    _assert_fresh(compiler, result)
    cut = tuple(("e3_1", host) for host in topology.hosts_on_switch("e3_1"))
    for delta in (
        TopologyDelta(fail_links=cut),
        TopologyDelta(fail_nodes=("e1_0",)),
        TopologyDelta(recover_links=cut),
        TopologyDelta(recover_nodes=("e1_0",)),
    ):
        previous = result.instructions
        result = compiler.recompile(delta)
        _assert_fresh(compiler, result)
        assert set(result.sink_trees) == set(
            compiler._session.active_topology.egress_switches()
        )
    assert _reused(previous, result.instructions) > 0


def test_generate_takes_over_only_fragments_whose_content_matches():
    topology = fat_tree(4)
    trees = compute_sink_trees(topology)
    generator = CodeGenerator(topology)
    empty = Policy(statements=())
    whole = generator.generate(empty, {}, {}, trees)
    again = generator.generate(empty, {}, {}, trees, previous=whole)
    assert repr(again) == repr(whole)
    assert all(again.fragments.trees[root] is whole.fragments.trees[root] for root in trees)
    # Without the first tree every other tree's tag moves down by one.
    later = {root: trees[root] for root in sorted(trees)[1:]}
    shifted = generator.generate(empty, {}, {}, later, previous=whole)
    assert repr(shifted) == repr(generator.generate(empty, {}, {}, later))
    assert _reused(whole, shifted) == 0


class TestLinkTables:
    def test_add_link_drops_every_table(self):
        topology = figure2_example()
        links = topology.links()
        capacities = topology.link_capacities()
        egress = topology.egress_switches()
        topology.add_switch("s9")
        assert "s9" not in topology.egress_switches()
        topology.add_host("h9")
        topology.add_link("h9", "s9", Bandwidth.gbps(3))
        assert len(topology.links()) == len(links) + 1
        assert topology.links()[-1].source == "h9"
        assert topology.link_capacities()[("h9", "s9")] == Bandwidth.gbps(3)
        assert len(capacities) == len(links)
        assert topology.egress_switches() == tuple(sorted(egress + ("s9",)))
        assert topology.adjacency()["s9"] == ("s9", "h9")

    def test_a_caller_cannot_corrupt_the_tables(self):
        topology = figure2_example()
        expected = list(topology.links())
        topology.links().clear()
        returned = topology.links()
        returned.reverse()
        assert topology.links() == expected
        with pytest.raises(TypeError):
            topology.link_capacities()[("s1", "s2")] = Bandwidth.gbps(9)
        assert topology.undirected_edges() == sorted(
            tuple(sorted((link.source, link.target))) for link in expected
        )
