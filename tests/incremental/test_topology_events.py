"""Drawn failure and recovery sequences keep a session equal to a fresh build.

A topology event derives the degraded topology straight into its adjacency
table, patches the engine's capacity table on the changed links, re-walks
only the sink trees the event can change and re-emits only the tree rules
whose next hop moved.  After every event of a drawn sequence of link and
switch failures and recoveries, on ``fat_tree(4)`` and the campus, this
checks each of those against what building from scratch gives:

* the active topology's link order, adjacency, capacity table and egress
  switches equal, in order, those of a topology built through ``add_node``
  (in name order) and ``add_link`` (in the pristine link order) — the calls
  ``without`` used to make — and the engine's capacity table is the active
  topology's;
* the session's sink trees equal ``compute_sink_trees`` of the active
  topology, and a BFS over a switch-only topology built through the same
  calls;
* the instructions are byte-equal to a fresh ``CodeGenerator(active)``
  ``generate`` of the same state.

A delta the session refuses (a guaranteed pair cut off) rolls back, and the
checks hold for the state it rolled back to.
"""

import collections

from hypothesis import given, settings, strategies as st

from repro.codegen.generator import CodeGenerator
from repro.core import MerlinCompiler, compute_sink_trees
from repro.core.ast import BandwidthTerm, FMin, Policy, Statement
from repro.errors import ProvisioningError
from repro.incremental import TopologyDelta
from repro.incremental.solve import topology_capacities_mbps
from repro.predicates.ast import FieldTest, pred_and
from repro.regex.ast import DOT, Symbol, any_path, concat, star
from repro.topology import Topology, fat_tree, stanford_campus
from repro.units import Bandwidth


def _pair(topology, source, destination, port):
    return pred_and(
        FieldTest("eth.src", topology.node(source).mac),
        pred_and(
            FieldTest("eth.dst", topology.node(destination).mac),
            FieldTest("tcp.dst", port),
        ),
    )


def _policy(topology):
    """A guaranteed pair, an unconstrained best-effort pair (sink trees) and
    a constrained best-effort pair (its own path rules)."""
    hosts = topology.host_names()
    first, last = hosts[0], hosts[-1]
    return Policy(
        statements=(
            Statement("g", _pair(topology, first, last, 80), any_path()),
            Statement("bulk", _pair(topology, last, first, 81), any_path()),
            Statement(
                "routed",
                _pair(topology, hosts[1], hosts[-2], 82),
                concat(Symbol(hosts[1]), star(DOT), Symbol(hosts[-2])),
            ),
        ),
        formula=FMin(BandwidthTerm(identifiers=("g",)), Bandwidth.mbps(10)),
    )


def _rebuilt(pristine, failed_links, failed_nodes):
    """The degraded topology through the public construction calls (with
    nothing failed, the session's topology is the pristine one itself)."""
    if not (failed_links or failed_nodes):
        return pristine
    failed = {frozenset(pair) for pair in failed_links}
    rebuilt = Topology()
    for node in pristine.nodes():
        if node.name not in failed_nodes:
            rebuilt.add_node(node)
    for link in pristine.links():
        ends = {link.source, link.target}
        if ends & failed_nodes or ends in failed:
            continue
        rebuilt.add_link(link.source, link.target, link.capacity, link.latency_ms)
    return rebuilt


def _reference_trees(topology):
    """Sink trees by BFS over a switch-only topology built link by link."""
    switches = Topology()
    for node in topology.switches():
        switches.add_node(node)
    for link in topology.links():
        if topology.node(link.source).is_switch and topology.node(link.target).is_switch:
            switches.add_link(link.source, link.target, link.capacity, link.latency_ms)
    moves = switches.adjacency()
    trees = {}
    for root in topology.egress_switches():
        next_hop, visited, queue = {}, {root}, collections.deque([root])
        while queue:
            current = queue.popleft()
            for neighbor in moves[current][1:]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_hop[neighbor] = current
                    queue.append(neighbor)
        trees[root] = (next_hop, tuple(sorted(topology.hosts_on_switch(root))))
    return trees


def _check(compiler, result):
    session = compiler._session
    active = session.active_topology
    expected = _rebuilt(compiler.topology, session.failed_links, session.failed_nodes)
    assert active.links() == expected.links()
    assert list(active.adjacency().items()) == list(expected.adjacency().items())
    assert list(active.link_capacities().items()) == list(
        expected.link_capacities().items()
    )
    assert active.egress_switches() == expected.egress_switches()
    assert session.engine._capacity_mbps == topology_capacities_mbps(active)

    assert session.sink_trees == compute_sink_trees(active)
    assert {
        root: (tree.next_hop, tree.hosts) for root, tree in session.sink_trees.items()
    } == _reference_trees(active)

    entries = session.ordered()
    fresh = CodeGenerator(active).generate(
        result.policy,
        result.paths,
        result.rates,
        result.sink_trees,
        endpoints={entry.identifier: entry.endpoints for entry in entries},
        infeasible_statements=tuple(
            entry.identifier for entry in entries if entry.infeasible
        ),
    )
    assert repr(result.instructions) == repr(fresh)


def _run(topology, steps):
    compiler = MerlinCompiler(topology=topology, generate_code=True)
    result = compiler.compile(_policy(topology))
    links = [tuple(sorted((link.source, link.target))) for link in topology.links()]
    elements = [("link", pair) for pair in links] + [
        ("node", name) for name in topology.switch_names()
    ]
    for step in steps:
        session = compiler._session
        fail_links, recover_links, fail_nodes, recover_nodes = [], [], [], []
        for index in sorted(set(step)):
            kind, element = elements[index % len(elements)]
            if kind == "link":
                failed = element in session.failed_links
                (recover_links if failed else fail_links).append(element)
            else:
                failed = element in session.failed_nodes
                (recover_nodes if failed else fail_nodes).append(element)
        delta = TopologyDelta(
            fail_links=tuple(fail_links),
            recover_links=tuple(recover_links),
            fail_nodes=tuple(fail_nodes),
            recover_nodes=tuple(recover_nodes),
        )
        try:
            result = compiler.recompile(delta)
        except ProvisioningError:
            result = compiler.recompile(TopologyDelta())
        _check(compiler, result)


_STEPS = st.lists(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=2),
    min_size=1,
    max_size=8,
)


@given(_STEPS)
@settings(max_examples=25, deadline=None)
def test_fat_tree_events_match_a_fresh_build(steps):
    _run(fat_tree(4), steps)


@given(_STEPS)
@settings(max_examples=25, deadline=None)
def test_campus_events_match_a_fresh_build(steps):
    _run(stanford_campus(subnets=4), steps)
