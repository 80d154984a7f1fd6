"""The OpenFlow emitters against their reference, and the records' contract.

:func:`~repro.codegen.openflow.rules_for_sink_tree` and
:func:`~repro.codegen.openflow.rules_for_path` build their rules
positionally from matches and actions shared across rules;
``tests/reference_codegen.py`` keeps the keyword-built emitters they
replaced.  Both must emit the same rules, in the same order, equal by
``==`` and by ``repr`` (the allocation digest and the fragment-reuse tests
compare bundles by ``repr``): on the fat trees of arity 4 and 8, on the
benchmark's campus with its middleboxes, on a degraded fat tree, and for
``previous=`` calls whose next hops moved.

The five instruction records are immutable, still take their fields by
keyword with the same defaults, and print the ``repr`` a frozen dataclass
of the same fields printed.
"""

import pytest

from repro.codegen import VlanAllocator
from repro.codegen.instructions import (
    ClickConfig,
    IptablesRule,
    OpenFlowRule,
    QueueConfig,
    TcCommand,
)
from repro.codegen.openflow import rules_for_path, rules_for_sink_tree
from repro.core import MerlinCompiler, compute_sink_trees
from repro.experiments.policy_builders import all_pairs_policy
from repro.topology.generators import fat_tree
from repro.units import Bandwidth
from tests import reference_codegen
from tests.alloc_digest import CAMPUS_CROSS_SOURCE, CAMPUS_PLACEMENTS, _campus, _hosts, inputs

#: Two core uplinks of the first aggregation switch and one edge uplink of
#: the last pod: every tree re-routes around them, none loses a host.
FAT_TREE4_FAILURES = (("a0_0", "c0_0"), ("a0_0", "c0_1"), ("e3_1", "a3_1"))


def _same(new, old):
    assert new == old
    assert repr(new) == repr(old)


def _fat_tree4():
    topology = fat_tree(4)
    return topology, [all_pairs_policy(topology, guarantee_fraction=0.3, max_classes=60)]


def _fat_tree8():
    topology = fat_tree(8)
    hosts, macs = _hosts(topology)
    source = inputs.guaranteed_policy(
        hosts, macs, inputs.rng_for("compile-guaranteed", 1, 0), 300
    ).source
    return topology, [source]


def _campus_with_middleboxes():
    topology = _campus()
    hosts, macs = _hosts(topology)
    source = inputs.campus_policy(
        hosts, macs, inputs.rng_for("compile-campus-default", 1, 0)
    ).source
    return topology, [source, CAMPUS_CROSS_SOURCE]


def _degraded_fat_tree4():
    topology = fat_tree(4).without(links=FAT_TREE4_FAILURES)
    return topology, [all_pairs_policy(topology, guarantee_fraction=0.3, max_classes=60)]


CASES = {
    "fat_tree4": _fat_tree4,
    "fat_tree8": _fat_tree8,
    "campus": _campus_with_middleboxes,
    "fat_tree4-degraded": _degraded_fat_tree4,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitters_equal_reference(case):
    topology, policies = CASES[case]()
    placements = CAMPUS_PLACEMENTS if case == "campus" else {}
    ingress_switches = topology.egress_switches()
    trees = compute_sink_trees(topology)
    vlans, reference_vlans = VlanAllocator(), VlanAllocator()
    for root in sorted(trees):
        _same(
            rules_for_sink_tree(topology, trees[root], vlans, ingress_switches),
            reference_codegen.rules_for_sink_tree(
                topology, trees[root], reference_vlans, ingress_switches
            ),
        )
    routed = 0
    for policy in policies:
        compiler = MerlinCompiler(
            topology=topology, placements=placements, overlap="trust", add_catch_all=False
        )
        result = compiler.compile(policy)
        for identifier, assignment in sorted(result.paths.items()):
            if len(assignment.path) < 2:
                continue
            predicate = result.policy.statement(identifier).predicate
            rules = rules_for_path(topology, assignment, predicate, vlans)
            _same(
                rules,
                reference_codegen.rules_for_path(
                    topology, assignment, predicate, reference_vlans
                ),
            )
            routed += bool(rules)
    assert routed > 0


def test_campus_paths_visit_middleboxes():
    """The campus case covers paths that leave a switch for a middlebox
    and come back to it."""
    topology, _ = _campus_with_middleboxes()
    result = MerlinCompiler(topology=topology, placements=CAMPUS_PLACEMENTS).compile(
        CAMPUS_CROSS_SOURCE
    )
    boxes = {"dpi1", "dpi2", "mon1", "mon2"}
    assert any(boxes & set(assignment.path) for assignment in result.paths.values())


@pytest.mark.parametrize("arity", [4, 8])
def test_take_over_equals_reference(arity):
    """``previous=`` across a failure and back: the moved next hops are made
    anew and the rest taken over, exactly as the reference does."""
    pristine = fat_tree(arity)
    failures = FAT_TREE4_FAILURES if arity == 4 else (("a0_0", "c0_0"), ("e7_3", "a7_3"))
    degraded = pristine.without(links=failures)
    ingress_switches = pristine.egress_switches()
    assert degraded.egress_switches() == ingress_switches
    before, after = compute_sink_trees(pristine), compute_sink_trees(degraded)
    moved = 0
    for old_topology, new_topology, old_trees, new_trees in (
        (pristine, degraded, before, after),
        (degraded, pristine, after, before),
    ):
        vlans = VlanAllocator()
        for root in sorted(old_trees):
            old_tree, new_tree = old_trees[root], new_trees[root]
            assert new_tree.hosts == old_tree.hosts
            if new_tree.next_hop == old_tree.next_hop:
                continue
            moved += 1
            old_rules = reference_codegen.rules_for_sink_tree(
                old_topology, old_tree, vlans, ingress_switches
            )
            previous = (old_tree.next_hop, old_rules)
            rules = rules_for_sink_tree(new_topology, new_tree, vlans, ingress_switches, previous)
            _same(
                rules,
                reference_codegen.rules_for_sink_tree(
                    new_topology, new_tree, vlans, ingress_switches, previous
                ),
            )
            _same(rules, rules_for_sink_tree(new_topology, new_tree, vlans, ingress_switches))
    assert moved > 0


# -- the records ----------------------------------------------------------------

#: One instance of each record, built by keyword with every default taken,
#: and the ``repr`` the frozen-dataclass records printed for it.
RECORDS = [
    (
        OpenFlowRule(switch="s1", match=(("dl_vlan", "2"),), actions=("output:s2",)),
        "OpenFlowRule(switch='s1', match=(('dl_vlan', '2'),), actions=('output:s2',), "
        "priority=100, statement_id=None)",
    ),
    (
        QueueConfig(switch="s1", port="s2", queue_id=1, min_rate=Bandwidth.mbps(100)),
        "QueueConfig(switch='s1', port='s2', queue_id=1, "
        "min_rate=Bandwidth(bits_per_second=100000000.0), max_rate=None, statement_id=None)",
    ),
    (
        TcCommand(host="h1", interface="eth0", rate=Bandwidth.mbps(10), kind="cap"),
        "TcCommand(host='h1', interface='eth0', rate=Bandwidth(bits_per_second=10000000.0), "
        "kind='cap', match=(), statement_id=None)",
    ),
    (
        IptablesRule(host="h1", chain="OUTPUT", match=(("dport", "80"),), action="DROP"),
        "IptablesRule(host='h1', chain='OUTPUT', match=(('dport', '80'),), action='DROP', "
        "statement_id=None)",
    ),
    (
        ClickConfig(location="m1", function="dpi"),
        "ClickConfig(location='m1', function='dpi', statement_id=None)",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda value: type(value).__name__)
def test_record_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _text", RECORDS, ids=lambda value: type(value).__name__)
def test_records_are_immutable(record, _text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_keyword_construction_keeps_the_defaults():
    assert OpenFlowRule(switch="s", match=(), actions=()).priority == 100
    assert OpenFlowRule(switch="s", match=(), actions=()).statement_id is None
    rate = Bandwidth.mbps(1)
    assert QueueConfig(switch="s", port="p", queue_id=1, min_rate=rate).max_rate is None
    assert TcCommand(host="h", interface="eth0", rate=rate, kind="cap").match == ()
    assert IptablesRule(host="h", chain="OUTPUT", match=(), action="DROP").statement_id is None
    assert ClickConfig(location="m", function="f").statement_id is None
    full = QueueConfig(
        switch="s", port="p", queue_id=2, min_rate=rate, max_rate=rate, statement_id="z"
    )
    assert (full.queue_id, full.max_rate, full.statement_id) == (2, rate, "z")
