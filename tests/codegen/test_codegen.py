"""Tests for code generation: VLAN allocation, OpenFlow rules, queues, tc,
iptables, Click, and the orchestrating generator."""

import pytest

from repro.codegen import VlanAllocator
from repro.codegen.generator import CodeGenerator
from repro.codegen.click import click_for_assignments
from repro.codegen.instructions import InstructionBundle, OpenFlowRule
from repro.codegen.openflow import match_from_predicate, rules_for_path, rules_for_sink_tree
from repro.codegen.queues import QueueAllocator, queue_ports, queues_for_path
from repro.codegen.tc import tc_for_statement
from repro.codegen.iptables import drop_rule_for_statement
from repro.errors import CodegenError
from repro.core import compile_policy, compute_sink_trees
from repro.core.allocation import PathAssignment, RateAllocation
from repro.core.ast import Policy, Statement
from repro.predicates import parse_predicate
from repro.predicates.transform import positive_field_tests
from repro.regex import parse_path_expression
from repro.topology.generators import fat_tree, figure2_example, single_switch
from repro.units import Bandwidth
from tests.conftest import RUNNING_EXAMPLE_SOURCE


class TestVlanAllocator:
    def test_unique_tags(self):
        vlans = VlanAllocator()
        tags = {vlans.tag_for_tree(f"s{i}") for i in range(10)}
        tags |= {vlans.tag_for_statement(f"x{i}") for i in range(10)}
        assert len(tags) == 20

    def test_stable_per_key(self):
        vlans = VlanAllocator()
        assert vlans.tag_for_tree("s1") == vlans.tag_for_tree("s1")

    def test_valid_vlan_range(self):
        vlans = VlanAllocator()
        tag = vlans.tag_for_tree("s1")
        assert 2 <= tag <= 4094

    def test_exhaustion(self):
        vlans = VlanAllocator()
        with pytest.raises(CodegenError):
            for index in range(5000):
                vlans.tag_for_statement(f"x{index}")

    def test_assignments_report(self):
        vlans = VlanAllocator()
        vlans.tag_for_tree("s1")
        vlans.tag_for_statement("z")
        assignments = vlans.assignments()
        assert "tree:s1" in assignments and "statement:z" in assignments


class TestOpenFlow:
    def test_match_from_predicate(self):
        predicate = parse_predicate(
            "eth.src = 00:00:00:00:00:01 and tcp.dst = 80 and ip.proto = tcp"
        )
        match = dict(match_from_predicate(predicate))
        assert match["dl_src"] == "00:00:00:00:00:01"
        assert match["tp_dst"] == "80"
        assert match["nw_proto"] == "6"

    def test_negations_ignored_in_match(self):
        predicate = parse_predicate("tcp.dst = 80 and !(tcp.src = 22)")
        match = dict(match_from_predicate(predicate))
        assert "tp_src" not in match

    def test_sink_tree_rules(self):
        topology = figure2_example()
        trees = compute_sink_trees(topology)
        vlans = VlanAllocator()
        rules = rules_for_sink_tree(topology, trees["s2"], vlans, topology.egress_switches())
        switches_with_rules = {rule.switch for rule in rules}
        assert "s1" in switches_with_rules and "s2" in switches_with_rules
        # Egress rule strips the VLAN tag and delivers by MAC.
        egress = [r for r in rules if "strip_vlan" in r.actions]
        assert egress and egress[0].switch == "s2"

    def test_bundle_sink_tree_rules_equal_a_fabric_scan_per_tree(self):
        """``generate`` finds the edge switches once for all trees; the rules
        are those of a fresh scan of the fabric for every tree."""
        whole = fat_tree(4)
        for topology in (whole, whole.without(links=[("a0_0", "c0_0")], nodes=["a1_1"])):
            trees = compute_sink_trees(topology)
            bundle = CodeGenerator(topology).generate(Policy(statements=()), {}, {}, trees)
            vlans = VlanAllocator()
            expected = []
            for root in sorted(trees):
                scanned = [
                    switch.name
                    for switch in topology.switches()
                    if topology.hosts_on_switch(switch.name)
                ]
                expected.extend(rules_for_sink_tree(topology, trees[root], vlans, scanned))
            assert bundle.openflow == expected
            assert len({rule.switch for rule in expected if rule.priority == 50}) == len(trees)

    def test_path_rules_tag_and_strip(self):
        topology = figure2_example()
        assignment = PathAssignment(
            statement_id="z",
            path=("h1", "s1", "m1", "s1", "s2", "h2"),
            guaranteed_rate=Bandwidth.mbps(100),
        )
        predicate = parse_predicate("tcp.dst = 80")
        rules = rules_for_path(topology, assignment, predicate, VlanAllocator())
        assert any("push_vlan" in action for rule in rules for action in rule.actions)
        assert any("strip_vlan" in rule.actions for rule in rules)
        assert all(isinstance(rule, OpenFlowRule) for rule in rules)

    def test_rule_render(self):
        rule = OpenFlowRule(
            switch="s1", match=(("dl_vlan", "2"),), actions=("output:s2",)
        )
        text = rule.render()
        assert "s1" in text and "dl_vlan=2" in text and "output:s2" in text


class TestQueuesTcIptablesClick:
    def test_queue_per_switch_hop(self):
        topology = figure2_example()
        assignment = PathAssignment(
            statement_id="z", path=("h1", "s1", "s2", "h2"),
        )
        allocation = RateAllocation(
            statement_id="z", guarantee=Bandwidth.mbps(100), cap=Bandwidth.mbps(500)
        )
        ports = queue_ports(topology, assignment)
        queues = queues_for_path(
            assignment, allocation, ports, QueueAllocator().queue_ids(ports)
        )
        assert len(queues) == 2  # s1->s2 and s2->h2
        assert [q.queue_id for q in queues] == [1, 1]
        assert all(q.min_rate == Bandwidth.mbps(100) for q in queues)
        assert all(q.max_rate == Bandwidth.mbps(500) for q in queues)

    def test_no_queues_without_guarantee(self):
        topology = figure2_example()
        assignment = PathAssignment(statement_id="y", path=("h1", "s1", "s2", "h2"))
        allocation = RateAllocation(statement_id="y", cap=Bandwidth.mbps(10))
        ports = queue_ports(topology, assignment)
        assert queues_for_path(assignment, allocation, ports, (1, 1)) == []

    def test_tc_cap_and_guarantee(self):
        topology = figure2_example()
        statement = Statement(
            "x", parse_predicate("tcp.dst = 20"), parse_path_expression(".*")
        )
        allocation = RateAllocation(
            statement_id="x", cap=Bandwidth.mbps(200), guarantee=Bandwidth.mbps(50)
        )
        commands = tc_for_statement(topology, statement, allocation, "h1")
        kinds = {command.kind for command in commands}
        assert kinds == {"cap", "guarantee"}
        assert all(command.host == "h1" for command in commands)
        assert "tc class add" in commands[0].render()

    def test_tc_skipped_without_source_host(self):
        topology = figure2_example()
        statement = Statement(
            "x", parse_predicate("tcp.dst = 20"), parse_path_expression(".*")
        )
        allocation = RateAllocation(statement_id="x", cap=Bandwidth.mbps(200))
        assert tc_for_statement(topology, statement, allocation, None) == []
        assert tc_for_statement(topology, statement, allocation, "s1") == []

    def test_iptables_drop_rule(self):
        topology = figure2_example()
        statement = Statement(
            "blocked", parse_predicate("tcp.dst = 23"), parse_path_expression("!(.*)")
        )
        rules = drop_rule_for_statement(topology, statement, "h1")
        assert len(rules) == 1
        assert rules[0].action == "DROP"
        assert "iptables" in rules[0].render()

    def test_every_emitter_sees_the_same_positive_conjuncts(self):
        """One walk (``positive_field_tests``) feeds all three selector
        tables: tests under ``or`` / ``!`` reach none of them, tests under
        ``and`` reach each in source order."""
        predicate = parse_predicate(
            "ip.src = 10.0.0.1 and (tcp.dst = 80 and !(tcp.src = 22)) and "
            "(ip.dst = 10.0.0.2 or ip.dst = 10.0.0.3) and ip.proto = tcp"
        )
        conjuncts = [
            (test.field, str(test.value)) for test in positive_field_tests(predicate)
        ]
        assert conjuncts == [
            ("ip.src", "10.0.0.1"), ("tcp.dst", "80"), ("ip.proto", "6")
        ]
        topology = figure2_example()
        statement = Statement("x", predicate, parse_path_expression("!(.*)"))
        (tc,) = tc_for_statement(
            topology, statement, RateAllocation("x", cap=Bandwidth.mbps(1)), "h1"
        )
        (drop,) = drop_rule_for_statement(topology, statement, "h1")
        assert tc.match == (
            ("ip src", "10.0.0.1"), ("ip dport", "80"), ("ip protocol", "6")
        )
        assert drop.match == (
            ("source", "10.0.0.1"), ("dport", "80"), ("protocol", "6")
        )
        assert match_from_predicate(predicate) == (
            ("nw_proto", "6"), ("nw_src", "10.0.0.1"), ("tp_dst", "80")
        )

    def test_click_deduplicates_placements(self):
        assignments = {
            "a": PathAssignment("a", ("h1", "m1", "h2"), {"dpi": "m1"}),
            "b": PathAssignment("b", ("h2", "m1", "h1"), {"dpi": "m1"}),
        }
        configs = click_for_assignments(assignments)
        assert len(configs) == 1
        assert configs[0].location == "m1"
        assert "DPI" in configs[0].render()


class TestInstructionBundle:
    def test_counts_and_total(self, figure2_topology, figure2_placements):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        bundle = result.instructions
        counts = bundle.counts()
        assert bundle.total() == sum(counts.values())
        assert set(counts) == {"openflow", "queues", "tc", "iptables", "click"}

    def test_instructions_sit_on_devices_of_their_kind(
        self, figure2_topology, figure2_placements
    ):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        bundle = result.instructions
        switches = set(figure2_topology.switch_names())
        hosts = set(figure2_topology.host_names())
        assert {rule.switch for rule in bundle.openflow} == switches
        assert {queue.switch for queue in bundle.queues} <= switches
        assert {command.host for command in bundle.tc} <= hosts
        assert {rule.host for rule in bundle.iptables} <= hosts
        assert bundle.click
        for config in bundle.click:
            assert config.location in figure2_placements[config.function]

    def test_queues_for_guarantees_and_tc_for_every_rate(
        self, figure2_topology, figure2_placements
    ):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        bundle = result.instructions
        guaranteed = {
            identifier for identifier, rates in result.rates.items() if rates.is_guaranteed
        }
        assert guaranteed == {"z"}
        assert {queue.statement_id for queue in bundle.queues} == guaranteed
        assert {command.statement_id for command in bundle.tc} == {"x", "y", "z"}
        # A rule names the statement it was compiled for, or none at all.
        assert {rule.statement_id for rule in bundle.openflow} <= {None, "x", "y", "z"}
        assert any(rule.statement_id == "z" for rule in bundle.openflow)

    def test_merge(self):
        a = InstructionBundle(openflow=[OpenFlowRule("s1", (), ("drop",))])
        b = InstructionBundle(openflow=[OpenFlowRule("s2", (), ("drop",))])
        a.merge(b)
        assert a.counts()["openflow"] == 2

    def test_render_produces_one_line_per_instruction(
        self, figure2_topology, figure2_placements
    ):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        rendered = result.instructions.render()
        assert len(rendered.splitlines()) == result.instructions.total()
