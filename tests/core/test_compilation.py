"""Tests for the compiler pipeline: preprocessing, localization, logical
topologies, provisioning, sink trees, and end-to-end compilation."""

import pytest

from repro.errors import PolicyError, ProvisioningError, TopologyError
from repro.core import (
    MerlinCompiler,
    PathSelectionHeuristic,
    compile_policy,
    compute_sink_tree,
    compute_sink_trees,
    localize,
    parse_policy,
    preprocess,
)
from repro.core.ast import Statement
from repro.core.localization import local_clauses, localized_formula
from repro.core.logical import SINK, SOURCE, build_logical_topology, infer_endpoints
from repro.core.preprocessor import DEFAULT_STATEMENT_ID
from repro.core.sink_tree import host_path
from repro.predicates import is_disjoint, parse_predicate
from repro.regex import accepts, parse_path_expression
from repro.regex.operations import accepts as regex_accepts
from repro.topology.generators import dumbbell, fat_tree, figure2_example, linear, single_switch
from repro.units import Bandwidth
from tests.conftest import RUNNING_EXAMPLE_SOURCE


class TestPreprocessor:
    def test_overlapping_statements_rejected(self):
        policy = parse_policy(
            "[ a : ip.proto = tcp -> .* ; b : tcp.dst = 80 -> .* ]"
        )
        with pytest.raises(PolicyError):
            preprocess(policy, overlap="reject")

    def test_priority_mode_makes_statements_disjoint(self):
        policy = parse_policy(
            "[ a : tcp.dst = 80 -> .* ; b : ip.proto = tcp -> .* ]"
        )
        result = preprocess(policy, overlap="priority")
        statements = result.policy.statements
        assert is_disjoint(statements[0].predicate, statements[1].predicate)
        assert "b" in result.rewritten_statements

    def test_priority_mode_detects_shadowed_statement(self):
        policy = parse_policy(
            "[ a : ip.proto = tcp -> .* ; b : ip.proto = tcp and tcp.dst = 80 -> .* ]"
        )
        with pytest.raises(PolicyError):
            preprocess(policy, overlap="priority")

    def test_trust_mode_skips_checks(self):
        policy = parse_policy(
            "[ a : ip.proto = tcp -> .* ; b : tcp.dst = 80 -> .* ]"
        )
        result = preprocess(policy, overlap="trust")
        assert [s.identifier for s in result.policy.statements][:2] == ["a", "b"]

    def test_catch_all_added(self):
        policy = parse_policy("[ a : tcp.dst = 80 -> .* ]")
        result = preprocess(policy)
        assert result.added_default
        assert result.policy.statements[-1].identifier == DEFAULT_STATEMENT_ID

    def test_catch_all_skipped_when_total(self):
        policy = parse_policy("[ a : true -> .* ]")
        result = preprocess(policy)
        assert not result.added_default

    def test_catch_all_can_be_disabled(self):
        policy = parse_policy("[ a : tcp.dst = 80 -> .* ]")
        result = preprocess(policy, add_catch_all=False)
        assert len(result.policy.statements) == 1

    def test_unknown_mode_rejected(self):
        policy = parse_policy("[ a : tcp.dst = 80 -> .* ]")
        with pytest.raises(PolicyError):
            preprocess(policy, overlap="whatever")


class TestLocalization:
    def test_equal_split_of_aggregate_cap(self):
        # The §3.1 example: max(x + y, 50MB/s) -> max(x, 25MB/s), max(y, 25MB/s).
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE)
        rates = localize(policy)
        assert rates["x"].cap == Bandwidth.mb_per_sec(25)
        assert rates["y"].cap == Bandwidth.mb_per_sec(25)
        assert rates["x"].guarantee is None

    def test_guarantee_preserved(self):
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE)
        rates = localize(policy)
        assert rates["z"].guarantee == Bandwidth.mb_per_sec(100)
        assert rates["z"].is_guaranteed

    def test_three_way_split_is_pinned_to_the_bit(self):
        policy = parse_policy(
            "[ x : tcp.dst = 80 -> .* ; y : tcp.dst = 22 -> .* ; z : tcp.dst = 53 -> .* ],"
            " max(x + y + z, 50MB/s)"
        )
        rates = localize(policy)
        share = Bandwidth.mb_per_sec(50).split(3)
        assert share.bits_per_second == 400e6 * (1.0 / 3)
        for identifier in "xyz":
            assert rates[identifier].cap.bits_per_second == share.bits_per_second

    def test_a_repeated_identifier_takes_one_share(self):
        policy = parse_policy("[ x : tcp.dst = 80 -> .* ], min(x + x, 10Mbps)")
        assert localize(policy)["x"].guarantee == Bandwidth.mbps(10)

    def test_a_clause_naming_no_statement_is_refused(self):
        policy = parse_policy("[ x : tcp.dst = 80 -> .* ], max(10Mbps, 50MB/s)")
        with pytest.raises(PolicyError):
            localize(policy)

    def test_multiple_clauses_take_most_restrictive(self):
        policy = parse_policy(
            "[ a : tcp.dst = 80 -> .* ], max(a, 10Mbps) and max(a, 4Mbps) and min(a, 1Mbps) and min(a, 2Mbps)"
        )
        rates = localize(policy)
        assert rates["a"].cap == Bandwidth.mbps(4)
        assert rates["a"].guarantee == Bandwidth.mbps(2)

    def test_disjunctive_formula_rejected(self):
        policy = parse_policy(
            "[ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ],"
            "max(a, 10Mbps) or max(b, 10Mbps)"
        )
        with pytest.raises(PolicyError):
            localize(policy)

    def test_localized_formula_round_trip(self):
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE)
        rates = localize(policy)
        rebuilt = localized_formula(
            {identifier: local_clauses(local) for identifier, local in rates.items()}
        )
        assert rebuilt.identifiers() <= set(policy.statement_ids())


class TestLogicalTopology:
    def test_figure2_construction(self, figure2_topology, figure2_placements):
        statement = Statement(
            "z",
            parse_predicate("tcp.dst = 80"),
            parse_path_expression("h1 .* dpi .* nat .* h2"),
        )
        logical = build_logical_topology(
            statement, figure2_topology, figure2_placements
        )
        assert logical.find_path() is not None
        path = logical.find_path()
        assert path[0] == "h1" and path[-1] == "h2"
        assert "m1" in path  # NAT can only run at m1.

    def test_paths_respect_regular_expression(self, figure2_topology, figure2_placements):
        statement = Statement(
            "x", parse_predicate("tcp.dst = 20"), parse_path_expression(".* nat .*")
        )
        logical = build_logical_topology(
            statement, figure2_topology, figure2_placements, source="h1", destination="h2"
        )
        path = logical.find_path()
        # Lemma 1: the extracted location sequence satisfies the rewritten regex.
        rewritten = parse_path_expression(".* m1 .*")
        assert regex_accepts(rewritten, path)

    def test_infeasible_when_function_unplaceable(self, figure2_topology):
        statement = Statement(
            "x", parse_predicate("tcp.dst = 20"), parse_path_expression(".* dpi .*")
        )
        logical = build_logical_topology(
            statement, figure2_topology, {"dpi": ["s2"]}, source="h1", destination="h1"
        )
        # source == destination == h1 and dpi only at s2: still feasible via a loop,
        # but an empty-language expression is definitely infeasible:
        empty = Statement(
            "y", parse_predicate("tcp.dst = 21"), parse_path_expression("!(.*)")
        )
        empty_logical = build_logical_topology(
            empty, figure2_topology, {}, source="h1", destination="h2"
        )
        assert empty_logical.find_path() is None

    def test_endpoint_inference_from_predicate(self, figure2_topology):
        statement = Statement(
            "x",
            parse_predicate(
                "eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02"
            ),
            parse_path_expression(".*"),
        )
        assert infer_endpoints(statement, figure2_topology) == ("h1", "h2")

    def test_endpoint_inference_from_path(self, figure2_topology):
        statement = Statement(
            "x", parse_predicate("tcp.dst = 80"), parse_path_expression("h1 .* h2")
        )
        assert infer_endpoints(statement, figure2_topology) == ("h1", "h2")

    def test_edges_for_link(self, figure2_topology, figure2_placements):
        statement = Statement(
            "z", parse_predicate("tcp.dst = 80"), parse_path_expression(".* nat .*")
        )
        logical = build_logical_topology(
            statement, figure2_topology, figure2_placements, source="h1", destination="h2"
        )
        # ``E_i(s1, m1)``: edges crossing the link in either direction, both
        # keyed by the link's sorted pair.
        crossing = {
            edge.physical_link
            for edge in logical.edges
            if edge.physical_link is not None and set(edge.physical_link) == {"s1", "m1"}
        }
        assert crossing == {("s1", "m1"), ("m1", "s1")}
        assert ("m1", "s1") in logical.footprint


class TestProvisioning:
    def _statement(self, identifier, port, path):
        return Statement(
            identifier,
            parse_predicate(
                f"eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 "
                f"and tcp.dst = {port}"
            ),
            parse_path_expression(path),
        )

    def test_figure3_weighted_shortest_path(self, dumbbell_topology):
        result = self._compile_figure3(
            dumbbell_topology, PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH
        )
        # Both statements take the two-hop (thin) path.
        for identifier in ("a", "b"):
            assert result.paths[identifier].hop_count() == 2

    def test_figure3_min_max_ratio(self, dumbbell_topology):
        result = self._compile_figure3(
            dumbbell_topology, PathSelectionHeuristic.MIN_MAX_RATIO
        )
        # No link is more than 25% reserved.
        assert result.max_link_utilization() == pytest.approx(0.25, abs=0.01)

    def test_figure3_min_max_reserved(self, dumbbell_topology):
        result = self._compile_figure3(
            dumbbell_topology, PathSelectionHeuristic.MIN_MAX_RESERVED
        )
        # No link carries more than 50 MB/s of reservations.
        assert result.max_link_reservation().bps_value == pytest.approx(
            Bandwidth.mb_per_sec(50).bps_value, rel=0.01
        )

    def _compile_figure3(self, topology, heuristic):
        source = """
        [ a : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* ;
          b : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 22) -> .* ],
        min(a, 50MB/s) and min(b, 50MB/s)
        """
        return compile_policy(source, topology, {}, heuristic=heuristic)

    def test_infeasible_guarantee_detected(self, linear_topology):
        # Two statements each demanding 800 Mbps over the same 1 Gbps chain.
        source = """
        [ a : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:03 and tcp.dst = 80) -> .* ;
          b : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:03 and tcp.dst = 22) -> .* ],
        min(a, 800Mbps) and min(b, 800Mbps)
        """
        with pytest.raises(ProvisioningError):
            compile_policy(source, linear_topology, {})

    def test_guarantee_without_endpoints_rejected(self, tiny_topology):
        source = "[ a : tcp.dst = 80 -> .* ], min(a, 10Mbps)"
        with pytest.raises(ProvisioningError):
            compile_policy(source, tiny_topology, {})

    def test_capacity_constraint_respected(self, dumbbell_topology):
        source = """
        [ a : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* ],
        min(a, 90MB/s)
        """
        result = compile_policy(source, dumbbell_topology, {})
        # 90 MB/s only fits on the 400 MB/s path.
        assert result.paths["a"].hop_count() == 3
        assert result.max_link_utilization() <= 1.0


class TestSinkTrees:
    def test_tree_reaches_every_switch(self, small_fat_tree):
        switches = small_fat_tree.switch_names()
        tree = compute_sink_tree(small_fat_tree, switches[0])
        assert tree.num_switches() == len(switches)
        for switch in switches:
            path = tree.path_from(switch)
            assert path[-1] == tree.root

    def test_trees_from_one_shared_subgraph_equal_one_subgraph_per_root(self, small_fat_tree):
        degraded = small_fat_tree.without(links=[("a0_0", "c0_0")], nodes=["a1_1"])
        for topology in (small_fat_tree, degraded):
            trees = compute_sink_trees(topology)
            assert list(trees) == [
                name for name in topology.switch_names() if topology.hosts_on_switch(name)
            ]
            for root, tree in trees.items():
                alone = compute_sink_tree(topology, root)  # finds the switches itself
                assert (tree.root, tree.hosts) == (alone.root, alone.hosts)
                assert list(tree.next_hop.items()) == list(alone.next_hop.items())

    def test_trees_only_for_edge_switches(self, small_fat_tree):
        trees = compute_sink_trees(small_fat_tree)
        for root in trees:
            assert small_fat_tree.hosts_on_switch(root)

    def test_host_path(self, small_fat_tree):
        trees = compute_sink_trees(small_fat_tree)
        egress = small_fat_tree.attachment_switch("h2")
        path = host_path(small_fat_tree, trees[egress], "h1", "h2")
        assert path[0] == "h1" and path[-1] == "h2"

    def test_host_path_wrong_tree_rejected(self, small_fat_tree):
        trees = compute_sink_trees(small_fat_tree)
        egress_h2 = small_fat_tree.attachment_switch("h2")
        other_root = next(root for root in trees if root != egress_h2)
        with pytest.raises(TopologyError):
            host_path(small_fat_tree, trees[other_root], "h1", "h2")

    def test_non_switch_root_rejected(self, small_fat_tree):
        with pytest.raises(TopologyError):
            compute_sink_tree(small_fat_tree, "h1")

    def test_depth_positive(self, small_fat_tree):
        trees = compute_sink_trees(small_fat_tree)
        assert all(tree.depth() >= 1 for tree in trees.values())


class TestEndToEndCompilation:
    def test_running_example(self, figure2_topology, figure2_placements):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        # The guaranteed statement gets a dedicated path through the NAT box.
        z_path = result.paths["z"]
        assert z_path.path[0] == "h1" and z_path.path[-1] == "h2"
        assert z_path.function_placements["nat"] == "m1"
        assert z_path.function_placements["dpi"] in ("h1", "h2", "m1")
        # The capped statements are localized to 25 MB/s each.
        assert result.rates["x"].cap == Bandwidth.mb_per_sec(25)
        assert result.rates["y"].cap == Bandwidth.mb_per_sec(25)
        # Instructions were generated for switches, queues, hosts and middleboxes.
        counts = result.instructions.counts()
        assert counts["openflow"] > 0
        assert counts["queues"] > 0
        assert counts["tc"] > 0
        assert counts["click"] > 0
        # Statistics are recorded for the scalability tables.
        assert result.statistics.lp_solve_seconds >= 0.0
        assert result.statistics.num_guaranteed_statements == 1

    def test_selected_path_satisfies_statement_regex(
        self, figure2_topology, figure2_placements
    ):
        result = compile_policy(
            RUNNING_EXAMPLE_SOURCE, figure2_topology, figure2_placements
        )
        z_path = list(result.paths["z"].path)
        # After substituting placements, the path must contain a dpi-capable
        # location followed (not necessarily immediately) by m1.
        dpi_positions = [
            index for index, loc in enumerate(z_path) if loc in ("h1", "h2", "m1")
        ]
        nat_positions = [index for index, loc in enumerate(z_path) if loc == "m1"]
        assert dpi_positions and nat_positions
        assert min(dpi_positions) <= max(nat_positions)

    def test_best_effort_with_path_constraint(self, figure2_topology, figure2_placements):
        source = """
        [ w : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02) -> .* dpi .* ]
        """
        result = compile_policy(source, figure2_topology, figure2_placements)
        assert "w" in result.paths
        assert result.rates["w"].guarantee is None

    def test_catch_all_generates_sink_trees(self, tiny_topology):
        result = compile_policy("[ a : tcp.dst = 80 -> .* ]", tiny_topology, {})
        assert result.sink_trees  # the catch-all needs sink trees
        assert result.instructions.counts()["openflow"] > 0

    def test_generate_code_can_be_disabled(self, figure2_topology, figure2_placements):
        compiler = MerlinCompiler(
            topology=figure2_topology,
            placements=figure2_placements,
            generate_code=False,
        )
        result = compiler.compile(RUNNING_EXAMPLE_SOURCE)
        assert result.instructions is None

    def test_compile_accepts_policy_object(self, figure2_topology, figure2_placements):
        policy = parse_policy(RUNNING_EXAMPLE_SOURCE, topology=figure2_topology)
        result = compile_policy(policy, figure2_topology, figure2_placements)
        assert set(result.rates) >= {"x", "y", "z"}

    def test_all_pairs_connectivity_small(self):
        topology = single_switch(4)
        sources = ", ".join(host.mac for host in topology.hosts())
        policy = (
            "hostsset := {" + sources + "}\n"
            "foreach (s,d) in hostsset: true -> .*\n"
        )
        result = compile_policy(policy, topology, {}, overlap="trust")
        assert result.statistics.num_statements >= 12
        assert result.instructions.counts()["openflow"] > 0
