"""Tests for union-find partitioning of statements by link footprint."""

from repro.core.ast import Statement
from repro.core.localization import LocalRates
from repro.incremental.partition import PartitionSpec, UnionFind, partition_statements
from repro.incremental.solve import (
    PartitionSolution,
    StatementRecord,
    merge_partition_solutions,
)
from repro.core.provisioning import PathSelectionHeuristic
from repro.lp.result import SolveStatus
from repro.predicates.ast import TRUE
from repro.regex import parse_path_expression
from repro.topology.generators import figure2_example
from repro.units import Bandwidth


def _solution(name, objective, bound, status=SolveStatus.OPTIMAL.value):
    return PartitionSolution(
        spec=PartitionSpec(statement_ids=(name,), links=()),
        location_paths={},
        fractions={},
        status=status,
        objective=objective,
        member_slacks=(None,),
        statistics={"best_bound": bound, "gap": abs(objective - bound)},
    )


class TestMergedGap:
    """The merged gap is recomputed from merged incumbent and bound, not
    max-ed across components (which misstates it in both directions)."""

    def _merge(self, solutions, heuristic):
        return merge_partition_solutions(
            solutions,
            {},
            figure2_example(capacity=Bandwidth.gbps(1)),
            {},
            frozenset(),
            lp_construction_seconds=0.0,
            lp_solve_seconds=0.0,
            heuristic=heuristic,
        )

    def test_min_max_optimal_dominant_closes_gap(self):
        # A: optimal at 0.9; B: feasible at 0.5 with bound 0.4 (gap 0.1).
        # Merged incumbent max=0.9 equals merged bound max(0.9, 0.4)=0.9:
        # the true merged gap is 0, not B's 0.1.
        merged = self._merge(
            [
                _solution("a", 0.9, 0.9),
                _solution("b", 0.5, 0.4, status=SolveStatus.FEASIBLE.value),
            ],
            PathSelectionHeuristic.MIN_MAX_RATIO,
        )
        assert merged.solve_statistics["best_bound"] == 0.9
        assert merged.solve_statistics["gap"] == 0.0

    def test_weighted_sum_gaps_accumulate(self):
        # Two components each with gap 0.1: the summed objective is 2.0
        # against a summed bound of 1.8 — the true gap is 0.2, not 0.1.
        merged = self._merge(
            [
                _solution("a", 1.0, 0.9, status=SolveStatus.FEASIBLE.value),
                _solution("b", 1.0, 0.9, status=SolveStatus.FEASIBLE.value),
            ],
            PathSelectionHeuristic.WEIGHTED_SHORTEST_PATH,
        )
        assert merged.solve_statistics["best_bound"] == 1.8
        assert abs(merged.solve_statistics["gap"] - 0.2) < 1e-12


class TestMergeReuse:
    """A merge takes over what the previous merge derived from the same
    solution only while the content it read is unchanged."""

    def _record(self, token, mbps=10):
        # "m1" is a location of figure 2: a function name only where m1 is gone.
        statement = Statement("z", TRUE, parse_path_expression("h1 .* m1 .* h2"))
        rates = LocalRates("z", guarantee=Bandwidth.mbps(mbps))
        return StatementRecord(statement=statement, logical=None, rates=rates, token=token)

    def _solution(self):
        links = (("h1", "s1"), ("h2", "s2"), ("s1", "s2"))
        return PartitionSolution(
            spec=PartitionSpec(statement_ids=("z",), links=links),
            location_paths={"z": ("h1", "s1", "s2", "h2")},
            fractions=dict.fromkeys(links, 0.25),
            status=SolveStatus.OPTIMAL.value,
            objective=0.25,
            member_slacks=(None,),
        )

    def _merge(self, solution, record, topology, merged):
        # The engine's location names: those of the topology it was made on.
        locations = frozenset(figure2_example().locations())
        return merge_partition_solutions(
            [solution],
            {"z": record},
            topology,
            {"m1": ["s2"]},
            locations,
            0.0,
            0.0,
            merged=merged,
        )

    def test_unchanged_content_is_taken_over(self):
        topology, solution, merged = figure2_example(), self._solution(), {}
        first = self._merge(solution, self._record(1), topology, merged)
        again = self._merge(solution, self._record(1), topology, merged)
        assert again.paths["z"] is first.paths["z"]
        assert again.link_reservations == first.link_reservations
        assert list(merged) == [solution]
        assert self._merge(self._solution(), self._record(1), topology, merged).paths[
            "z"
        ] is not first.paths["z"]
        assert len(merged) == 1

    def test_a_new_token_rebuilds_the_assignments(self):
        topology, solution, merged = figure2_example(), self._solution(), {}
        self._merge(solution, self._record(1), topology, merged)
        moved = self._merge(solution, self._record(2, mbps=30), topology, merged)
        assert moved.paths["z"].guaranteed_rate == Bandwidth.mbps(30)

    def test_a_failed_location_stays_a_location(self):
        topology, solution, merged = figure2_example(), self._solution(), {}
        whole = self._merge(solution, self._record(1), topology, merged)
        assert whole.paths["z"].function_placements == {}
        failed = self._merge(
            solution, self._record(1), topology.without(nodes=["m1"]), merged
        )
        # m1 is a location of the engine's topology, failed or not: it is
        # never placed as a function, so the assignment is taken over.
        assert failed.paths["z"].function_placements == {}
        assert failed.paths["z"] is whole.paths["z"]

    def test_another_capacity_table_rebuilds_the_reservations(self):
        solution, merged = self._solution(), {}
        slow = self._merge(solution, self._record(1), figure2_example(), merged)
        fast = self._merge(
            solution,
            self._record(1),
            figure2_example(capacity=Bandwidth.gbps(2)),
            merged,
        )
        assert slow.link_reservations[("s1", "s2")] == Bandwidth.mbps(250)
        assert fast.link_reservations[("s1", "s2")] == Bandwidth.mbps(500)
        assert fast.max_reservation == Bandwidth.mbps(500)
        assert fast.link_reservations[("m1", "s1")] == Bandwidth(0.0)


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        assert uf.find("a") != uf.find("b")

    def test_union_merges(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("c")

    def test_disjoint_groups_stay_apart(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("x", "y")
        assert uf.find("a") != uf.find("x")


class TestPartitionStatements:
    def test_disjoint_footprints_yield_separate_components(self):
        specs = partition_statements(
            {
                "s1": {("a", "b")},
                "s2": {("c", "d")},
            }
        )
        assert [spec.statement_ids for spec in specs] == [("s1",), ("s2",)]

    def test_shared_link_merges_components(self):
        specs = partition_statements(
            {
                "s1": {("a", "b"), ("b", "c")},
                "s2": {("b", "c"), ("c", "d")},
                "s3": {("x", "y")},
            }
        )
        assert [spec.statement_ids for spec in specs] == [("s1", "s2"), ("s3",)]
        merged = specs[0]
        assert merged.links == (("a", "b"), ("b", "c"), ("c", "d"))

    def test_transitive_coupling(self):
        # s1-s2 share one link, s2-s3 another: all three are one component.
        specs = partition_statements(
            {
                "s1": {("a", "b")},
                "s2": {("a", "b"), ("c", "d")},
                "s3": {("c", "d")},
            }
        )
        assert len(specs) == 1
        assert specs[0].statement_ids == ("s1", "s2", "s3")

    def test_empty_footprint_is_singleton(self):
        specs = partition_statements({"lonely": set(), "other": {("a", "b")}})
        assert [spec.statement_ids for spec in specs] == [("lonely",), ("other",)]
        assert specs[0].links == ()

    def test_canonical_order_is_input_order_independent(self):
        footprints_a = {
            "s2": {("c", "d")},
            "s1": {("a", "b")},
            "s3": {("a", "b"), ("e", "f")},
        }
        footprints_b = dict(reversed(list(footprints_a.items())))
        assert partition_statements(footprints_a) == partition_statements(footprints_b)

    def test_partition_spec_len(self):
        spec = PartitionSpec(statement_ids=("a", "b"), links=(("x", "y"),))
        assert len(spec) == 2
