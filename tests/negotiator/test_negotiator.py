"""Tests for delegation, refinement verification, the negotiator tree, and the
AIMD / max-min fair-sharing allocation schemes."""

import pytest

from repro.errors import DelegationError
from repro.core import parse_policy
from repro.core.ast import Policy, Statement, formula_clauses
from repro.negotiator import (
    AimdAllocator,
    MaxMinFairAllocator,
    Negotiator,
    delegate,
    max_min_fair_share,
    verify_refinement,
)
from repro.predicates import parse_predicate
from repro.predicates.ast import FieldTest, pred_and, pred_not, pred_or
from repro.regex import parse_path_expression
from repro.units import Bandwidth
from tests.conftest import DELEGATION_ORIGINAL_SOURCE, DELEGATION_REFINED_SOURCE


class TestDelegation:
    def test_projection_narrows_predicates(self):
        policy = parse_policy(
            "[ a : ip.src = 10.0.0.1 -> .* ; b : ip.src = 10.0.0.2 -> .* ],"
            "max(a, 10Mbps) and max(b, 10Mbps)"
        )
        scope = parse_predicate("ip.src = 10.0.0.1")
        projected = delegate(policy, scope)
        assert projected.statement_ids() == ["a"]
        clauses = formula_clauses(projected.formula)
        assert len(clauses) == 1
        assert clauses[0].identifiers() == {"a"}

    def test_projection_keeps_path_constraints(self):
        policy = parse_policy("[ a : ip.src = 10.0.0.1 -> .* dpi .* ]")
        projected = delegate(policy, parse_predicate("tcp.dst = 80"))
        assert str(projected.statements[0].path) == str(policy.statements[0].path)

    def test_disjoint_scope_rejected(self):
        policy = parse_policy("[ a : ip.src = 10.0.0.1 -> .* ]")
        with pytest.raises(DelegationError):
            delegate(policy, parse_predicate("ip.src = 10.0.0.2"))

    def test_scope_path_filters_statements(self):
        policy = parse_policy(
            "[ a : ip.src = 10.0.0.1 -> s1 s2 ; b : ip.src = 10.0.0.2 -> s3 s4 ]"
        )
        projected = delegate(
            policy, parse_predicate("true"), scope_path=parse_path_expression(".* s2 .*")
        )
        assert projected.statement_ids() == ["a"]


class TestVerification:
    def test_paper_refinement_accepted(self):
        original = parse_policy(DELEGATION_ORIGINAL_SOURCE)
        refined = parse_policy(DELEGATION_REFINED_SOURCE)
        report = verify_refinement(original, refined)
        assert report.valid
        assert report.checked_pairs >= 3

    def test_bandwidth_increase_rejected(self):
        original = parse_policy(DELEGATION_ORIGINAL_SOURCE)
        greedy = parse_policy(
            "[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2) -> .* ],"
            "max(x, 200MB/s)"
        )
        report = verify_refinement(original, greedy)
        assert not report.valid
        assert any(v.kind == "bandwidth" for v in report.violations)

    def test_sum_exactly_at_budget_accepted(self):
        original = parse_policy(DELEGATION_ORIGINAL_SOURCE)
        split = parse_policy(
            "[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80) -> .* ;"
            "  y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst != 80) -> .* ],"
            "max(x, 60MB/s) and max(y, 40MB/s)"
        )
        assert verify_refinement(original, split).valid

    def test_path_relaxation_rejected(self):
        original = parse_policy("[ x : ip.src = 10.0.0.1 -> .* log .* ]")
        relaxed = parse_policy("[ x : ip.src = 10.0.0.1 -> .* ]")
        report = verify_refinement(original, relaxed)
        assert not report.valid
        assert any(v.kind == "path" for v in report.violations)

    def test_path_tightening_accepted(self):
        original = parse_policy("[ x : ip.src = 10.0.0.1 -> .* log .* ]")
        tightened = parse_policy("[ x : ip.src = 10.0.0.1 -> .* log .* dpi .* ]")
        assert verify_refinement(original, tightened).valid

    def test_incomplete_coverage_rejected(self):
        original = parse_policy("[ x : ip.src = 10.0.0.1 -> .* ]")
        partial = parse_policy("[ x : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ]")
        report = verify_refinement(original, partial)
        assert not report.valid
        assert any(v.kind == "coverage" for v in report.violations)

    def test_out_of_scope_statement_rejected(self):
        original = parse_policy("[ x : ip.src = 10.0.0.1 -> .* ]")
        expanded = parse_policy(
            "[ x : ip.src = 10.0.0.1 -> .* ; y : ip.src = 10.0.0.9 -> .* ]"
        )
        report = verify_refinement(original, expanded)
        assert not report.valid
        assert any(v.kind == "scope" for v in report.violations)

    def test_guarantee_sum_checked(self):
        original = parse_policy(
            "[ x : ip.src = 10.0.0.1 -> .* ], min(x, 100Mbps)"
        )
        over = parse_policy(
            "[ a : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ;"
            "  b : ip.src = 10.0.0.1 and tcp.dst != 80 -> .* ],"
            "min(a, 80Mbps) and min(b, 80Mbps)"
        )
        assert not verify_refinement(original, over).valid
        under = parse_policy(
            "[ a : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ;"
            "  b : ip.src = 10.0.0.1 and tcp.dst != 80 -> .* ],"
            "min(a, 50Mbps) and min(b, 50Mbps)"
        )
        assert verify_refinement(original, under).valid

    def test_each_statement_pair_is_sat_checked_at_most_once(self, monkeypatch):
        """Coverage, path inclusion and the bandwidth sums share one overlap
        relation, and the index keeps pairs pinned to other hosts out of it."""
        from repro.predicates import sat

        original = parse_policy(
            "[ a : ip.src = 10.0.0.1 -> .* ; b : ip.src = 10.0.0.2 -> .* ],"
            "max(a, 100Mbps) and max(b, 100Mbps)"
        )
        refined = parse_policy(
            "[ a1 : ip.src = 10.0.0.1 and tcp.dst = 80 -> .* ;"
            "  a2 : ip.src = 10.0.0.1 and tcp.dst != 80 -> .* ;"
            "  b1 : ip.src = 10.0.0.2 and tcp.dst = 80 -> .* ;"
            "  b2 : ip.src = 10.0.0.2 and tcp.dst != 80 -> .* ],"
            "max(a1, 50Mbps) and max(a2, 50Mbps) and max(b1, 50Mbps) and max(b2, 50Mbps)"
        )
        checked = []
        is_disjoint = sat.is_disjoint
        monkeypatch.setattr(
            sat,
            "is_disjoint",
            lambda left, right: checked.append((left, right)) or is_disjoint(left, right),
        )
        report = verify_refinement(original, refined)
        assert report.valid and report.checked_pairs == 4
        by_predicate = {s.predicate: s.identifier for s in (*original.statements, *refined.statements)}
        pairs = sorted((by_predicate[left], by_predicate[right]) for left, right in checked)
        assert pairs == [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]


class TestNegotiatorTree:
    def test_delegate_and_refine(self):
        root = Negotiator(name="admin", policy=parse_policy(DELEGATION_ORIGINAL_SOURCE))
        tenant = root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))
        assert tenant.parent is root
        assert tenant.depth() == 1
        assert tenant.propose(parse_policy(DELEGATION_REFINED_SOURCE)).valid
        assert len(tenant.policy.statements) == 3

    def test_invalid_refinement_is_rejected_and_keeps_policy(self):
        root = Negotiator(name="admin", policy=parse_policy(DELEGATION_ORIGINAL_SOURCE))
        tenant = root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))
        before = tenant.policy
        report = tenant.propose(
            parse_policy(
                "[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2) -> .* ],"
                "max(x, 500MB/s)"
            )
        )
        assert not report.valid
        assert tenant.policy is before

    def test_duplicate_child_rejected(self):
        root = Negotiator(name="admin", policy=parse_policy(DELEGATION_ORIGINAL_SOURCE))
        root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))
        with pytest.raises(DelegationError):
            root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))

    def test_totals_and_reallocation(self):
        root = Negotiator(name="admin", policy=parse_policy(DELEGATION_ORIGINAL_SOURCE))
        tenant = root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))
        assert tenant.propose(parse_policy(DELEGATION_REFINED_SOURCE)).valid
        assert tenant.total_cap() == Bandwidth.mb_per_sec(100)
        # Shift bandwidth from y/z to x while staying within the delegated 100 MB/s.
        report = tenant.reallocate_caps(
            {
                "x": Bandwidth.mb_per_sec(80),
                "y": Bandwidth.mb_per_sec(10),
                "z": Bandwidth.mb_per_sec(10),
            }
        )
        assert report.valid
        assert tenant.total_cap() == Bandwidth.mb_per_sec(100)
        # Exceeding the budget is rejected.
        report = tenant.reallocate_caps(
            {
                "x": Bandwidth.mb_per_sec(80),
                "y": Bandwidth.mb_per_sec(40),
                "z": Bandwidth.mb_per_sec(10),
            }
        )
        assert not report.valid

    def test_root(self):
        root = Negotiator(name="admin", policy=parse_policy(DELEGATION_ORIGINAL_SOURCE))
        child = root.delegate_to("tenant-a", parse_predicate("ip.src = 192.168.1.1"))
        assert child.root() is root


class TestAimd:
    def test_sawtooth_stays_under_capacity(self):
        allocator = AimdAllocator(capacity=Bandwidth.mbps(500))
        allocator.add_tenant("h1-h2")
        allocator.add_tenant("h3-h4")
        trace = allocator.run(steps=60)
        aggregate = trace.aggregate()
        assert max(aggregate) <= 500 + 1e-6
        # The sawtooth must actually oscillate (increase and back off).
        series = trace.series("h1-h2")
        assert max(series) > min(series[1:])

    def test_converges_towards_fair_share(self):
        allocator = AimdAllocator(capacity=Bandwidth.mbps(600))
        allocator.add_tenant("a")
        allocator.add_tenant("b")
        trace = allocator.run(steps=200)
        tail_a = trace.series("a")[-50:]
        tail_b = trace.series("b")[-50:]
        assert abs(sum(tail_a) / 50 - sum(tail_b) / 50) < 100

    def test_demand_limits_growth(self):
        allocator = AimdAllocator(capacity=Bandwidth.mbps(500))
        allocator.add_tenant("small")
        allocator.add_tenant("big")
        trace = allocator.run(
            steps=40, demands={"small": Bandwidth.mbps(50), "big": Bandwidth.gbps(1)}
        )
        assert max(trace.series("small")) <= 50 + 1e-6

    def test_duplicate_tenant_rejected(self):
        allocator = AimdAllocator(capacity=Bandwidth.mbps(100))
        allocator.add_tenant("a")
        with pytest.raises(Exception):
            allocator.add_tenant("a")


class TestMaxMinFairShare:
    def test_unsatisfiable_demands_split_equally(self):
        shares = max_min_fair_share(
            Bandwidth.mbps(900),
            {"a": Bandwidth.gbps(1), "b": Bandwidth.gbps(1), "c": Bandwidth.gbps(1)},
        )
        assert all(share == Bandwidth.mbps(300) for share in shares.values())

    def test_small_demand_satisfied_first(self):
        shares = max_min_fair_share(
            Bandwidth.mbps(900), {"small": Bandwidth.mbps(100), "big": Bandwidth.gbps(1)}
        )
        assert shares["small"] == Bandwidth.mbps(100)
        assert shares["big"] == Bandwidth.mbps(800)

    def test_capacity_never_exceeded(self):
        shares = max_min_fair_share(
            Bandwidth.mbps(100),
            {"a": Bandwidth.mbps(70), "b": Bandwidth.mbps(70), "c": Bandwidth.mbps(10)},
        )
        total = sum(share.bps_value for share in shares.values())
        assert total <= Bandwidth.mbps(100).bps_value + 1e-6

    def test_zero_demand_gets_nothing(self):
        shares = max_min_fair_share(
            Bandwidth.mbps(100), {"idle": Bandwidth(0), "busy": Bandwidth.mbps(90)}
        )
        assert shares["idle"].bps_value == 0.0
        assert shares["busy"] == Bandwidth.mbps(90)

    def test_allocator_traces_demand_changes(self):
        allocator = MaxMinFairAllocator(capacity=Bandwidth.mbps(400))
        schedule = [
            {"h1-h2": Bandwidth.mbps(400), "h3-h4": Bandwidth(0)},
            {"h3-h4": Bandwidth.mbps(400)},
            {"h1-h2": Bandwidth(0)},
        ]
        trace = allocator.run(schedule)
        assert trace.series("h1-h2")[0] == pytest.approx(400.0)
        assert trace.series("h1-h2")[1] == pytest.approx(200.0)
        assert trace.series("h3-h4")[2] == pytest.approx(400.0)


class TestAimdTraceAlignment:
    """Regression: series must stay aligned with ``times`` when tenants come
    and go mid-run (late joiners used to have short series and ``aggregate``
    raised ``IndexError``)."""

    def test_late_joiner_series_is_front_padded(self):
        from repro.negotiator.aimd import AimdTrace

        trace = AimdTrace()
        trace.record(0.0, {"a": Bandwidth.mbps(10)})
        trace.record(1.0, {"a": Bandwidth.mbps(20), "b": Bandwidth.mbps(5)})
        assert trace.series("a") == [10.0, 20.0]
        assert trace.series("b") == [0.0, 5.0]
        assert trace.aggregate() == [10.0, 25.0]

    def test_departed_tenant_series_is_back_padded(self):
        from repro.negotiator.aimd import AimdTrace

        trace = AimdTrace()
        trace.record(0.0, {"a": Bandwidth.mbps(10), "b": Bandwidth.mbps(5)})
        trace.record(1.0, {"a": Bandwidth.mbps(20)})
        assert trace.series("b") == [5.0, 0.0]
        assert trace.aggregate() == [15.0, 20.0]

    def test_allocator_run_with_mid_run_join(self):
        allocator = AimdAllocator(capacity=Bandwidth.mbps(100))
        allocator.add_tenant("a")
        trace = allocator.run(steps=3)
        allocator.add_tenant("b")
        for index in range(4, 7):
            allocator.step()
            trace.record(float(index), allocator.allocations())
        # Every series spans the whole trace and aggregation works.
        assert len(trace.series("a")) == len(trace.times)
        assert len(trace.series("b")) == len(trace.times)
        aggregate = trace.aggregate()
        assert len(aggregate) == len(trace.times)
        # The late joiner contributed nothing before it existed.
        assert all(value == 0.0 for value in trace.series("b")[:4])


class TestVerificationAutomata:
    """Path inclusion asks the automaton store once per distinct pair of
    path expressions, and a verdict compiles each expression once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.regex import operations
        from repro.regex.dfa import DFA

        monkeypatch.setattr(operations, "_STORE", operations.AutomatonStore(4096))
        counts = {"subset constructions": 0, "products": 0}

        def counted(key, function):
            def wrapper(*args):
                counts[key] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            DFA, "from_nfa", staticmethod(counted("subset constructions", DFA.from_nfa))
        )
        monkeypatch.setattr(DFA, "product", counted("products", DFA.product))
        monkeypatch.setattr(
            DFA, "shortest_in_product", counted("products", DFA.shortest_in_product)
        )
        return counts

    @staticmethod
    def port_partition(ports, path, original_path=".*"):
        """(one statement for all TCP, one per port plus the rest), the shape
        of the benchmark's port-partition family."""
        tcp = FieldTest("ip.proto", 6)
        statements = [
            Statement(f"p{port}", pred_and(tcp, FieldTest("tcp.dst", port)), path)
            for port in ports
        ]
        rest = pred_and(tcp, pred_not(pred_or(*[FieldTest("tcp.dst", port) for port in ports])))
        statements.append(Statement("rest", rest, path))
        return (
            Policy(statements=(Statement("all", tcp, parse_path_expression(original_path)),)),
            Policy(statements=tuple(statements)),
        )

    def test_port_partition_of_500_statements_needs_two_automata_and_one_product(self, counts):
        original, refined = self.port_partition(range(1, 501), parse_path_expression(".* s1 .*"))
        report = verify_refinement(original, refined)
        assert report.valid and report.checked_pairs == 501
        assert counts == {"subset constructions": 2, "products": 1}

    def test_port_partition_with_untouched_paths_needs_no_automaton(self, counts):
        original, refined = self.port_partition(range(1, 501), parse_path_expression(".*"))
        assert verify_refinement(original, refined).valid
        assert counts == {"subset constructions": 0, "products": 0}

    @pytest.mark.parametrize("last, valid", [("extra", True), ("other", False)])
    def test_waypoint_chain_compiles_each_expression_once(self, counts, last, valid):
        def chain(names):
            path = parse_path_expression(" ".join([".*", *(f"{name} .*" for name in names)]))
            return Policy(statements=(Statement("x", FieldTest("ip.proto", 6), path),))

        names = [f"f{i}" for i in range(13)]
        refined_names = names + [last] if valid else names[:-1] + [last]
        report = verify_refinement(chain(names), chain(refined_names))
        assert report.valid == valid
        assert counts == {"subset constructions": 2, "products": 1}
        if not valid:
            assert str(report.violations[0]).endswith(f"(e.g. path {' '.join(refined_names)})")

    def test_every_pair_of_a_rejected_shape_is_reported_in_order(self, counts):
        original, refined = self.port_partition(
            range(1, 7), parse_path_expression(".* dpi .*"), original_path=".* log .*"
        )
        report = verify_refinement(original, refined)
        assert not report.valid and report.checked_pairs == 7
        assert [str(violation) for violation in report.violations] == [
            f"[path] refined statement {name!r} allows paths not allowed by "
            "original statement 'all' (e.g. path dpi)"
            for name in ("p1", "p2", "p3", "p4", "p5", "p6", "rest")
        ]
        assert counts == {"subset constructions": 2, "products": 1}

    def test_untouched_policy_builds_no_union_of_the_original_predicates(self, monkeypatch):
        from repro.negotiator import verification

        def refuse(*predicates):
            raise AssertionError("pred_or over the original predicates was built")

        monkeypatch.setattr(verification, "pred_or", refuse)
        source = "[ a : tcp.dst = 80 -> .* ; b : tcp.dst = 22 -> .* ], max(a, {0}Mbps) and max(b, {0}Mbps)"
        report = verify_refinement(parse_policy(source.format(100)), parse_policy(source.format(50)))
        assert report.valid and report.checked_pairs == 0 and report.checked_clauses == 2
