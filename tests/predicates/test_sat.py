"""Tests for predicate satisfiability, disjointness, implication, and partitions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.packet import make_packet
from repro.predicates import (
    FieldTest,
    equivalent,
    implies,
    is_disjoint,
    is_partition,
    is_satisfiable,
    matches,
    pairwise_disjoint,
    parse_predicate,
    pred_and,
    pred_not,
    pred_or,
    to_nnf,
)
from repro.predicates.ast import FALSE, TRUE, And, Not, Or
from repro.predicates.sat import covers, find_overlapping_pairs, overlaps
from repro.predicates.transform import atoms, subtract


class TestSatisfiability:
    def test_true_is_satisfiable(self):
        assert is_satisfiable(TRUE)

    def test_false_is_not(self):
        assert not is_satisfiable(FALSE)

    def test_conflicting_equalities(self):
        p = pred_and(FieldTest("tcp.dst", 80), FieldTest("tcp.dst", 22))
        assert not is_satisfiable(p)

    def test_equality_with_matching_exclusion(self):
        p = pred_and(FieldTest("tcp.dst", 80), pred_not(FieldTest("tcp.dst", 80)))
        assert not is_satisfiable(p)

    def test_equality_with_other_exclusion(self):
        p = pred_and(FieldTest("tcp.dst", 80), pred_not(FieldTest("tcp.dst", 22)))
        assert is_satisfiable(p)

    def test_negation_alone_satisfiable(self):
        assert is_satisfiable(parse_predicate("tcp.dst != 80"))

    def test_small_domain_exhaustion(self):
        # vlan.pcp has only 8 values; excluding all of them is unsatisfiable.
        exclusions = pred_and(*[pred_not(FieldTest("vlan.pcp", v)) for v in range(8)])
        assert not is_satisfiable(exclusions)
        seven = pred_and(*[pred_not(FieldTest("vlan.pcp", v)) for v in range(7)])
        assert is_satisfiable(seven)

    def test_disjunction_rescues(self):
        p = pred_or(
            pred_and(FieldTest("tcp.dst", 80), FieldTest("tcp.dst", 22)),
            FieldTest("tcp.dst", 443),
        )
        assert is_satisfiable(p)


class TestDisjointnessAndImplication:
    def test_different_ports_disjoint(self):
        p = parse_predicate("tcp.dst = 20")
        q = parse_predicate("tcp.dst = 21")
        assert is_disjoint(p, q)

    def test_overlapping_not_disjoint(self):
        p = parse_predicate("ip.proto = tcp")
        q = parse_predicate("tcp.dst = 80")
        assert not is_disjoint(p, q)
        assert overlaps(p, q)

    def test_implication(self):
        narrow = parse_predicate("ip.proto = tcp and tcp.dst = 80")
        wide = parse_predicate("ip.proto = tcp")
        assert implies(narrow, wide)
        assert not implies(wide, narrow)

    def test_equivalence(self):
        p = parse_predicate("tcp.dst = 80 and ip.proto = tcp")
        q = parse_predicate("ip.proto = tcp and tcp.dst = 80")
        assert equivalent(p, q)

    def test_everything_implies_true(self):
        assert implies(parse_predicate("tcp.dst = 80"), TRUE)

    def test_false_implies_everything(self):
        assert implies(FALSE, parse_predicate("tcp.dst = 80"))

    def test_running_example_statements_are_disjoint(self):
        predicates = [
            parse_predicate(f"eth.src = 00:00:00:00:00:01 and tcp.dst = {port}")
            for port in (20, 21, 80)
        ]
        assert pairwise_disjoint(predicates)
        assert find_overlapping_pairs(predicates) == []

    def test_overlapping_pairs_reported(self):
        predicates = [
            parse_predicate("ip.proto = tcp"),
            parse_predicate("tcp.dst = 80"),
            parse_predicate("udp.dst = 53"),
        ]
        assert (0, 1) in find_overlapping_pairs(predicates)


class TestPartition:
    def test_http_ssh_other_partition(self):
        # The §4.1 refinement: TCP traffic split into HTTP / SSH / the rest.
        original = parse_predicate("ip.proto = tcp")
        parts = [
            parse_predicate("ip.proto = tcp and tcp.dst = 80"),
            parse_predicate("ip.proto = tcp and tcp.dst = 22"),
            parse_predicate("ip.proto = tcp and !(tcp.dst = 22 or tcp.dst = 80)"),
        ]
        assert covers(original, parts)
        assert is_partition(original, parts)

    def test_incomplete_partition_detected(self):
        original = parse_predicate("ip.proto = tcp")
        parts = [
            parse_predicate("ip.proto = tcp and tcp.dst = 80"),
            parse_predicate("ip.proto = tcp and tcp.dst = 22"),
        ]
        assert not covers(original, parts)
        assert not is_partition(original, parts)

    def test_overlapping_parts_rejected(self):
        original = parse_predicate("ip.proto = tcp")
        parts = [
            parse_predicate("ip.proto = tcp and tcp.dst = 80"),
            parse_predicate("ip.proto = tcp"),
        ]
        assert covers(original, parts)
        assert not is_partition(original, parts)

    def test_parts_outside_original_rejected(self):
        original = parse_predicate("ip.proto = tcp")
        parts = [parse_predicate("ip.proto = tcp"), parse_predicate("ip.proto = udp")]
        assert not is_partition(original, parts)


class TestTransforms:
    def test_nnf_pushes_negation(self):
        p = pred_not(pred_and(FieldTest("tcp.dst", 80), FieldTest("tcp.src", 22)))
        nnf = to_nnf(p)
        assert equivalent(p, nnf)

    def test_nnf_of_negated_constants_and_double_negation(self):
        http = FieldTest("tcp.dst", 80)
        assert to_nnf(pred_not(TRUE)) == FALSE
        assert to_nnf(pred_not(FALSE)) == TRUE
        assert to_nnf(Not(Not(http))) == http
        assert to_nnf(Not(http)) == Not(http)

    def test_subtract(self):
        tcp = parse_predicate("ip.proto = tcp")
        http = parse_predicate("ip.proto = tcp and tcp.dst = 80")
        rest = subtract(tcp, http)
        assert is_disjoint(rest, http)
        assert equivalent(pred_or(rest, http), tcp)


# ---------------------------------------------------------------------------
# Property-based tests: the symbolic decision procedure agrees with concrete
# packet evaluation on randomly generated predicates and packets.
# ---------------------------------------------------------------------------

_PORTS = [20, 21, 22, 80, 443]
_ATOMS = st.sampled_from(
    [FieldTest("tcp.dst", port) for port in _PORTS]
    + [FieldTest("tcp.src", port) for port in _PORTS[:2]]
    + [FieldTest("ip.proto", proto) for proto in (6, 17)]
)


def _predicates(depth=3):
    return st.recursive(
        _ATOMS | st.just(TRUE) | st.just(FALSE),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: pred_and(*pair)),
            st.tuples(children, children).map(lambda pair: pred_or(*pair)),
            children.map(pred_not),
        ),
        max_leaves=8,
    )


_PACKETS = st.builds(
    make_packet,
    tcp_dst=st.sampled_from(_PORTS),
    tcp_src=st.sampled_from(_PORTS),
    ip_proto=st.sampled_from([6, 17]),
)


class TestSatProperties:
    @settings(max_examples=150, deadline=None)
    @given(predicate=_predicates(), packet=_PACKETS)
    def test_matching_packet_implies_satisfiable(self, predicate, packet):
        if matches(predicate, packet):
            assert is_satisfiable(predicate)

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates(), q=_predicates(), packet=_PACKETS)
    def test_disjoint_predicates_never_share_a_packet(self, p, q, packet):
        if is_disjoint(p, q):
            assert not (matches(p, packet) and matches(q, packet))

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates(), q=_predicates(), packet=_PACKETS)
    def test_implication_respected_by_packets(self, p, q, packet):
        if implies(p, q) and matches(p, packet):
            assert matches(q, packet)

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates(), q=_predicates())
    def test_disjointness_is_symmetric(self, p, q):
        assert is_disjoint(p, q) == is_disjoint(q, p)

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates(), packet=_PACKETS)
    def test_nnf_matches_same_packets(self, p, packet):
        assert matches(to_nnf(p), packet) == matches(p, packet)

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates())
    def test_nnf_negates_only_field_tests(self, p):
        stack = [to_nnf(p)]
        while stack:
            node = stack.pop()
            if isinstance(node, Not):
                assert isinstance(node.operand, FieldTest)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children())
        assert atoms(to_nnf(p)) <= atoms(p)

    @settings(max_examples=100, deadline=None)
    @given(p=_predicates(), packet=_PACKETS)
    def test_negation_flips_matching(self, p, packet):
        assert matches(pred_not(p), packet) == (not matches(p, packet))
