"""Tests for predicate satisfiability, disjointness, implication, and partitions."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import PolicyError
from repro.packet import Packet, make_packet
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
)
from repro.predicates import sat
from repro.predicates.ast import FALSE, TRUE, And, Not, Or
from repro.predicates.fields import domain_size
from repro.predicates.sat import covers, find_overlapping_pairs, overlaps


def _field_tests(predicate):
    found, stack = set(), [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, FieldTest):
            found.add(node)
        stack.extend(node.children())
    return found


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

    def test_the_questions_build_no_predicate(self, monkeypatch):
        # Each operand is one signed goal of the search: no conjunction,
        # negation or union of the operands is constructed.
        tcp = parse_predicate("ip.proto = tcp")
        parts = [
            parse_predicate("ip.proto = tcp and tcp.dst = 80"),
            parse_predicate("ip.proto = tcp and tcp.dst != 80"),
        ]

        def refuse(node, *operands):
            raise AssertionError(f"an {type(node).__name__} node was built")

        for node_type in (And, Or, Not):
            monkeypatch.setattr(node_type, "__init__", refuse)
        assert covers(tcp, parts)
        assert all(implies(part, tcp) for part in parts)
        assert is_disjoint(*parts)
        assert is_partition(tcp, parts)

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
    def test_difference_is_disjoint_and_covers(self):
        tcp = parse_predicate("ip.proto = tcp")
        http = parse_predicate("ip.proto = tcp and tcp.dst = 80")
        rest = pred_and(tcp, pred_not(http))
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
    def test_negation_flips_matching(self, p, packet):
        assert matches(pred_not(p), packet) == (not matches(p, packet))


# ---------------------------------------------------------------------------
# Exact verdicts: on trees built with the raw constructors (constants, double
# negations and negated compounds kept), every answer equals an enumeration
# of the packets that can tell the predicates apart.
# ---------------------------------------------------------------------------


def _pcp_in(values):
    """``vlan.pcp`` in ``values``: a right-nested disjunction of its tests."""
    values = sorted(values)
    tree = FieldTest("vlan.pcp", values[-1])
    for value in reversed(values[:-1]):
        tree = Or(FieldTest("vlan.pcp", value), tree)
    return tree


# Every vlan.pcp value is an atom, and a leaf may test a set of them, so
# negated parts exclude all eight values often enough to reach the
# finite-domain check.
_RAW_LEAVES = (
    st.sampled_from(
        [FieldTest("vlan.pcp", value) for value in range(8)]
        + [FieldTest("tcp.dst", port) for port in _PORTS[:3]]
        + [FieldTest("ip.proto", proto) for proto in (6, 17)]
        + [TRUE, FALSE]
    )
    | st.sets(st.integers(0, 7), min_size=2).map(_pcp_in)
)

_RAW_PREDICATES = st.recursive(
    _RAW_LEAVES,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=10,
)


def _enumerated_packets(*predicates):
    """Every combination of the tested values, each field also taking one
    value none of the predicates tests when its domain has room."""
    tested = {}
    for predicate in predicates:
        for test in _field_tests(predicate):
            tested.setdefault(test.field, set()).add(test.value)
    names = sorted(tested)
    choices = []
    for name in names:
        values = sorted(tested[name])
        if len(values) < domain_size(name):
            values.append(next(v for v in itertools.count() if v not in tested[name]))
        choices.append(values)
    return [
        Packet(headers=dict(zip(names, combination)))
        for combination in itertools.product(*choices)
    ]


class TestExactVerdicts:
    @settings(max_examples=300, deadline=None)
    @given(
        p=_RAW_PREDICATES,
        q=_RAW_PREDICATES,
        parts=st.lists(_RAW_PREDICATES, max_size=4),
    )
    @example(
        p=FieldTest("ip.proto", 6),
        q=Not(Not(TRUE)),
        parts=[_pcp_in(range(4)), _pcp_in(range(4, 8))],
    )
    def test_verdicts_equal_an_enumeration(self, p, q, parts):
        packets = _enumerated_packets(p, q, *parts)
        in_p = [matches(p, packet) for packet in packets]
        in_q = [matches(q, packet) for packet in packets]
        in_parts = [
            any(matches(part, packet) for part in parts) for packet in packets
        ]
        assert is_satisfiable(p) == any(in_p)
        assert is_disjoint(p, q) == (not any(a and b for a, b in zip(in_p, in_q)))
        assert implies(p, q) == all(b for a, b in zip(in_p, in_q) if a)
        assert covers(p, parts) == all(b for a, b in zip(in_p, in_parts) if a)


# ---------------------------------------------------------------------------
# Depth and budget: the search is a loop over signed goals.
# ---------------------------------------------------------------------------


def _alternating_chain(levels):
    """``levels`` alternating ``Or`` / ``And`` levels over ``tcp.dst = 0``:
    odd levels add ``or tcp.dst = level``, even ones ``and ip.proto = 6``."""
    chain = FieldTest("tcp.dst", 0)
    for level in range(1, levels + 1):
        if level % 2:
            chain = Or(chain, FieldTest("tcp.dst", level))
        else:
            chain = And(chain, FieldTest("ip.proto", 6))
    return chain


def _negations(depth, operand):
    for _ in range(depth):
        operand = Not(operand)
    return operand


class TestDepthAndBudget:
    def test_an_alternating_chain_deeper_than_the_recursion_limit(self):
        chain = _alternating_chain(3_000)
        tcp_to_0 = And(FieldTest("tcp.dst", 0), FieldTest("ip.proto", 6))
        assert is_satisfiable(chain)
        assert implies(tcp_to_0, chain)
        assert not implies(chain, FieldTest("tcp.src", 1))
        assert is_disjoint(FieldTest("ip.proto", 17), chain)

    def test_a_negation_chain_deeper_than_the_recursion_limit(self):
        not_http = _negations(3_001, FieldTest("tcp.dst", 80))
        assert is_satisfiable(not_http)
        assert implies(FieldTest("tcp.dst", 22), not_http)
        assert not implies(not_http, FieldTest("tcp.dst", 22))
        assert is_disjoint(FieldTest("tcp.dst", 80), not_http)
        assert not is_satisfiable(And(FieldTest("tcp.dst", 80), not_http))

    def test_the_budget_counts_every_goal_taken_up(self, monkeypatch):
        # And, tcp.dst = 80, Not, tcp.src = 22: four steps.
        p = And(FieldTest("tcp.dst", 80), Not(FieldTest("tcp.src", 22)))
        monkeypatch.setattr(sat, "MAX_BRANCH_STEPS", 4)
        assert is_satisfiable(p)
        monkeypatch.setattr(sat, "MAX_BRANCH_STEPS", 3)
        with pytest.raises(
            PolicyError,
            match="^predicate satisfiability search exceeded its branch budget$",
        ):
            is_satisfiable(p)

    def test_a_failing_top_level_constant_is_read_before_the_walk(self, monkeypatch):
        # 2**20 branches, each failing only at the trailing constant, were
        # the walk to reach it first.
        wide = pred_and(
            *[
                Or(FieldTest("tcp.dst", port), FieldTest("tcp.src", port))
                for port in range(20)
            ]
        )
        monkeypatch.setattr(sat, "MAX_BRANCH_STEPS", 0)
        assert implies(wide, TRUE)
        assert is_disjoint(wide, FALSE)
        assert covers(wide, [FieldTest("tcp.dst", 1), TRUE])
