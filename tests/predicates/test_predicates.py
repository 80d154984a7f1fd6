"""Tests for the predicate AST, parser, evaluator, and field catalogue."""

import pytest

from repro.errors import FieldError, ParseError
from repro.packet import make_packet
from repro.predicates import (
    FIELD_CATALOG,
    And,
    FieldTest,
    Not,
    Or,
    PFalse,
    PTrue,
    matches,
    normalize_value,
    parse_predicate,
    pred_and,
    pred_not,
    pred_or,
)
from repro.predicates.ast import FALSE, TRUE
from repro.predicates.fields import domain_size, field_spec


class TestFieldCatalog:
    def test_standard_protocols_present(self):
        for name in ("eth.src", "eth.dst", "ip.src", "ip.dst", "ip.proto",
                     "tcp.src", "tcp.dst", "udp.src", "udp.dst", "payload"):
            assert name in FIELD_CATALOG

    def test_unknown_field_raises(self):
        with pytest.raises(FieldError):
            field_spec("foo.bar")

    def test_mac_normalisation(self):
        assert normalize_value("eth.src", "A:B:C:1:2:3") == "0a:0b:0c:01:02:03"

    def test_invalid_mac_rejected(self):
        with pytest.raises(FieldError):
            normalize_value("eth.src", "not-a-mac")

    def test_ip_normalisation(self):
        assert normalize_value("ip.src", "010.0.0.1") == "10.0.0.1"

    def test_invalid_ip_rejected(self):
        with pytest.raises(FieldError):
            normalize_value("ip.dst", "300.0.0.1")

    def test_port_range_enforced(self):
        assert normalize_value("tcp.dst", "80") == 80
        with pytest.raises(FieldError):
            normalize_value("tcp.dst", 70000)

    @pytest.mark.parametrize(
        "field, value, width", [("tcp.dst", "tcp", 16), ("ip.tos", "1.5", 8)]
    )
    def test_non_integer_value_is_a_field_error_at_every_entry_point(
        self, field, value, width
    ):
        from repro.core.parser import parse_policy

        source = f"{field} = {value}"
        for build in (
            lambda: FieldTest(field, value),
            lambda: parse_predicate(source),
            lambda: parse_policy(f"[x : ({source}) -> .* ]"),
        ):
            with pytest.raises(FieldError, match=f"{value!r}.*{width}-bit"):
                build()

    def test_protocol_names(self):
        assert normalize_value("ip.proto", "tcp") == 6
        assert normalize_value("ip.proto", "udp") == 17

    def test_ethertype_names(self):
        assert normalize_value("eth.type", "ip") == 0x0800

    def test_hex_values(self):
        assert normalize_value("eth.type", "0x0806") == 0x0806

    def test_domain_sizes(self):
        assert domain_size("tcp.dst") == 2**16
        assert domain_size("vlan.pcp") == 8
        assert domain_size("payload") is None


class TestConstructors:
    def test_and_identity(self):
        p = FieldTest("tcp.dst", 80)
        assert pred_and(TRUE, p) is p
        assert pred_and(p) is p

    def test_and_absorbs_false(self):
        assert isinstance(pred_and(FieldTest("tcp.dst", 80), FALSE), PFalse)

    def test_or_identity(self):
        p = FieldTest("tcp.dst", 80)
        assert pred_or(FALSE, p) is p

    def test_or_absorbs_true(self):
        assert isinstance(pred_or(FieldTest("tcp.dst", 80), TRUE), PTrue)

    def test_double_negation_collapses(self):
        p = FieldTest("tcp.dst", 80)
        assert pred_not(pred_not(p)) is p

    def test_not_of_constants(self):
        assert isinstance(pred_not(TRUE), PFalse)
        assert isinstance(pred_not(FALSE), PTrue)

    def test_operator_sugar(self):
        p = FieldTest("tcp.dst", 80)
        q = FieldTest("tcp.src", 1024)
        assert isinstance(p & q, And)
        assert isinstance(p | q, Or)
        assert isinstance(~p, Not)

    def test_value_normalised_in_field_test(self):
        assert FieldTest("tcp.dst", "80").value == 80


class TestParser:
    def test_single_test(self):
        assert parse_predicate("tcp.dst = 80") == FieldTest("tcp.dst", 80)

    def test_mac_value(self):
        p = parse_predicate("eth.src = 00:00:00:00:00:01")
        assert p == FieldTest("eth.src", "00:00:00:00:00:01")

    def test_ip_value(self):
        assert parse_predicate("ip.src = 192.168.1.1") == FieldTest("ip.src", "192.168.1.1")

    def test_symbolic_protocol(self):
        assert parse_predicate("ip.proto = tcp") == FieldTest("ip.proto", 6)

    def test_conjunction(self):
        p = parse_predicate("tcp.dst = 80 and ip.proto = tcp")
        assert isinstance(p, And)

    def test_disjunction_and_parentheses(self):
        p = parse_predicate("(tcp.dst = 80 or tcp.dst = 443) and ip.proto = tcp")
        assert isinstance(p, And)
        assert isinstance(p.left, Or)

    def test_negation(self):
        p = parse_predicate("!(tcp.dst = 80)")
        assert isinstance(p, Not)

    def test_not_equal_sugar(self):
        p = parse_predicate("tcp.dst != 80")
        assert p == Not(FieldTest("tcp.dst", 80))

    def test_constants(self):
        assert isinstance(parse_predicate("true"), PTrue)
        assert isinstance(parse_predicate("false"), PFalse)

    def test_precedence_and_binds_tighter_than_or(self):
        p = parse_predicate("tcp.dst = 80 or tcp.dst = 22 and ip.proto = tcp")
        assert isinstance(p, Or)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_predicate("tcp.dst = 80 garbage garbage")

    def test_missing_value_rejected(self):
        with pytest.raises(ParseError):
            parse_predicate("tcp.dst =")

    def test_unknown_character_rejected(self):
        with pytest.raises(ParseError):
            parse_predicate("tcp.dst = 80 $ true")


class TestEvaluator:
    def test_match_simple(self):
        p = parse_predicate("tcp.dst = 80")
        assert matches(p, make_packet(tcp_dst=80))
        assert not matches(p, make_packet(tcp_dst=22))

    def test_missing_field_does_not_match(self):
        p = parse_predicate("tcp.dst = 80")
        assert not matches(p, make_packet(udp_dst=80))

    def test_conjunction_and_negation(self):
        p = parse_predicate("ip.proto = tcp and tcp.dst != 22")
        assert matches(p, make_packet(ip_proto="tcp", tcp_dst=80))
        assert not matches(p, make_packet(ip_proto="tcp", tcp_dst=22))

    def test_disjunction(self):
        p = parse_predicate("tcp.dst = 80 or tcp.dst = 443")
        assert matches(p, make_packet(tcp_dst=443))
        assert not matches(p, make_packet(tcp_dst=8080))

    def test_true_false(self):
        packet = make_packet(tcp_dst=80)
        assert matches(TRUE, packet)
        assert not matches(FALSE, packet)

    def test_mac_match_normalised(self):
        p = parse_predicate("eth.src = 00:00:00:00:00:01")
        assert matches(p, make_packet(eth_src="0:0:0:0:0:1", eth_dst="0:0:0:0:0:2"))

    def test_running_example_statement(self):
        p = parse_predicate(
            "eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80"
        )
        good = make_packet(
            eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:02", tcp_dst=80
        )
        bad = make_packet(
            eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:03", tcp_dst=80
        )
        assert matches(p, good)
        assert not matches(p, bad)
