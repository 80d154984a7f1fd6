"""Tests for the packet model."""

import pytest

from repro.packet import Packet, make_packet


class TestMakePacket:
    def test_only_supplied_fields_present(self):
        packet = make_packet(tcp_dst=80)
        assert "tcp.dst" in packet
        assert "eth.src" not in packet

    def test_mac_normalisation(self):
        packet = make_packet(eth_src="0:0:0:0:0:1")
        assert packet.get("eth.src") == "00:00:00:00:00:01"

    def test_protocol_name_normalisation(self):
        assert make_packet(ip_proto="tcp").get("ip.proto") == 6
        assert make_packet(ip_proto="udp").get("ip.proto") == 17
        assert make_packet(ip_proto=47).get("ip.proto") == 47

    def test_extra_fields_with_underscores(self):
        packet = make_packet(ip_tos=4)
        assert packet.get("ip.tos") == 4

    def test_payload_default(self):
        assert make_packet(tcp_dst=80).payload == b""


class TestPacket:
    def test_get_default(self):
        packet = Packet(headers={"tcp.dst": 80})
        assert packet.get("udp.dst", 0) == 0

    def test_contains(self):
        packet = Packet(headers={"tcp.dst": 80})
        assert "tcp.dst" in packet
        assert "tcp.src" not in packet
