"""A minimal packet model.

The Merlin compiler itself never inspects packets — classification is purely
symbolic — but predicate *evaluation* is needed by the end-host interpreter
backend, by tests that validate classification behaviour, and by the flow
simulator when it assigns traffic to statements.  A packet here is simply a
mapping from fully-qualified header field names (``"tcp.dst"``, ``"eth.src"``)
to values, plus an optional payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class Packet:
    """An immutable packet with named header fields.

    Header values are stored in canonical form (integers for ports and
    protocol numbers, lower-case colon-separated strings for MAC addresses,
    dotted-quad strings for IPv4 addresses).  The :mod:`repro.predicates`
    package normalises values the same way, so comparisons are exact.
    """

    headers: Mapping[str, Any]
    payload: bytes = b""

    def get(self, field_name: str, default: Any = None) -> Any:
        """Return the value of ``field_name`` or ``default`` when absent."""
        return self.headers.get(field_name, default)

    def __contains__(self, field_name: str) -> bool:
        return field_name in self.headers


def make_packet(
    eth_src: Optional[str] = None,
    eth_dst: Optional[str] = None,
    ip_src: Optional[str] = None,
    ip_dst: Optional[str] = None,
    ip_proto: Optional[Any] = None,
    tcp_src: Optional[int] = None,
    tcp_dst: Optional[int] = None,
    udp_src: Optional[int] = None,
    udp_dst: Optional[int] = None,
    vlan_id: Optional[int] = None,
    payload: bytes = b"",
    **extra: Any,
) -> Packet:
    """Build a :class:`Packet` from keyword arguments.

    Only the fields that are supplied appear in the packet's header mapping,
    mirroring how a real parser would only populate headers that exist.
    Additional fields may be passed with their fully-qualified dotted name via
    ``extra`` (e.g. ``**{"ip.tos": 4}`` is not valid Python syntax as a
    keyword, so pass ``extra`` entries using underscores: ``ip_tos=4``).
    """
    headers: Dict[str, Any] = {}

    def put(name: str, value: Any) -> None:
        if value is not None:
            headers[name] = value

    put("eth.src", _normalize_mac(eth_src) if eth_src else None)
    put("eth.dst", _normalize_mac(eth_dst) if eth_dst else None)
    put("ip.src", ip_src)
    put("ip.dst", ip_dst)
    put("ip.proto", _normalize_proto(ip_proto) if ip_proto is not None else None)
    put("tcp.src", tcp_src)
    put("tcp.dst", tcp_dst)
    put("udp.src", udp_src)
    put("udp.dst", udp_dst)
    put("vlan.id", vlan_id)
    for key, value in extra.items():
        put(key.replace("_", ".", 1), value)
    return Packet(headers=headers, payload=payload)


def _normalize_mac(mac: str) -> str:
    """Normalise a MAC address to lower-case, zero-padded, colon-separated."""
    parts = mac.replace("-", ":").split(":")
    return ":".join(part.zfill(2).lower() for part in parts)


_PROTO_NAMES = {"icmp": 1, "tcp": 6, "udp": 17}


def _normalize_proto(proto: Any) -> int:
    """Normalise an IP protocol given by name or number to its number."""
    if isinstance(proto, str):
        name = proto.strip().lower()
        if name in _PROTO_NAMES:
            return _PROTO_NAMES[name]
        return int(name)
    return int(proto)
