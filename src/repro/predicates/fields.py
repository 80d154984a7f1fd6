"""Catalogue of packet header fields understood by Merlin predicates.

The paper supports "atomic predicates for a number of standard protocols
including Ethernet, IP, TCP, and UDP, and a special predicate for matching
packet payloads".  Each field has a name (``"tcp.dst"``), a domain size (the
number of distinct values the field can take), and value normalisation, which
the satisfiability checker uses to reason about negated equality tests
(``tcp.dst != 80`` is satisfiable because the port domain has more than one
value).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..errors import FieldError

_MAC_RE = re.compile(r"^([0-9a-fA-F]{1,2})(:[0-9a-fA-F]{1,2}){5}$")
_CANONICAL_MAC_RE = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}")
_IPV4_RE = re.compile(r"^(\d{1,3})(\.\d{1,3}){3}$")

_PROTO_NAMES = {"icmp": 1, "igmp": 2, "tcp": 6, "udp": 17, "gre": 47, "esp": 50}
_ETHERTYPE_NAMES = {"ip": 0x0800, "arp": 0x0806, "ipv6": 0x86DD, "vlan": 0x8100}


def _normalize_mac(value: Any) -> str:
    if type(value) is str and _CANONICAL_MAC_RE.fullmatch(value):
        return value  # already canonical: two lower-case hex digits per octet
    text = str(value).strip().lower().replace("-", ":")
    if not _MAC_RE.match(text):
        raise FieldError(f"invalid MAC address: {value!r}")
    return ":".join(part.zfill(2) for part in text.split(":"))


def _normalize_ipv4(value: Any) -> str:
    text = str(value).strip()
    if not _IPV4_RE.match(text):
        raise FieldError(f"invalid IPv4 address: {value!r}")
    octets = [int(octet) for octet in text.split(".")]
    if any(octet > 255 for octet in octets):
        raise FieldError(f"invalid IPv4 address: {value!r}")
    return ".".join(str(octet) for octet in octets)


def _normalize_int(width_bits: int) -> Callable[[Any], int]:
    maximum = (1 << width_bits) - 1

    def normalize(value: Any) -> int:
        try:
            if isinstance(value, str):
                text = value.strip().lower()
                number = int(text, 16) if text.startswith("0x") else int(text)
            else:
                number = int(value)
        except (TypeError, ValueError):
            raise FieldError(
                f"value {value!r} is not an integer, which a {width_bits}-bit field needs"
            ) from None
        if not 0 <= number <= maximum:
            raise FieldError(
                f"value {value!r} out of range for a {width_bits}-bit field"
            )
        return number

    return normalize


def _normalize_proto(value: Any) -> int:
    if isinstance(value, str):
        name = value.strip().lower()
        if name in _PROTO_NAMES:
            return _PROTO_NAMES[name]
    return _normalize_int(8)(value)


def _normalize_ethertype(value: Any) -> int:
    if isinstance(value, str):
        name = value.strip().lower()
        if name in _ETHERTYPE_NAMES:
            return _ETHERTYPE_NAMES[name]
    return _normalize_int(16)(value)


def _normalize_payload(value: Any) -> str:
    return str(value)


@dataclass(frozen=True)
class FieldSpec:
    """Description of a single packet header field.

    ``domain_size`` is ``None`` for effectively unbounded domains (payload
    patterns); such fields are treated as having infinitely many values by
    the satisfiability checker, so any finite set of exclusions leaves the
    field satisfiable.
    """

    name: str
    description: str
    domain_size: Optional[int]
    normalize: Callable[[Any], Any]


#: All header fields Merlin predicates may test, keyed by qualified name.
FIELD_CATALOG: Dict[str, FieldSpec] = {
    spec.name: spec
    for spec in [
        FieldSpec("eth.src", "Ethernet source MAC address", 2**48, _normalize_mac),
        FieldSpec("eth.dst", "Ethernet destination MAC address", 2**48, _normalize_mac),
        FieldSpec("eth.type", "EtherType", 2**16, _normalize_ethertype),
        FieldSpec("vlan.id", "VLAN identifier", 4096, _normalize_int(12)),
        FieldSpec("vlan.pcp", "VLAN priority code point", 8, _normalize_int(3)),
        FieldSpec("ip.src", "IPv4 source address", 2**32, _normalize_ipv4),
        FieldSpec("ip.dst", "IPv4 destination address", 2**32, _normalize_ipv4),
        FieldSpec("ip.proto", "IP protocol number", 256, _normalize_proto),
        FieldSpec("ip.tos", "IP type of service", 256, _normalize_int(8)),
        FieldSpec("tcp.src", "TCP source port", 2**16, _normalize_int(16)),
        FieldSpec("tcp.dst", "TCP destination port", 2**16, _normalize_int(16)),
        FieldSpec("udp.src", "UDP source port", 2**16, _normalize_int(16)),
        FieldSpec("udp.dst", "UDP destination port", 2**16, _normalize_int(16)),
        FieldSpec("icmp.type", "ICMP message type", 256, _normalize_int(8)),
        FieldSpec("icmp.code", "ICMP message code", 256, _normalize_int(8)),
        FieldSpec("payload", "Packet payload pattern", None, _normalize_payload),
    ]
}


def field_spec(name: str) -> FieldSpec:
    """Look up a field by qualified name, raising :class:`FieldError` if unknown."""
    try:
        return FIELD_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(FIELD_CATALOG))
        raise FieldError(f"unknown header field {name!r}; known fields: {known}") from None


def normalize_value(field_name: str, value: Any) -> Any:
    """Normalise ``value`` to the canonical representation for ``field_name``."""
    return field_spec(field_name).normalize(value)


def domain_size(field_name: str) -> Optional[int]:
    """Return the number of values ``field_name`` can take (``None`` = unbounded)."""
    return field_spec(field_name).domain_size
