"""Bandwidth values and unit handling.

Merlin policies attach rates to ``max``/``min`` clauses using strings such as
``50MB/s``, ``1Gbps``, or ``100Mbps``.  Internally the library represents
every rate as a :class:`Bandwidth` value measured in **bits per second**,
which keeps the compiler's arithmetic (localization splits, MIP coefficients,
simulator link capacities) in a single canonical unit.

The paper mixes byte-based (``MB/s``) and bit-based (``Mbps``) units; both are
supported, with decimal SI prefixes (1 kB = 1000 bytes), matching how network
link capacities are conventionally quoted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from .errors import UnitError

#: Multipliers from unit suffix to bits per second.
_BIT_UNITS = {
    "bps": 1.0,
    "kbps": 1e3,
    "mbps": 1e6,
    "gbps": 1e9,
    "tbps": 1e12,
}

_BYTE_UNITS = {
    "b/s": 8.0,
    "kb/s": 8e3,
    "mb/s": 8e6,
    "gb/s": 8e9,
    "tb/s": 8e12,
}

_UNIT_RE = re.compile(
    r"^\s*(?P<value>[0-9]+(?:\.[0-9]+)?)\s*(?P<unit>[a-zA-Z/]+)?\s*$"
)


@dataclass(frozen=True, order=True)
class Bandwidth:
    """A bandwidth amount in bits per second.

    Instances are immutable and totally ordered, and support addition,
    subtraction, and scaling so that formula localization (splitting an
    aggregate cap across statements) is straightforward arithmetic.
    """

    bits_per_second: float

    def __post_init__(self) -> None:
        if self.bits_per_second < 0:
            raise UnitError(
                f"bandwidth cannot be negative: {self.bits_per_second}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def bps(value: float) -> "Bandwidth":
        """Create a bandwidth of ``value`` bits per second."""
        return Bandwidth(float(value))

    @staticmethod
    def kbps(value: float) -> "Bandwidth":
        """Create a bandwidth of ``value`` kilobits per second."""
        return Bandwidth(float(value) * 1e3)

    @staticmethod
    def mbps(value: float) -> "Bandwidth":
        """Create a bandwidth of ``value`` megabits per second."""
        return Bandwidth(float(value) * 1e6)

    @staticmethod
    def gbps(value: float) -> "Bandwidth":
        """Create a bandwidth of ``value`` gigabits per second."""
        return Bandwidth(float(value) * 1e9)

    @staticmethod
    def mb_per_sec(value: float) -> "Bandwidth":
        """Create a bandwidth of ``value`` megabytes per second."""
        return Bandwidth(float(value) * 8e6)

    @staticmethod
    def parse(text: Union[str, float, int, "Bandwidth"]) -> "Bandwidth":
        """Parse a bandwidth from a policy-source string.

        Accepts strings such as ``"50MB/s"``, ``"1Gbps"``, ``"100 Mbps"``, or
        a bare number (interpreted as bits per second).  Numbers and existing
        :class:`Bandwidth` values pass through unchanged.
        """
        if isinstance(text, Bandwidth):
            return text
        if isinstance(text, (int, float)):
            return Bandwidth(float(text))
        match = _UNIT_RE.match(text)
        if match is None:
            raise UnitError(f"cannot parse bandwidth: {text!r}")
        value = float(match.group("value"))
        unit = (match.group("unit") or "bps").lower()
        if unit in _BIT_UNITS:
            return Bandwidth(value * _BIT_UNITS[unit])
        if unit in _BYTE_UNITS:
            return Bandwidth(value * _BYTE_UNITS[unit])
        raise UnitError(f"unknown bandwidth unit {unit!r} in {text!r}")

    # -- conversions -------------------------------------------------------

    @property
    def bps_value(self) -> float:
        """The bandwidth in bits per second."""
        return self.bits_per_second

    @property
    def mbps_value(self) -> float:
        """The bandwidth in megabits per second."""
        return self.bits_per_second / 1e6

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Bandwidth") -> "Bandwidth":
        if not isinstance(other, Bandwidth):
            return NotImplemented
        return Bandwidth(self.bits_per_second + other.bits_per_second)

    def __sub__(self, other: "Bandwidth") -> "Bandwidth":
        if not isinstance(other, Bandwidth):
            return NotImplemented
        return Bandwidth(max(0.0, self.bits_per_second - other.bits_per_second))

    def __mul__(self, factor: float) -> "Bandwidth":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return Bandwidth(self.bits_per_second * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor: Union[float, "Bandwidth"]):
        if isinstance(divisor, Bandwidth):
            if divisor.bits_per_second == 0:
                raise ZeroDivisionError("division by zero bandwidth")
            return self.bits_per_second / divisor.bits_per_second
        if isinstance(divisor, (int, float)):
            return Bandwidth(self.bits_per_second / float(divisor))
        return NotImplemented

    def split(self, parts: int) -> "Bandwidth":
        """Return the bandwidth divided equally across ``parts`` shares.

        This is the default localization rule from §3.1: an aggregate term
        over ``n`` identifiers is split into ``n`` equal local terms.
        """
        if parts <= 0:
            raise UnitError(f"cannot split bandwidth into {parts} parts")
        return Bandwidth(self.bits_per_second * (1.0 / parts))

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        return self.human()

    def human(self) -> str:
        """Render in the most natural bit-based unit, e.g. ``"400.00Mbps"``."""
        value = self.bits_per_second
        for suffix, factor in (
            ("Tbps", 1e12),
            ("Gbps", 1e9),
            ("Mbps", 1e6),
            ("kbps", 1e3),
        ):
            if value >= factor:
                return f"{value / factor:.2f}{suffix}"
        return f"{value:.2f}bps"

    def policy_literal(self) -> str:
        """Render as a literal that :meth:`parse` turns back into this value.

        A whole number of Mbps renders as ``"<n>Mbps"``; anything else in
        bps, as the shortest positional decimal that reads back to the same
        float (the grammar has no exponent).
        """
        whole_mbps = int(self.mbps_value)
        if whole_mbps >= 1 and Bandwidth.mbps(whole_mbps) == self:
            return f"{whole_mbps}Mbps"
        return format(Decimal(repr(self.bits_per_second)).normalize(), "f") + "bps"


#: Zero bandwidth constant, used as the default guarantee (``r_min = 0``).
ZERO = Bandwidth(0.0)

#: Conventional line rate used when a policy gives no maximum (1 Gbps NICs in
#: the paper's testbed).
LINE_RATE = Bandwidth.gbps(1)
