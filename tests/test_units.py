"""Tests for bandwidth values and unit parsing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import UnitError
from repro.units import LINE_RATE, ZERO, Bandwidth


class TestParsing:
    def test_parse_megabytes_per_second(self):
        assert Bandwidth.parse("50MB/s").bps_value == 50 * 8e6

    def test_parse_megabits_per_second(self):
        assert Bandwidth.parse("100Mbps").bps_value == 100e6

    def test_parse_gigabits(self):
        assert Bandwidth.parse("1Gbps").bps_value == 1e9

    def test_parse_kilobits(self):
        assert Bandwidth.parse("250kbps").bps_value == 250e3

    def test_parse_with_spaces(self):
        assert Bandwidth.parse("100 Mbps").bps_value == 100e6

    def test_parse_bare_number_is_bps(self):
        assert Bandwidth.parse("42").bps_value == 42.0

    def test_parse_numeric_passthrough(self):
        assert Bandwidth.parse(1500).bps_value == 1500.0

    def test_parse_bandwidth_passthrough(self):
        original = Bandwidth.mbps(10)
        assert Bandwidth.parse(original) is original

    def test_parse_decimal_value(self):
        assert Bandwidth.parse("1.5Gbps").bps_value == pytest.approx(1.5e9)

    def test_parse_rejects_garbage(self):
        with pytest.raises(UnitError):
            Bandwidth.parse("fast")

    def test_parse_rejects_unknown_unit(self):
        with pytest.raises(UnitError):
            Bandwidth.parse("10 parsecs")


class TestConstructorsAndConversions:
    def test_mb_per_sec_constructor(self):
        assert Bandwidth.mb_per_sec(100) == Bandwidth.parse("100MB/s")

    def test_mbps_value(self):
        assert Bandwidth.gbps(1).mbps_value == 1000.0

    def test_line_rate_constant(self):
        assert LINE_RATE == Bandwidth.gbps(1)

    def test_zero_constant(self):
        assert ZERO.bps_value == 0.0


class TestArithmetic:
    def test_addition(self):
        assert Bandwidth.mbps(10) + Bandwidth.mbps(5) == Bandwidth.mbps(15)

    def test_subtraction(self):
        assert Bandwidth.mbps(10) - Bandwidth.mbps(4) == Bandwidth.mbps(6)

    def test_subtraction_clamps_at_zero(self):
        assert (Bandwidth.mbps(4) - Bandwidth.mbps(10)).bps_value == 0.0

    def test_scaling(self):
        assert Bandwidth.mbps(10) * 2 == Bandwidth.mbps(20)
        assert 0.5 * Bandwidth.mbps(10) == Bandwidth.mbps(5)

    def test_division_by_number(self):
        assert Bandwidth.mbps(10) / 2 == Bandwidth.mbps(5)

    def test_ratio_of_bandwidths(self):
        assert Bandwidth.mbps(10) / Bandwidth.mbps(40) == pytest.approx(0.25)

    def test_ratio_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Bandwidth.mbps(10) / ZERO

    def test_split_evenly(self):
        # The §3.1 default localization rule: 50 MB/s over two identifiers.
        assert Bandwidth.mb_per_sec(50).split(2) == Bandwidth.mb_per_sec(25)

    def test_split_invalid(self):
        with pytest.raises(UnitError):
            Bandwidth.mbps(10).split(0)

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            Bandwidth(-1.0)

    def test_ordering(self):
        assert Bandwidth.mbps(1) < Bandwidth.mbps(2) < Bandwidth.gbps(1)


class TestFormatting:
    def test_human_gbps(self):
        assert Bandwidth.gbps(1).human() == "1.00Gbps"

    def test_human_mbps(self):
        assert Bandwidth.mbps(400).human() == "400.00Mbps"

    def test_human_bps(self):
        assert Bandwidth(12).human() == "12.00bps"

    def test_policy_literal_round_trip(self):
        rate = Bandwidth.mbps(250)
        assert Bandwidth.parse(rate.policy_literal()) == rate

    def test_policy_literal_keeps_whole_mbps_text(self):
        for mbps in (100, 150, 800):
            assert Bandwidth.mbps(mbps).policy_literal() == f"{mbps}Mbps"
        assert Bandwidth.parse("50MB/s").policy_literal() == "400Mbps"

    def test_policy_literal_keeps_whole_bps_text(self):
        assert Bandwidth(12).policy_literal() == "12bps"
        assert ZERO.policy_literal() == "0bps"

    def test_policy_literal_renders_fractional_bps_exactly(self):
        assert Bandwidth(0.5).policy_literal() == "0.5bps"
        assert Bandwidth(2.5).policy_literal() == "2.5bps"
        assert Bandwidth(1e9 / 7).policy_literal() == "142857142.85714287bps"

    def test_policy_literal_does_not_snap_to_a_near_whole_mbps(self):
        assert Bandwidth(1e6 + 1e-4).policy_literal() == "1000000.0001bps"

    def test_policy_literal_has_no_exponent(self):
        # The grammar reads [0-9]+(\.[0-9]+)? only.
        assert Bandwidth(1e-7).policy_literal() == "0.0000001bps"
        assert Bandwidth(1e20).policy_literal() == "100000000000000Mbps"

    def test_str_uses_human(self):
        assert str(Bandwidth.mbps(5)) == Bandwidth.mbps(5).human()


class TestProperties:
    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_policy_literal_parse_round_trip_is_close(self, bps):
        rate = Bandwidth(bps)
        parsed = Bandwidth.parse(rate.policy_literal())
        assert parsed.bps_value == pytest.approx(rate.bps_value, rel=1e-6, abs=1.0)

    @given(
        st.floats(min_value=0, max_value=1e10, allow_nan=False),
        st.floats(min_value=0, max_value=1e10, allow_nan=False),
    )
    def test_addition_commutes(self, a, b):
        assert Bandwidth(a) + Bandwidth(b) == Bandwidth(b) + Bandwidth(a)

    @given(
        st.floats(min_value=0, max_value=1e10, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    def test_split_times_parts_recovers_total(self, bps, parts):
        rate = Bandwidth(bps)
        assert (rate.split(parts) * parts).bps_value == pytest.approx(bps, rel=1e-9, abs=1e-6)
