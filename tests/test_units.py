"""Unit parsing/formatting round trips and growth-rate identities."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    UnitError,
    cagr_from_doubling_time,
    doubling_time_from_cagr,
    format_bytes,
    format_dollars,
    format_flops,
    format_power,
    format_si,
    format_time,
    parse_bytes,
    parse_flops,
    parse_time,
)


class TestParseFlops:
    def test_plain_number_is_flops(self):
        assert parse_flops("3e9") == 3e9

    @pytest.mark.parametrize("text,expected", [
        ("1 FLOPS", 1.0),
        ("2 GFLOPS", 2e9),
        ("1.5 Tflops", 1.5e12),
        ("4.5GFLOPS", 4.5e9),
        ("1 PFLOPS", 1e15),
        ("2 Mflop/s", 2e6),
    ])
    def test_prefixes(self, text, expected):
        assert parse_flops(text) == pytest.approx(expected)

    def test_rejects_non_flops_unit(self):
        with pytest.raises(UnitError):
            parse_flops("3 GB")

    def test_rejects_garbage(self):
        with pytest.raises(UnitError):
            parse_flops("fast")

    def test_rejects_unknown_prefix(self):
        with pytest.raises(UnitError):
            parse_flops("3 QFLOPS")


class TestParseBytes:
    @pytest.mark.parametrize("text,expected", [
        ("512 MB", 512e6),
        ("16 GiB", 16 * 2**30),
        ("2TB", 2e12),
        ("100 B", 100.0),
        ("1 KiB", 1024.0),
    ])
    def test_prefixes(self, text, expected):
        assert parse_bytes(text) == pytest.approx(expected)

    def test_decimal_vs_binary_differ(self):
        assert parse_bytes("1 GB") != parse_bytes("1 GiB")

    def test_rejects_non_byte(self):
        with pytest.raises(UnitError):
            parse_bytes("5 FLOPS")


class TestParseTime:
    @pytest.mark.parametrize("text,expected", [
        ("5 us", 5e-6),
        ("1.5 h", 5400.0),
        ("30", 30.0),
        ("2 d", 172800.0),
        ("1 y", 365.25 * 86400),
        ("100 ns", 1e-7),
    ])
    def test_suffixes(self, text, expected):
        assert parse_time(text) == pytest.approx(expected)

    def test_rejects_unknown_suffix(self):
        with pytest.raises(UnitError):
            parse_time("5 fortnights")


class TestFormatting:
    def test_flops_picks_best_prefix(self):
        assert format_flops(2.5e9) == "2.5 GFLOPS"
        assert format_flops(1e15) == "1 PFLOPS"

    def test_zero(self):
        assert format_flops(0) == "0 FLOPS"
        assert format_bytes(0) == "0 B"
        assert format_time(0) == "0 s"

    def test_bytes_binary_prefix(self):
        assert format_bytes(2**30) == "1 GiB"

    def test_time_scales(self):
        assert format_time(5e-6) == "5 us"
        assert format_time(3600) == "1 h"
        assert format_time(2 * 365.25 * 86400) == "2 y"

    def test_power(self):
        assert format_power(2500) == "2.5 kW"

    def test_dollars(self):
        assert format_dollars(1_250_000) == "$1,250,000"
        assert format_dollars(46_000_000) == "$46.0M"

    def test_si_subunit_falls_back_to_scientific(self):
        assert "e" in format_si(1e-4, "X")

    def test_si_infinite(self):
        assert "inf" in format_si(float("inf"), "W")


class TestGrowthRates:
    def test_classic_moore(self):
        # 2x every 2 years == ~41.4%/year.
        assert cagr_from_doubling_time(2.0) == pytest.approx(0.41421356)

    def test_round_trip(self):
        for years in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert doubling_time_from_cagr(
                cagr_from_doubling_time(years)) == pytest.approx(years)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            doubling_time_from_cagr(0.0)
        with pytest.raises(ValueError):
            cagr_from_doubling_time(-1.0)


class TestParseFormatProperty:
    @given(st.floats(min_value=1.0, max_value=1e18,
                     allow_nan=False, allow_infinity=False))
    def test_flops_format_parse_round_trip(self, value):
        text = format_flops(value, precision=12)
        assert parse_flops(text) == pytest.approx(value, rel=1e-9)

    @given(st.floats(min_value=1e-9, max_value=1e8,
                     allow_nan=False, allow_infinity=False))
    def test_time_format_parse_round_trip(self, value):
        text = format_time(value, precision=12)
        assert parse_time(text) == pytest.approx(value, rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=10.0))
    def test_doubling_cagr_inverse(self, cagr):
        assert cagr_from_doubling_time(
            doubling_time_from_cagr(cagr)) == pytest.approx(cagr, rel=1e-9)
