"""Tests for byte/time unit helpers."""

from repro.utils.units import (
    GB,
    GIB,
    HOUR,
    KB,
    KIB,
    MB,
    MIB,
    MINUTE,
    format_bytes,
    format_duration,
)


class TestConstants:
    def test_decimal_byte_units(self):
        assert KB == 1_000
        assert MB == 1_000_000
        assert GB == 1_000_000_000

    def test_binary_byte_units(self):
        assert KIB == 1024
        assert MIB == 1024 * 1024
        assert GIB == 1024 ** 3

    def test_time_units(self):
        assert MINUTE == 60.0
        assert HOUR == 3600.0


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_megabytes(self):
        assert format_bytes(1_500_000) == "1.50 MB"

    def test_gigabytes(self):
        assert format_bytes(2 * GB) == "2.00 GB"

    def test_terabytes(self):
        assert format_bytes(3.2e12) == "3.20 TB"

    def test_zero(self):
        assert format_bytes(0) == "0 B"


class TestFormatDuration:
    def test_microseconds(self):
        assert format_duration(0.000042) == "42.0 us"

    def test_milliseconds(self):
        assert format_duration(0.0421) == "42.1 ms"

    def test_seconds(self):
        assert format_duration(3.5) == "3.50 s"

    def test_minutes(self):
        assert format_duration(90) == "1.50 min"

    def test_hours(self):
        assert format_duration(7260) == "2.02 h"

    def test_days(self):
        assert format_duration(2 * 86400) == "2.00 d"

    def test_negative(self):
        assert format_duration(-0.5) == "-500.0 ms"
