"""Tests for Lambda resource limits and memory-proportional scaling."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faas.limits import (
    HOST_MEMORY_BYTES,
    MAX_EXECUTION_SECONDS,
    MAX_FUNCTION_BANDWIDTH,
    MIN_FUNCTION_BANDWIDTH,
    bandwidth_for_memory,
    usable_cache_bytes,
    validate_memory_bytes,
)
from repro.utils.units import MIB


class TestValidateMemory:
    def test_valid_sizes(self):
        for mib in (128, 192, 1536, 3008):
            assert validate_memory_bytes(mib * MIB) == mib * MIB

    def test_below_minimum(self):
        with pytest.raises(ConfigurationError):
            validate_memory_bytes(64 * MIB)

    def test_above_maximum(self):
        with pytest.raises(ConfigurationError):
            validate_memory_bytes(4096 * MIB)

    def test_not_a_64mb_multiple(self):
        with pytest.raises(ConfigurationError):
            validate_memory_bytes(200 * MIB)


class TestBandwidthScaling:
    def test_endpoints_match_paper_measurements(self):
        assert bandwidth_for_memory(128 * MIB) == pytest.approx(MIN_FUNCTION_BANDWIDTH)
        assert bandwidth_for_memory(3008 * MIB) == pytest.approx(MAX_FUNCTION_BANDWIDTH)

    def test_monotonically_increasing(self):
        previous = 0.0
        for mib in (128, 256, 512, 1024, 1536, 2048, 3008):
            bandwidth = bandwidth_for_memory(mib * MIB)
            assert bandwidth > previous
            previous = bandwidth


class TestUsableCacheBytes:
    def test_overhead_subtracted(self):
        assert usable_cache_bytes(1024 * MIB) == int(1024 * MIB * 0.9)


class TestLambdaLimits:
    def test_big_functions_eliminate_colocation(self):
        """The paper's recommendation: >= 1.5 GB functions get a host alone."""
        assert HOST_MEMORY_BYTES // (1536 * MIB) == 1

    def test_execution_limit(self):
        assert MAX_EXECUTION_SECONDS == 900.0
