"""Tests for the synthetic Docker-registry trace generator."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.units import HOUR, MB
from repro.workload.docker_registry import (
    BurstWindow,
    DockerRegistryTraceGenerator,
    PRESETS,
    RegistryTraceConfig,
)


@pytest.fixture(scope="module")
def short_trace():
    """A 4-hour Dallas-style trace shared by the tests in this module."""
    config = RegistryTraceConfig(
        name="dallas", duration_hours=4.0, catalogue_size=800,
        base_requests_per_hour=1500.0, seed=77,
    )
    return DockerRegistryTraceGenerator(config).generate()


class TestGeneration:
    def test_presets_exist(self):
        assert "dallas" in PRESETS and "london" in PRESETS
        generator = DockerRegistryTraceGenerator("london")
        assert generator.config.name == "london"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            DockerRegistryTraceGenerator("tokyo")

    def test_timestamps_ordered_and_within_duration(self, short_trace):
        times = [record.timestamp for record in short_trace]
        assert times == sorted(times)
        assert times[-1] < 4 * HOUR

    def test_request_rate_roughly_matches_configuration(self, short_trace):
        # The 4-hour window sits in the diurnal trough, so the effective rate
        # is below the configured 1500/h base but within the modulation range.
        rate = short_trace.gets_per_hour()
        assert 450 < rate < 4000

    def test_deterministic_for_same_seed(self):
        config = RegistryTraceConfig(duration_hours=1.0, catalogue_size=100, seed=5)
        first = DockerRegistryTraceGenerator(config).generate()
        second = DockerRegistryTraceGenerator(config).generate()
        assert first.records == second.records

    def test_different_seed_differs(self):
        base = RegistryTraceConfig(duration_hours=1.0, catalogue_size=100, seed=5)
        other = RegistryTraceConfig(duration_hours=1.0, catalogue_size=100, seed=6)
        assert (
            DockerRegistryTraceGenerator(base).generate().records
            != DockerRegistryTraceGenerator(other).generate().records
        )

    def test_sizes_consistent_per_key(self, short_trace):
        sizes: dict[str, int] = {}
        for record in short_trace:
            assert sizes.setdefault(record.key, record.size) == record.size


class TestFigure1Properties:
    def test_large_object_fraction(self, short_trace):
        """>20% of objects are larger than 10 MB (Figure 1(a))."""
        sizes = short_trace.object_sizes()
        large = [size for size in sizes if size > 10 * MB]
        assert len(large) / len(sizes) > 0.15

    def test_large_objects_dominate_footprint(self, short_trace):
        """Objects >10 MB hold >90% of the bytes (Figure 1(b) shows >95%)."""
        sizes = short_trace.object_sizes()
        large_bytes = sum(size for size in sizes if size > 10 * MB)
        assert large_bytes / sum(sizes) > 0.90

    def test_access_counts_are_long_tailed(self, short_trace):
        counts = short_trace.access_counts(min_size_bytes=10 * MB)
        assert counts, "large objects must be accessed"
        assert max(counts) >= 10
        singletons = sum(1 for count in counts if count <= 2)
        assert singletons / len(counts) > 0.3

    def test_short_term_reuse_fraction(self, short_trace):
        """A third or more of large-object reuses happen within an hour
        (Figure 1(d): 37-46%)."""
        intervals = short_trace.reuse_intervals_s(min_size_bytes=10 * MB)
        assert intervals
        within_hour = sum(1 for interval in intervals if interval <= HOUR)
        assert within_hour / len(intervals) > 0.30

    def test_generate_large_only_filters(self):
        # The paper's large-object-only setting over a generated trace keeps
        # every request for an object above 10 MB, in order, and no other.
        config = RegistryTraceConfig(duration_hours=1.0, catalogue_size=200, seed=9)
        full = DockerRegistryTraceGenerator(config).generate()
        trace = full.large_objects_only()
        assert all(record.size > 10 * MB for record in trace)
        assert list(trace) == [record for record in full if record.size > 10 * MB]
        assert 0 < len(trace) < len(full)


class TestBurstWindow:
    def test_burst_increases_rate(self):
        quiet_config = RegistryTraceConfig(
            duration_hours=2.0, catalogue_size=300, burst_windows=(), seed=31,
        )
        bursty_config = RegistryTraceConfig(
            duration_hours=2.0, catalogue_size=300,
            burst_windows=(BurstWindow(start_hour=0.0, end_hour=2.0, multiplier=3.0),),
            seed=31,
        )
        quiet = DockerRegistryTraceGenerator(quiet_config).generate()
        bursty = DockerRegistryTraceGenerator(bursty_config).generate()
        assert len(bursty) > 1.8 * len(quiet)

    def test_burst_window_validation(self):
        with pytest.raises(ConfigurationError):
            BurstWindow(start_hour=2.0, end_hour=1.0, multiplier=2.0)
        with pytest.raises(ConfigurationError):
            BurstWindow(start_hour=0.0, end_hour=1.0, multiplier=0.5)

    def test_active(self):
        window = BurstWindow(start_hour=5.0, end_hour=7.0, multiplier=2.0)
        assert window.active(6.0)
        assert not window.active(7.0)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: RegistryTraceConfig(duration_hours=bad),
        lambda bad: RegistryTraceConfig(base_requests_per_hour=bad),
        lambda bad: RegistryTraceConfig(popularity_exponent=bad),
        lambda bad: BurstWindow(start_hour=0.0, end_hour=bad, multiplier=2.0),
        lambda bad: BurstWindow(start_hour=0.0, end_hour=1.0, multiplier=bad),
    ], ids=["duration", "rate", "exponent", "burst-end", "burst-multiplier"])
    def test_non_finite_values_fail_at_declaration(self, build, bad):
        # A NaN duration used to pass, and the replay then died with
        # "cannot replay an empty trace".
        with pytest.raises(ConfigurationError, match="finite"):
            build(bad)

    def test_nan_burst_start_fails_at_declaration(self):
        with pytest.raises(ConfigurationError, match="finite"):
            BurstWindow(start_hour=math.nan, end_hour=1.0, multiplier=2.0)

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            RegistryTraceConfig(duration_hours=0)

    def test_invalid_catalogue(self):
        with pytest.raises(ConfigurationError):
            RegistryTraceConfig(catalogue_size=0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            RegistryTraceConfig(base_requests_per_hour=0)

    def test_invalid_reuse_probability(self):
        with pytest.raises(ConfigurationError):
            RegistryTraceConfig(short_reuse_probability=1.0)
