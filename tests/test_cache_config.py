"""Tests for deployment configuration validation."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.exceptions import ConfigurationError
from repro.utils.units import MIB


class TestStragglerModel:
    def test_defaults_valid(self):
        model = StragglerModel()
        assert 0 <= model.probability <= 1
        assert model.min_factor >= 1

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            StragglerModel(probability=1.5)

    def test_invalid_factors(self):
        with pytest.raises(ConfigurationError):
            StragglerModel(min_factor=0.5)
        with pytest.raises(ConfigurationError):
            StragglerModel(min_factor=3.0, max_factor=2.0)


class TestInfiniCacheConfig:
    def test_defaults_match_paper_section5(self):
        config = InfiniCacheConfig()
        assert config.lambdas_per_proxy == 400
        assert config.lambda_memory_bytes == 1536 * MIB
        assert config.data_shards == 10
        assert config.parity_shards == 2
        assert config.warmup_interval_s == 60.0
        assert config.backup_interval_s == 300.0
        assert config.backup_enabled is True

    def test_derived_totals(self):
        config = InfiniCacheConfig(num_proxies=5, lambdas_per_proxy=50)
        assert config.total_chunks == 12
        assert config.total_lambda_nodes == 250

    def test_describe(self):
        description = InfiniCacheConfig().describe()
        assert description["rs_code"] == "(10+2)"
        assert description["lambda_memory_MiB"] == 1536

    def test_stripe_wider_than_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(lambdas_per_proxy=8, data_shards=10, parity_shards=2)

    def test_autoscale_bounds_validated(self):
        config = InfiniCacheConfig(
            lambdas_per_proxy=16, min_lambdas_per_proxy=12, max_lambdas_per_proxy=32
        )
        assert config.describe()["autoscale_bounds"] == (12, 32)
        with pytest.raises(ConfigurationError):
            # Pool starts above the declared ceiling.
            InfiniCacheConfig(lambdas_per_proxy=400, max_lambdas_per_proxy=32)
        with pytest.raises(ConfigurationError):
            # Pool starts below the declared floor.
            InfiniCacheConfig(lambdas_per_proxy=16, min_lambdas_per_proxy=20)
        with pytest.raises(ConfigurationError):
            # Ceiling narrower than the erasure stripe.
            InfiniCacheConfig(lambdas_per_proxy=12, max_lambdas_per_proxy=8)

    def test_invalid_proxy_count(self):
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(num_proxies=0)

    def test_invalid_memory(self):
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(lambda_memory_bytes=100 * MIB)

    def test_invalid_intervals(self):
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(warmup_interval_s=0)
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(backup_interval_s=-5)

    def test_invalid_coding_bandwidth(self):
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(encode_bandwidth_bps=0)

    def test_removed_vectorized_arbiter_names_its_replacement(self):
        assert InfiniCacheConfig().flow_arbiter == "incremental"
        with pytest.raises(ConfigurationError, match="'incremental'"):
            InfiniCacheConfig(flow_arbiter="vectorized")
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(flow_arbiter="quantum")

    def test_no_parity_allowed(self):
        config = InfiniCacheConfig(data_shards=10, parity_shards=0, lambdas_per_proxy=20)
        assert config.total_chunks == 10
