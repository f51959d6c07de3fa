"""Tests for deployment configuration validation."""

import dataclasses
import math

import pytest

from repro.cache.config import (
    WARMUP_INTERVAL_S,
    InfiniCacheConfig,
    ResilienceConfig,
    StragglerModel,
)
from repro.cluster.autoscaler import AutoscalerConfig
from repro.exceptions import ConfigurationError
from repro.experiments.cluster_scale import TenantSpec
from repro.experiments.production import ProductionScale
from repro.scenarios.spec import ScenarioSpec
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
        assert config.describe()["warmup_interval_s"] == 60.0
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
            InfiniCacheConfig(backup_interval_s=-5)

    def test_removed_vectorized_arbiter_names_its_replacement(self):
        assert InfiniCacheConfig().flow_arbiter == "incremental"
        with pytest.raises(ConfigurationError, match="'incremental'"):
            InfiniCacheConfig(flow_arbiter="vectorized")
        with pytest.raises(ConfigurationError):
            InfiniCacheConfig(flow_arbiter="quantum")

    def test_describe_keeps_its_keys_and_prints_the_warmup_constant(self):
        """Reports read ``describe()``; folding a field into a constant must
        not move a key or a value."""
        description = InfiniCacheConfig().describe()
        assert list(description) == [
            "proxies", "lambdas_per_proxy", "autoscale_bounds", "lambda_memory_MiB",
            "rs_code", "warmup_interval_s", "backup_interval_s", "backup_enabled",
        ]
        assert description["warmup_interval_s"] == WARMUP_INTERVAL_S == 60.0
        assert description["rs_code"] == "(10+2)"

    def test_no_parity_allowed(self):
        config = InfiniCacheConfig(data_shards=10, parity_shards=0, lambdas_per_proxy=20)
        assert config.total_chunks == 10


class TestResilienceConfig:
    def test_defaults_are_one_attempt_no_deadline_no_breaker(self):
        config = ResilienceConfig()
        assert (config.chunk_attempts, config.chunk_timeout_s, config.circuit_breaker) == (
            1, None, False,
        )

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(chunk_attempts=0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(chunk_timeout_s=0.0)


@pytest.mark.parametrize("build", [
    lambda: ResilienceConfig(chunk_timeout_s=math.nan),
    lambda: ResilienceConfig(chunk_timeout_s=math.inf),
    lambda: ResilienceConfig(chunk_attempts=math.nan),
    lambda: ResilienceConfig(chunk_attempts=2.5),
    lambda: ResilienceConfig(chunk_attempts=True),
    lambda: ResilienceConfig(circuit_breaker=1),
    lambda: StragglerModel(probability=1.0, max_factor=math.inf),
    lambda: StragglerModel(min_factor=math.nan),
    lambda: StragglerModel(max_factor=math.nan),
    lambda: InfiniCacheConfig(backup_interval_s=math.nan),
    lambda: InfiniCacheConfig(backup_interval_s=math.inf),
    lambda: AutoscalerConfig(interval_s=math.nan),
    lambda: AutoscalerConfig(interval_s=math.inf),
    lambda: ProductionScale(duration_hours=math.nan),
    lambda: ProductionScale(duration_hours=0.0),
    lambda: ProductionScale(base_requests_per_hour=math.inf),
    lambda: ProductionScale(lambdas_per_proxy=0),
    lambda: ProductionScale(lambdas_per_proxy=2.5),
    lambda: ProductionScale(lambdas_per_proxy=11),
    lambda: ProductionScale(catalogue_size=0),
    lambda: ProductionScale(reclaim_burst_probability=1.5),
    lambda: ProductionScale(reclaim_burst_probability=math.nan),
    lambda: ProductionScale(seed=-1),
], ids=[
    "timeout-nan", "timeout-inf", "attempts-nan", "attempts-fraction",
    "attempts-bool", "breaker-int", "straggler-max-inf", "straggler-min-nan",
    "straggler-max-nan", "backup-nan", "backup-inf", "autoscaler-nan",
    "autoscaler-inf", "production-hours-nan", "production-hours-zero",
    "production-rate-inf", "production-lambdas-zero", "production-lambdas-fraction",
    "production-lambdas-below-stripe", "production-catalogue-zero",
    "production-burst-above-one", "production-burst-nan", "production-seed-negative",
])
def test_non_finite_values_fail_at_construction(build):
    """NaN, infinity and values of the wrong type are rejected where the
    config is built, not mid-run by the deadline timer, ``range(attempts)``,
    ``rng.uniform``, ``deployment.start()`` or the production replay."""
    with pytest.raises(ConfigurationError):
        build()


def test_only_the_settings_callers_vary_are_fields():
    """Anything every caller sets the same way is a module constant: in the
    deployment configs, the scenario specs and the production scale."""
    names = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (
            InfiniCacheConfig, StragglerModel, ResilienceConfig, AutoscalerConfig,
            ScenarioSpec, TenantSpec, ProductionScale,
        )
    }
    assert names == {
        "InfiniCacheConfig": [
            "num_proxies", "lambdas_per_proxy", "lambda_memory_bytes",
            "min_lambdas_per_proxy", "max_lambdas_per_proxy", "data_shards",
            "parity_shards", "backup_interval_s", "backup_enabled", "straggler",
            "flow_arbiter", "flow_trace_limit", "resilience", "seed",
        ],
        "StragglerModel": ["probability", "min_factor", "max_factor"],
        "ResilienceConfig": ["chunk_attempts", "chunk_timeout_s", "circuit_breaker"],
        "AutoscalerConfig": ["interval_s", "policy"],
        "ScenarioSpec": [
            "arrival", "popularity", "object_size", "tenants", "resilience", "faults",
        ],
        "TenantSpec": ["tenant_id", "requests", "num_objects", "object_size", "quota"],
        "ProductionScale": [
            "duration_hours", "catalogue_size", "base_requests_per_hour",
            "lambdas_per_proxy", "reclaim_burst_probability", "seed",
        ],
    }
