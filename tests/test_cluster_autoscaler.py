"""Tests for the Lambda-pool autoscaler."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.cluster.autoscaler import (
    EWMA_ALPHA,
    HIGH_MEMORY_WATERMARK,
    HIGH_REQUESTS_PER_NODE,
    LOW_MEMORY_WATERMARK,
    LOW_REQUESTS_PER_NODE,
    SCALE_DOWN_STEP,
    SCALE_UP_STEP,
    TARGET_REQUESTS_PER_NODE,
    TREND_BETA,
    AutoscalerConfig,
    PoolAutoscaler,
)
from repro.exceptions import ConfigurationError
from repro.utils.units import MB, MIB


def make_deployment(**overrides) -> InfiniCacheDeployment:
    defaults = dict(
        num_proxies=1,
        lambdas_per_proxy=8,
        lambda_memory_bytes=256 * MIB,
        data_shards=4,
        parity_shards=2,
        max_lambdas_per_proxy=16,
        straggler=StragglerModel(probability=0.0),
        seed=7,
    )
    defaults.update(overrides)
    deployment = InfiniCacheDeployment(InfiniCacheConfig(**defaults))
    deployment.start()
    return deployment


class TestConfigValidation:
    def test_defaults_valid(self):
        AutoscalerConfig()

    def test_bad_interval(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(interval_s=0)

    def test_constants_keep_the_bands_the_config_used_to_validate(self):
        """The watermarks, steps and smoothing factors are constants now;
        they must still satisfy what ``AutoscalerConfig`` once checked."""
        assert 0.0 < LOW_MEMORY_WATERMARK < HIGH_MEMORY_WATERMARK < 1.0
        assert 0.0 <= LOW_REQUESTS_PER_NODE < HIGH_REQUESTS_PER_NODE
        assert SCALE_UP_STEP >= 1 and SCALE_DOWN_STEP >= 1
        assert 0.0 < EWMA_ALPHA <= 1.0
        assert 0.0 <= TREND_BETA <= 1.0
        # The predictive operating point sits under the reactive trip point.
        assert 0.0 < TARGET_REQUESTS_PER_NODE < HIGH_REQUESTS_PER_NODE


class TestReactiveWatermarks:
    """The reactive policy's decision at each watermark boundary (8 nodes)."""

    @pytest.mark.parametrize("memory_pressure, rate_per_node, expected", [
        (HIGH_MEMORY_WATERMARK, 0.0, SCALE_UP_STEP),
        (0.5, HIGH_REQUESTS_PER_NODE, SCALE_UP_STEP),
        (LOW_MEMORY_WATERMARK, LOW_REQUESTS_PER_NODE, -SCALE_DOWN_STEP),
        (LOW_MEMORY_WATERMARK, 1.0, 0),
        (0.5, 0.0, 0),
    ], ids=["memory-high", "rate-high", "both-low", "rate-between", "memory-between"])
    def test_decision(self, memory_pressure, rate_per_node, expected):
        from repro.cluster.autoscaler import PoolSnapshot, ReactiveWatermarkPolicy

        snapshot = PoolSnapshot(
            proxy_id="proxy-0",
            pool_size=8,
            per_node_capacity_bytes=100 * MB,
            bytes_used=int(memory_pressure * 800 * MB),
            memory_pressure=memory_pressure,
            request_rate=rate_per_node * 8,
        )
        assert ReactiveWatermarkPolicy().desired_delta(snapshot) == expected


class TestBounds:
    def test_min_nodes_floors_at_stripe_width(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment)
        assert autoscaler.min_nodes == 6  # RS(4+2)

    def test_min_nodes_respects_config(self):
        deployment = make_deployment(lambdas_per_proxy=12, min_lambdas_per_proxy=10)
        autoscaler = PoolAutoscaler(deployment)
        assert autoscaler.min_nodes == 10

    def test_max_nodes_from_config(self):
        deployment = make_deployment()
        assert PoolAutoscaler(deployment).max_nodes == 16


class TestScaleUp:
    def test_memory_pressure_grows_pool(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment, AutoscalerConfig(interval_s=10.0))
        client = deployment.new_client()
        index = 0
        # Fill past the high watermark (pool capacity is 8 * ~230 MB).
        while deployment.proxies[0].memory_pressure() < 0.75:
            client.put_sized(f"obj-{index}", 40 * MB)
            index += 1
        deltas = autoscaler.evaluate_once()
        assert deltas["proxy-0"] > 0
        assert deployment.proxies[0].pool_size == 8 + deltas["proxy-0"]

    def test_request_rate_grows_pool(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment, AutoscalerConfig(interval_s=10.0))
        client = deployment.new_client()
        client.put_sized("hot", 1 * MB)
        autoscaler.evaluate_once()  # baseline sample
        for _ in range(200):  # 20 req/s over 10 s > 2 req/s/node * 8 nodes
            client.get("hot")
        deltas = autoscaler.evaluate_once()
        assert deltas["proxy-0"] > 0

    def test_respects_max_nodes(self):
        deployment = make_deployment(max_lambdas_per_proxy=9)
        autoscaler = PoolAutoscaler(deployment)  # wants +4 per tick
        client = deployment.new_client()
        index = 0
        while deployment.proxies[0].memory_pressure() < 0.75:
            client.put_sized(f"obj-{index}", 40 * MB)
            index += 1
        autoscaler.evaluate_once()
        autoscaler.evaluate_once()
        assert deployment.proxies[0].pool_size <= 9


class TestScaleDown:
    def test_idle_pool_shrinks_to_floor(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment)
        for _ in range(5):
            autoscaler.evaluate_once()
        assert deployment.proxies[0].pool_size == autoscaler.min_nodes

    def test_shrink_preserves_cached_objects(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment)
        client = deployment.new_client()
        for index in range(4):
            client.put_sized(f"keep-{index}", 4 * MB)
        autoscaler.evaluate_once()
        assert deployment.proxies[0].pool_size < 8
        for index in range(4):
            assert client.get(f"keep-{index}").hit

    def test_no_shrink_when_capacity_would_retrip_watermark(self):
        class AlwaysShrink:
            def desired_delta(self, snapshot):
                return -2

        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment)
        autoscaler.policy = AlwaysShrink()
        client = deployment.new_client()
        index = 0
        # Park usage at 65 % of 8 nodes: removing one would leave 7 nodes at
        # 74 %, over the 70 % high watermark, so the shrink is refused.
        while deployment.proxies[0].memory_pressure() < 0.65:
            client.put_sized(f"obj-{index}", 20 * MB)
            index += 1
        assert deployment.proxies[0].memory_pressure() < 0.70
        deltas = autoscaler.evaluate_once()
        assert deltas["proxy-0"] == 0


class TestScheduling:
    def test_ticks_on_simulator(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment, AutoscalerConfig(interval_s=30.0))
        autoscaler.start()
        deployment.run_until(95.0)
        series = deployment.metrics.series("cluster.pool_size.proxy-0")
        assert len(series) == 3  # ticks at 30, 60, 90
        autoscaler.stop()
        deployment.run_until(200.0)
        assert len(series) == 3  # no further ticks after stop
        deployment.stop()


class TestPolicyConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(policy="clairvoyant")

    def test_policy_selection(self):
        from repro.cluster.autoscaler import (
            PredictiveEwmaPolicy,
            ReactiveWatermarkPolicy,
            make_policy,
        )

        assert isinstance(make_policy(AutoscalerConfig()), ReactiveWatermarkPolicy)
        assert isinstance(
            make_policy(AutoscalerConfig(policy="predictive")), PredictiveEwmaPolicy
        )


class TestPredictivePolicy:
    def _snapshot(self, **overrides):
        from repro.cluster.autoscaler import PoolSnapshot

        defaults = dict(
            proxy_id="proxy-0",
            pool_size=8,
            per_node_capacity_bytes=100 * MB,
            bytes_used=0,
            memory_pressure=0.0,
            request_rate=0.0,
        )
        defaults.update(overrides)
        return PoolSnapshot(**defaults)

    def test_sizes_pool_to_forecast_rate(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy

        policy = PredictiveEwmaPolicy()
        # At 1 req/s/node a sustained 16 req/s forecast wants 16 nodes: +8.
        assert policy.desired_delta(self._snapshot(request_rate=16.0)) == 8

    def test_forecast_smooths_spikes(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy

        policy = PredictiveEwmaPolicy()
        policy.desired_delta(self._snapshot(request_rate=1.0))
        # One 100 req/s spike moves the EWMA to ~30.7, not to 100.
        delta = policy.desired_delta(self._snapshot(request_rate=100.0))
        assert 0 < delta < 92 - 8

    def test_memory_growth_forecast_grows_ahead(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy

        policy = PredictiveEwmaPolicy()
        policy.desired_delta(self._snapshot(bytes_used=0))
        policy.desired_delta(self._snapshot(bytes_used=400 * MB))
        # 800 MB now needs ceil(800 / 70) = 12 nodes at the 70% watermark;
        # growth smoothed to 204 MB/tick forecasts 1004 MB, so 15: +7 over 8.
        delta = policy.desired_delta(self._snapshot(bytes_used=800 * MB))
        assert delta == 7

    def test_idle_forecast_shrinks(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy

        policy = PredictiveEwmaPolicy()
        assert policy.desired_delta(self._snapshot(request_rate=0.0)) < 0

    def test_predictive_autoscaler_scales_up_before_watermark(self):
        deployment = make_deployment()
        config = AutoscalerConfig(interval_s=10.0, policy="predictive")
        autoscaler = PoolAutoscaler(deployment, config)
        client = deployment.new_client()
        client.put_sized("hot", 1 * MB)
        # 12.1 req/s is ~1.5 req/s/node — under the reactive high watermark
        # (2.0), but over the predictive 1.0 req/s/node operating target.
        # The first sample seeds the forecast, so it is taken under load.
        for _ in range(120):
            client.get("hot")
        deltas = autoscaler.evaluate_once()
        assert deltas["proxy-0"] > 0

    def test_predictive_autoscaler_shrinks_idle_pool(self):
        deployment = make_deployment()
        autoscaler = PoolAutoscaler(deployment, AutoscalerConfig(policy="predictive"))
        for _ in range(5):
            autoscaler.evaluate_once()
        assert deployment.proxies[0].pool_size == autoscaler.min_nodes


class TestPredictiveTrendPolicy:
    def _snapshot(self, **overrides):
        from repro.cluster.autoscaler import PoolSnapshot

        defaults = dict(
            proxy_id="proxy-0",
            pool_size=8,
            per_node_capacity_bytes=100 * MB,
            bytes_used=0,
            memory_pressure=0.0,
            request_rate=0.0,
        )
        defaults.update(overrides)
        return PoolSnapshot(**defaults)

    def test_policy_selection(self):
        from repro.cluster.autoscaler import TREND_BETA, PredictiveEwmaPolicy, make_policy

        policy = make_policy(AutoscalerConfig(policy="predictive_trend"))
        assert isinstance(policy, PredictiveEwmaPolicy)
        assert policy.trend_beta == TREND_BETA > 0.0
        # The plain predictive policy stays trendless.
        assert make_policy(AutoscalerConfig(policy="predictive")).trend_beta == 0.0

    def test_trend_extrapolates_a_ramp_ahead_of_plain_ewma(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy, make_policy

        trended = make_policy(AutoscalerConfig(policy="predictive_trend"))
        plain = PredictiveEwmaPolicy()
        ramp = [4.0, 8.0, 12.0, 16.0, 20.0]
        for rate in ramp[:-1]:
            trended.desired_delta(self._snapshot(request_rate=rate))
            plain.desired_delta(self._snapshot(request_rate=rate))
        with_trend = trended.desired_delta(self._snapshot(request_rate=ramp[-1]))
        without = plain.desired_delta(self._snapshot(request_rate=ramp[-1]))
        # On a steady ramp the trend term forecasts beyond the last level.
        assert with_trend > without

    def test_zero_beta_matches_plain_ewma_exactly(self):
        from repro.cluster.autoscaler import PredictiveEwmaPolicy

        a = PredictiveEwmaPolicy()
        b = PredictiveEwmaPolicy(trend_beta=0.0)
        rates = [2.0, 9.0, 4.0, 17.0, 1.0]
        deltas_a = [a.desired_delta(self._snapshot(request_rate=r)) for r in rates]
        deltas_b = [b.desired_delta(self._snapshot(request_rate=r)) for r in rates]
        assert deltas_a == deltas_b

    def test_trend_forecast_never_goes_negative(self):
        from repro.cluster.autoscaler import make_policy

        policy = make_policy(AutoscalerConfig(policy="predictive_trend"))
        # A crash from 100 req/s to zero drives level + trend below zero by
        # the fifth tick; the sizing must clamp at the minimum pool, not
        # explode on ceil(<0).
        for rate in (100.0, 50.0, 0.0, 0.0):
            policy.desired_delta(self._snapshot(request_rate=rate))
        delta = policy.desired_delta(self._snapshot(request_rate=0.0))
        assert policy._rate_level["proxy-0"] + policy._rate_trend["proxy-0"] < 0
        assert delta == 1 - 8
