"""Tests for the hybrid small/large-object router."""

import pytest

from repro.baselines.elasticache import ElastiCacheCluster
from repro.cache.admission import LARGE_OBJECT_THRESHOLD_BYTES, HybridCacheRouter
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import ConfigurationError
from repro.utils.units import KB, MB, MIB


@pytest.fixture
def hybrid():
    config = InfiniCacheConfig(
        lambdas_per_proxy=16,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        seed=13,
    )
    deployment = InfiniCacheDeployment(config)
    deployment.start()
    router = HybridCacheRouter(
        infinicache_client=deployment.new_client("hybrid"),
        small_object_cache=ElastiCacheCluster("cache.r5.xlarge"),
    )
    yield deployment, router
    deployment.stop()


class TestHybridCacheRouter:
    def test_routing_by_size(self, hybrid):
        _deployment, router = hybrid
        assert router.put_sized("small-object", 200 * KB) == "small"
        assert router.put_sized("large-object", 50 * MB) == "large"
        # The threshold is inclusive: exactly 10 MB stays on the small tier.
        assert LARGE_OBJECT_THRESHOLD_BYTES == 10 * MB
        assert router.put_sized("edge", 10 * MB) == "small"
        assert router.put_sized("edge", 10 * MB + 1) == "large"

    def test_routing_counters_and_shares(self, hybrid):
        _deployment, router = hybrid
        assert router.stats.large_tier_byte_share == 0.0
        assert router.stats.large_tier_object_share == 0.0
        router.put_sized("a", 100 * MB)
        router.put_sized("b", 1 * MB)
        router.put_sized("c", 2 * MB)
        assert router.stats.large_tier_objects == 1
        assert router.stats.small_tier_objects == 2
        assert router.stats.large_tier_object_share == pytest.approx(1 / 3)
        assert router.stats.large_tier_byte_share == pytest.approx(100 / 103)

    def test_get_from_each_tier(self, hybrid):
        _deployment, router = hybrid
        router.put_sized("small-object", 200 * KB)
        router.put_sized("large-object", 50 * MB)
        small = router.get("small-object", size_hint=200 * KB)
        large = router.get("large-object")
        assert small.hit and large.hit
        # The small tier answers much faster than the Lambda-backed tier.
        assert small.latency_s < large.latency_s

    def test_miss_on_unknown_key(self, hybrid):
        _deployment, router = hybrid
        assert router.get("never-inserted", size_hint=1 * MB).hit is False
        assert router.get("never-inserted-large", size_hint=100 * MB).hit is False

    def test_overwrite_migrates_between_tiers(self, hybrid):
        """A key that grows past the threshold moves to the large tier and
        the stale small-tier copy is invalidated."""
        _deployment, router = hybrid
        assert router.put_sized("growing", 500 * KB) == "small"
        assert router.put_sized("growing", 80 * MB) == "large"
        result = router.get("growing")
        assert result.hit
        assert result.size == 80 * MB
        # The stale small-tier copy is gone: a size-hinted GET does not find it.
        assert router.small_tier.get("growing", router.large_tier.clock.now) is None

    def test_invalidate(self, hybrid):
        _deployment, router = hybrid
        router.put_sized("temp", 300 * KB)
        assert router.invalidate("temp") is True
        assert router.get("temp", size_hint=300 * KB).hit is False
        assert router.invalidate("temp") is False

    def test_stats_and_describe(self, hybrid):
        _deployment, router = hybrid
        router.put_sized("s", 100 * KB)
        router.put_sized("l", 20 * MB)
        router.get("s", size_hint=100 * KB)
        router.get("l")
        router.get("missing", size_hint=50 * KB)
        description = router.describe()
        assert description["large_tier_object_share"] == pytest.approx(0.5)
        assert description["small_tier_hit_ratio"] == pytest.approx(0.5)
        assert description["large_tier_hit_ratio"] == pytest.approx(1.0)
        assert 0 < description["overall_hit_ratio"] < 1
        assert router.stats.small_gets == 2
        assert router.stats.large_gets == 1

    def test_empty_key_rejected(self, hybrid):
        _deployment, router = hybrid
        with pytest.raises(ConfigurationError):
            router.put_sized("", 1 * MB)

    def test_invalid_inputs_rejected(self, hybrid):
        _deployment, router = hybrid
        with pytest.raises(ConfigurationError):
            router.put_sized("empty", 0)
        with pytest.raises(ConfigurationError):
            router.put_sized("negative", -1)

    def test_mixed_workload_resolves_the_tension(self, hybrid):
        """The scenario from the paper's introduction: small and large objects
        coexist without large ones evicting the small tier, because they live
        in different tiers."""
        _deployment, router = hybrid
        for index in range(50):
            router.put_sized(f"manifest-{index}", 50 * KB)      # registry manifests
        for index in range(5):
            router.put_sized(f"layer-{index}", 80 * MB)         # image layers
        small_hits = sum(
            1 for index in range(50)
            if router.get(f"manifest-{index}", size_hint=50 * KB).hit
        )
        large_hits = sum(1 for index in range(5) if router.get(f"layer-{index}").hit)
        assert small_hits == 50
        assert large_hits == 5
        assert router.stats.large_tier_byte_share > 0.95
