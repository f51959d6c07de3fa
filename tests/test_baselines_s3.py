"""Tests for the backing object store (S3 stand-in) and pricing tables."""

import pytest

from repro.baselines.pricing import ELASTICACHE_INSTANCES, elasticache_instance
from repro.baselines.s3 import ObjectStore
from repro.exceptions import ConfigurationError
from repro.utils.units import GB, MB


class TestObjectStore:
    def test_put_then_get(self):
        store = ObjectStore()
        put_latency = store.put("k", 10 * MB)
        fetched = store.get("k")
        assert put_latency > 0
        assert fetched is not None
        size, latency = fetched
        assert size == 10 * MB
        assert latency > store.first_byte_latency_s

    def test_get_unknown_returns_none(self):
        assert ObjectStore().get("missing") is None

    def test_latency_dominated_by_bandwidth_for_large_objects(self):
        store = ObjectStore()
        _, small = store.get("small") if store.put("small", 100_000) and store.get("small") else (0, 0)
        store.put("large", GB)
        _, large = store.get("large")
        assert large > 10 * small

    def test_first_byte_floor_for_small_objects(self):
        store = ObjectStore()
        store.put("tiny", 1)
        _, latency = store.get("tiny")
        assert latency == pytest.approx(store.first_byte_latency_s, rel=0.01)

    def test_counts_and_costs(self):
        store = ObjectStore()
        store.put("a", MB)
        store.put("b", MB)
        store.get("a")
        assert store.put_count == 2
        assert store.get_count == 1
        assert store.request_cost() == pytest.approx(
            2 * store.pricing.price_per_put + store.pricing.price_per_get
        )

    def test_inventory_helpers(self):
        store = ObjectStore()
        store.put("a", 2 * MB)
        store.put("b", 3 * MB)
        assert store.object_count() == 2
        assert store.total_bytes() == 5 * MB
        assert store.contains("a")
        assert store.get("b")[0] == 3 * MB
        assert store.get("c") is None

    def test_overwrite_updates_size(self):
        store = ObjectStore()
        store.put("a", 2 * MB)
        store.put("a", 7 * MB)
        assert store.get("a")[0] == 7 * MB
        assert store.object_count() == 1

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            ObjectStore().put("a", 0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ObjectStore(first_byte_latency_s=-1)
        with pytest.raises(ConfigurationError):
            ObjectStore(bandwidth_bps=0)


class TestPricing:
    def test_instance_table_contains_paper_types(self):
        for name in ("cache.r5.xlarge", "cache.r5.8xlarge", "cache.r5.24xlarge"):
            assert name in ELASTICACHE_INSTANCES

    def test_r5_24xlarge_matches_paper(self):
        instance = elasticache_instance("cache.r5.24xlarge")
        assert instance.memory_bytes == pytest.approx(635.61 * GB, rel=0.001)
        assert instance.hourly_price == pytest.approx(10.368)

    def test_unknown_instance_raises_with_options(self):
        with pytest.raises(ConfigurationError) as excinfo:
            elasticache_instance("cache.z9.huge")
        assert "cache.r5.xlarge" in str(excinfo.value)
